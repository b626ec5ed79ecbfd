//! Recovery-line-driven reclamation on the live plane: under the
//! message-logging protocols the coordinator frees channel-log entries,
//! determinants and superseded whole-snapshot objects as the recovery
//! line advances, and nothing a later recovery reads is among them.
//! Every assertion is on a count or a digest, never on a duration.

use checkmate_core::{DurableCheckpoints, FaultPlan, KillEvent, ProtocolKind, StragglerWindow};
use checkmate_dataflow::graph::InstanceIdx;
use checkmate_dataflow::ops::{DigestSinkOp, KeyedCounterOp, PassThroughOp};
use checkmate_dataflow::{EdgeKind, GraphBuilder, LogicalGraph, Record, Value};
use checkmate_runtime::{run_live, LiveConfig, LiveReport};
use checkmate_storage::{ObjectStore, SharedStore};
use checkmate_wal::EventStream;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const MS: u64 = 1_000_000;
const PARALLELISM: u32 = 2;
const LOGGING: [ProtocolKind; 2] = [
    ProtocolKind::Uncoordinated,
    ProtocolKind::CommunicationInduced,
];

struct TestStream;

impl EventStream for TestStream {
    fn partitions(&self) -> u32 {
        PARALLELISM
    }
    fn record(&self, partition: u32, offset: u64) -> Record {
        let g = offset * PARALLELISM as u64 + partition as u64;
        Record::new(g % 37, Value::U64(g), 0)
    }
}

/// source → (shuffle) keyed counter → sink: three instances per worker,
/// cross-worker channels, growing state.
fn counting_graph() -> LogicalGraph {
    let mut b = GraphBuilder::new();
    let src = b.source("src", 0, 0, Arc::new(|_| Box::new(PassThroughOp)));
    let cnt = b.op("count", 0, Arc::new(|_| Box::new(KeyedCounterOp::new())));
    let sink = b.sink("sink", 0, Arc::new(|_| Box::new(DigestSinkOp::new())));
    b.connect(src, cnt, EdgeKind::Shuffle);
    b.connect(cnt, sink, EdgeKind::Forward);
    b.build().unwrap()
}

/// A one-second input window checkpointed every 40 ms: about 25
/// checkpoints — and as many reclamations — per instance.
fn run(protocol: ProtocolKind, storm: Option<FaultPlan>) -> (LiveReport, SharedStore) {
    let store = ObjectStore::shared();
    let report = run_live(
        &counting_graph(),
        vec![Arc::new(TestStream)],
        LiveConfig {
            parallelism: PARALLELISM,
            protocol,
            rate_per_partition: 4_000.0,
            records_per_partition: 4_000,
            checkpoint_interval: Duration::from_millis(40),
            storm,
            store: Some(Arc::clone(&store)),
            timeout: Duration::from_secs(60),
            ..LiveConfig::default()
        },
    );
    (report, store)
}

/// Worker 0 dies 400 ms in, worker 1 at 700 ms: both well after the
/// first reclamations, so both recoveries read logs that were already
/// cut.
fn two_kills() -> FaultPlan {
    FaultPlan {
        seed: 0,
        kills: vec![
            KillEvent {
                at_ns: 400 * MS,
                worker: 0,
            },
            KillEvent {
                at_ns: 700 * MS,
                worker: 1,
            },
        ],
        stragglers: Vec::new(),
        brownouts: Vec::new(),
    }
}

/// Per instance: how many whole-snapshot objects and how many metadata
/// objects the store holds. Also checks that the metadata is complete —
/// every instance's indices contiguous from 1.
fn objects_per_instance(store: &SharedStore) -> BTreeMap<InstanceIdx, (usize, usize)> {
    let metas = DurableCheckpoints::new(Arc::clone(store)).load_metas();
    let mut out: BTreeMap<InstanceIdx, (usize, usize)> = BTreeMap::new();
    for &(inst, index) in metas.keys() {
        let (_, n_metas) = out.entry(inst).or_default();
        *n_metas += 1;
        assert_eq!(
            index, *n_metas as u64,
            "{inst:?}: ckptmeta/ has a hole below index {index}"
        );
    }
    for (inst, (n_states, _)) in out.iter_mut() {
        *n_states = store.list(&format!("ckpt/{}/", inst.0)).len();
    }
    out
}

/// The snapshots that may remain per instance at the end of a run: the
/// line member plus the few newer checkpoints not yet on a line.
const SNAPSHOTS_LEFT: usize = 6;

fn assert_snapshots_bounded(protocol: ProtocolKind, report: &LiveReport, store: &SharedStore) {
    let per_inst = objects_per_instance(store);
    assert_eq!(per_inst.len(), 3 * PARALLELISM as usize);
    for (inst, (n_states, n_metas)) in per_inst {
        assert!(
            n_metas >= 10,
            "{protocol}: {inst:?} has only {n_metas} durable checkpoints: {}",
            report.summary()
        );
        assert!(
            n_states <= SNAPSHOTS_LEFT,
            "{protocol}: {inst:?} still holds {n_states} snapshots of {n_metas} checkpoints: {}",
            report.summary()
        );
    }
}

#[test]
fn failure_free_logging_runs_reclaim_as_they_go() {
    let (none, _) = run(ProtocolKind::None, None);
    for protocol in LOGGING {
        let (r, store) = run(protocol, None);
        assert_eq!(
            r.sink_digest,
            none.sink_digest,
            "{protocol}: {}",
            r.summary()
        );
        assert!(r.log_entries_reclaimed > 0, "{protocol}: {}", r.summary());
        assert!(r.determinants_reclaimed > 0, "{protocol}: {}", r.summary());
        assert!(r.ckpt_objects_reclaimed > 0, "{protocol}: {}", r.summary());
        // Failure-free, every staged determinant is fresh, so the rest
        // of the staged appends are the channel-log entries.
        let channel_appends = r.staged_appends - r.determinants;
        assert!(
            r.max_log_entries_retained < channel_appends,
            "{protocol}: the logs peaked at {} of {channel_appends} entries: {}",
            r.max_log_entries_retained,
            r.summary()
        );
        assert!(r.log_entries_reclaimed <= channel_appends);
        assert!(r.determinants_reclaimed <= r.determinants);
        // Every durable checkpoint left its metadata; the snapshots
        // behind the line are gone.
        assert_eq!(store.list("ckptmeta/").len() as u64, r.checkpoints);
        assert_snapshots_bounded(protocol, &r, &store);
    }
}

#[test]
fn kills_after_reclamation_stay_exactly_once() {
    for protocol in LOGGING {
        let (clean, _) = run(protocol, None);
        let (stormy, store) = run(protocol, Some(two_kills()));
        assert_eq!(
            stormy.sink_digest,
            clean.sink_digest,
            "{protocol}: exactly-once violated after reclamation\nclean:  {}\nstormy: {}",
            clean.summary(),
            stormy.summary()
        );
        assert_eq!(stormy.recoveries, 2, "{protocol}: {}", stormy.summary());
        assert!(stormy.replayed > 0, "{protocol}: {}", stormy.summary());
        assert!(
            stormy.log_entries_reclaimed > 0,
            "{protocol}: {}",
            stormy.summary()
        );
        assert_snapshots_bounded(protocol, &stormy, &store);
    }
}

/// [`TestStream`] with 2 KiB payloads: at 2 000 records/s per partition
/// each source → counter channel carries ≈ 2 MB/s, so its staged
/// segment passes the 64 KiB seal and publishes about every 30 ms.
struct BulkyStream;

impl EventStream for BulkyStream {
    fn partitions(&self) -> u32 {
        PARALLELISM
    }
    fn record(&self, partition: u32, offset: u64) -> Record {
        let g = offset * PARALLELISM as u64 + partition as u64;
        Record::new(g % 37, Value::str(format!("{g:02048}")), 0)
    }
}

/// With checkpoints 250 ms apart, a kill at 400 ms lands after several
/// early-published segments and before the next checkpoint: the shared
/// logs hold entries past every checkpointed sent watermark, the
/// rolled-back senders regenerate them, and their re-publication
/// overlaps what is logged. Replay and the trim must still add up to
/// exactly-once.
///
/// The surviving worker straggles until the kill, so its checkpoint is
/// taken with the victim's sends still unreceived and the recovery has
/// something to replay: with both workers at full speed the two
/// checkpoints see the channels drained and, depending on where the
/// wall clock put them, nothing may be in flight past the line.
#[test]
fn kill_between_an_early_sealed_segment_and_the_next_checkpoint() {
    let run = |protocol, storm| {
        run_live(
            &counting_graph(),
            vec![Arc::new(BulkyStream)],
            LiveConfig {
                parallelism: PARALLELISM,
                protocol,
                rate_per_partition: 2_000.0,
                records_per_partition: 2_000,
                checkpoint_interval: Duration::from_millis(250),
                storm,
                timeout: Duration::from_secs(60),
                ..LiveConfig::default()
            },
        )
    };
    for protocol in LOGGING {
        let clean = run(protocol, None);
        let killed = run(
            protocol,
            Some(FaultPlan {
                seed: 0,
                kills: vec![KillEvent {
                    at_ns: 400 * MS,
                    worker: 0,
                }],
                stragglers: vec![StragglerWindow {
                    worker: 1,
                    from_ns: 0,
                    until_ns: 400 * MS,
                    slowdown: 20.0,
                }],
                brownouts: Vec::new(),
            }),
        );
        assert_eq!(
            killed.sink_digest,
            clean.sink_digest,
            "{protocol}: exactly-once violated\nclean:  {}\nkilled: {}",
            clean.summary(),
            killed.summary()
        );
        assert_eq!(killed.recoveries, 1, "{protocol}: {}", killed.summary());
        assert!(killed.replayed > 0, "{protocol}: {}", killed.summary());
    }
}

#[test]
fn protocols_without_logs_reclaim_nothing() {
    for protocol in [ProtocolKind::None, ProtocolKind::Coordinated] {
        let (r, _) = run(protocol, None);
        assert_eq!(
            (
                r.log_entries_reclaimed,
                r.determinants_reclaimed,
                r.ckpt_objects_reclaimed,
                r.max_log_entries_retained,
            ),
            (0, 0, 0, 0),
            "{protocol}: {}",
            r.summary()
        );
    }
}
