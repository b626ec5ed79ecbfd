//! Staged-append equivalence: the contention-free data plane
//! (`buffered_logs`, worker-local append arenas published at flush
//! boundaries) must be a pure performance knob — every sink digest
//! bit-identical to the locked-oracle run under scripted kill schedules
//! and an overlapping fault storm.

use checkmate_core::{BrownoutWindow, FaultPlan, KillEvent, ProtocolKind, StragglerWindow};
use checkmate_dataflow::ops::{DigestSinkOp, KeyedCounterOp, PassThroughOp};
use checkmate_dataflow::{EdgeKind, GraphBuilder, LogicalGraph, Record, Value};
use checkmate_runtime::{run_live, LiveConfig};
use checkmate_wal::EventStream;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const MS: u64 = 1_000_000;

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Coordinated,
    ProtocolKind::Uncoordinated,
    ProtocolKind::CommunicationInduced,
    ProtocolKind::CommunicationInducedBcs,
];

struct TestStream {
    partitions: u32,
}

impl EventStream for TestStream {
    fn partitions(&self) -> u32 {
        self.partitions
    }
    fn record(&self, partition: u32, offset: u64) -> Record {
        let g = offset * self.partitions as u64 + partition as u64;
        Record::new(g % 37, Value::U64(g), 0)
    }
}

fn counting_graph() -> LogicalGraph {
    let mut b = GraphBuilder::new();
    let src = b.source("src", 0, 0, Arc::new(|_| Box::new(PassThroughOp)));
    let cnt = b.op("count", 0, Arc::new(|_| Box::new(KeyedCounterOp::new())));
    let sink = b.sink("sink", 0, Arc::new(|_| Box::new(DigestSinkOp::new())));
    b.connect(src, cnt, EdgeKind::Shuffle);
    b.connect(cnt, sink, EdgeKind::Forward);
    b.build().unwrap()
}

fn cfg(protocol: ProtocolKind, storm: Option<FaultPlan>) -> LiveConfig {
    LiveConfig {
        parallelism: 3,
        protocol,
        rate_per_partition: 1_500.0,
        records_per_partition: 1_500,
        checkpoint_interval: Duration::from_millis(120),
        storm,
        timeout: Duration::from_secs(60),
        ..LiveConfig::default()
    }
}

fn streams() -> Vec<Arc<dyn EventStream>> {
    vec![Arc::new(TestStream { partitions: 3 })]
}

/// The PR 8 storm fixture: a correlated kill pair, a straggler window,
/// and a third kill inside a storage brownout.
fn overlapping_storm() -> FaultPlan {
    FaultPlan {
        seed: 0,
        kills: vec![
            KillEvent {
                at_ns: 300 * MS,
                worker: 0,
            },
            KillEvent {
                at_ns: 320 * MS,
                worker: 1,
            },
            KillEvent {
                at_ns: 800 * MS,
                worker: 2,
            },
        ],
        stragglers: vec![StragglerWindow {
            worker: 1,
            from_ns: 400 * MS,
            until_ns: 700 * MS,
            slowdown: 2.0,
        }],
        brownouts: vec![BrownoutWindow {
            from_ns: 700 * MS,
            until_ns: 1_200 * MS,
            put_fail_p: 0.5,
            get_fail_p: 0.2,
            extra_latency_ns: MS / 2,
        }],
    }
}

/// Buffered staging is a pure transport optimization: under the full
/// PR 8 fault storm every protocol's digest matches the locked oracle
/// bit for bit, and the health counters prove each mode actually took
/// its path (stages drain on the buffered side, never on the oracle).
#[test]
fn staged_appends_match_locked_oracle_under_storm() {
    let graph = counting_graph();
    for protocol in PROTOCOLS {
        let oracle = run_live(
            &graph,
            streams(),
            LiveConfig {
                buffered_logs: false,
                ..cfg(protocol, Some(overlapping_storm()))
            },
        );
        let buffered = run_live(
            &graph,
            streams(),
            LiveConfig {
                buffered_logs: true,
                ..cfg(protocol, Some(overlapping_storm()))
            },
        );
        assert_eq!(
            buffered.sink_digest,
            oracle.sink_digest,
            "{protocol}: staged appends changed the digest under storm\n\
             oracle:   {}\nbuffered: {}",
            oracle.summary(),
            buffered.summary()
        );
        assert!(buffered.recovered && oracle.recovered);
        assert_eq!(
            oracle.staged_appends,
            0,
            "{protocol}: the locked oracle must never stage: {}",
            oracle.summary()
        );
        assert_eq!(oracle.log_flushes, 0);
        if protocol.logs_messages() {
            assert!(
                buffered.staged_appends > 0,
                "{protocol}: buffered logging run staged nothing: {}",
                buffered.summary()
            );
            assert!(
                buffered.log_flushes > 0,
                "{protocol}: staged appends were never published: {}",
                buffered.summary()
            );
            // Bulk publication is the whole point: many appends must
            // share each lock acquisition on average.
            assert!(
                buffered.staged_appends > buffered.log_flushes,
                "{protocol}: staging published one item per flush: {}",
                buffered.summary()
            );
        }
    }
}

proptest! {
    // Every case is six full threaded runs (~2 s each), so very few
    // cases; CI pins PROPTEST_CASES as the upper bound.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized kill schedules: for any 1-2 kills at arbitrary times
    /// inside the input window, buffered and oracle transports agree
    /// with each other and with the clean baseline, for both logging
    /// protocols.
    #[test]
    fn staged_equals_oracle_under_random_kills(
        kill_times in proptest::collection::vec((50u64..900, 0u32..3), 1..3),
        proto_idx in 0usize..2,
    ) {
        let protocol = [
            ProtocolKind::Uncoordinated,
            ProtocolKind::CommunicationInduced,
        ][proto_idx];
        let mut kills: Vec<KillEvent> = kill_times
            .iter()
            .map(|&(at_ms, worker)| KillEvent { at_ns: at_ms * MS, worker })
            .collect();
        kills.sort_by_key(|k| k.at_ns);
        let plan = FaultPlan {
            seed: 0,
            kills,
            stragglers: Vec::new(),
            brownouts: Vec::new(),
        };
        let graph = counting_graph();
        let clean = run_live(&graph, streams(), cfg(protocol, None));
        let oracle = run_live(&graph, streams(), LiveConfig {
            buffered_logs: false,
            ..cfg(protocol, Some(plan.clone()))
        });
        let buffered = run_live(&graph, streams(), LiveConfig {
            buffered_logs: true,
            ..cfg(protocol, Some(plan))
        });
        prop_assert_eq!(
            buffered.sink_digest, oracle.sink_digest,
            "digest split between transports\noracle:   {}\nbuffered: {}",
            oracle.summary(), buffered.summary()
        );
        prop_assert_eq!(
            buffered.sink_digest, clean.sink_digest,
            "killed run diverged from clean baseline\nclean:    {}\nbuffered: {}",
            clean.summary(), buffered.summary()
        );
    }
}
