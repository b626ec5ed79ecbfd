//! Isolated layer cells: each times calls into one crate's public
//! functions, outside-in, so a layer's unit cost is known on its own.
//! The traced run multiplies these unit costs by the operation counts
//! the reports expose to attribute a workload's wall time (see
//! `attr.*` in `report.rs`).
//!
//! Every structure is built through its plain constructor; a cell never
//! selects an implementation.

use crate::report::Metrics;
use crate::trace::Tracer;
use bytes::Bytes;
use checkmate_core::snapshot::{plan_snapshot, split_chunks};
use checkmate_core::{
    rollback_propagation, ChannelTriple, CheckpointGraph, CheckpointId, CheckpointKind,
    CheckpointMeta, ChunkerConfig, CicState, IncrementalPolicy, ProtocolKind,
};
use checkmate_dataflow::graph::{ChannelIdx, InstanceIdx};
use checkmate_dataflow::{Codec, KeyedState, Record, Value};
use checkmate_engine::msg::NetMsg;
use checkmate_engine::state::{ArrivalQueue, QueueKey};
use checkmate_engine::{EngineConfig, RunSession, Workload};
use checkmate_sim::{CalendarIndex, EventQueue, SimRng, MILLIS};
use checkmate_storage::{
    FileBackend, MemBackend, StorageBackend, TierPolicy, TieredBackend, TieredProfile,
};
use checkmate_wal::{ChannelLog, DeterminantLog, EventStream, LogEntry, RunStage};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// How much work each cell does. `ops` scales the operation counts of
/// the loops, `bytes` the buffer sizes; the smoke scale keeps the whole
/// set under a second.
#[derive(Debug, Clone, Copy)]
pub struct LayerScale {
    pub ops: u64,
    pub state_bytes: usize,
    pub session_runs: u32,
    pub line_metas: u64,
}

impl LayerScale {
    pub fn full() -> Self {
        Self {
            ops: 1_000_000,
            state_bytes: 8 << 20,
            session_runs: 200,
            line_metas: 50,
        }
    }

    pub fn smoke() -> Self {
        Self {
            ops: 20_000,
            state_bytes: 256 << 10,
            session_runs: 4,
            line_metas: 8,
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

const MB: f64 = 1_048_576.0;

/// Run every isolated cell; one span per cell.
pub fn run_all(
    scale: LayerScale,
    q3_p8: &Workload,
    bids: &dyn EventStream,
    links: &dyn EventStream,
    scratch_dir: &Path,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let n = scale.ops;
    let mut cell = |name: &str, unit: &'static str, f: &mut dyn FnMut() -> f64| {
        let v = tracer.call(name, f);
        out.push(name, v, unit);
    };

    cell("sim.event_queue.ops_per_s", "1/s", &mut || event_queue(n));
    cell("sim.calendar.hot_ops_per_s", "1/s", &mut || calendar_hot(n));
    cell("sim.calendar.purge_ops_per_s", "1/s", &mut || {
        calendar_purge(n)
    });
    for mix in ["hot", "remove", "purge"] {
        cell(
            &format!("engine.arrival.{mix}_ops_per_s"),
            "1/s",
            &mut || arrival(mix, n),
        );
    }
    cell("engine.session.runs_per_s", "1/s", &mut || {
        session_runs(q3_p8, scale.session_runs)
    });
    cell("core.cic.hmnr_ns_per_msg", "ns", &mut || {
        cic_ns_per_msg(CicKind::Hmnr, 48, n / 4)
    });
    cell("core.cic.hmnr_n6_ns_per_msg", "ns", &mut || {
        cic_ns_per_msg(CicKind::Hmnr, 6, n / 2)
    });
    cell("core.cic.bcs_ns_per_msg", "ns", &mut || {
        cic_ns_per_msg(CicKind::Bcs, 48, n)
    });
    let state = synthetic_state(scale.state_bytes);
    cell("core.snapshot.split_mb_per_s", "MB/s", &mut || {
        let (chunks, s) = timed(|| split_chunks(black_box(&state), ChunkerConfig::default()));
        assert!(!chunks.is_empty());
        state.len() as f64 / MB / s
    });
    cell("core.snapshot.plan_us", "us", &mut || {
        let policy = IncrementalPolicy::default();
        let first = plan_snapshot(InstanceIdx(0), 1, &state, None, &policy);
        // The steady-state call: a previous manifest exists and nearly
        // every chunk is unchanged.
        let (plan, s) = timed(|| {
            plan_snapshot(
                InstanceIdx(0),
                2,
                black_box(&state),
                Some(&first.manifest),
                &policy,
            )
        });
        assert!(plan.reused_bytes > 0);
        s * 1e6
    });
    cell("core.recovery.line_us", "us", &mut || {
        recovery_line_us(scale.line_metas)
    });

    let rec = bids.record(0, 0);
    cell("wal.channel_log.append_per_s", "1/s", &mut || {
        let mut log = ChannelLog::new();
        let (_, s) = timed(|| {
            for seq in 1..=n {
                log.append(seq, rec.clone());
            }
        });
        assert_eq!(log.last_seq(), n);
        n as f64 / s
    });
    cell("wal.channel_log.range_per_s", "1/s", &mut || {
        let mut log = ChannelLog::new();
        for seq in 1..=n {
            log.append(seq, rec.clone());
        }
        // Recovery shape: replay the tail of the channel, a window at a
        // time.
        let window = 4_096.min(n);
        let mut entries = 0u64;
        let (_, s) = timed(|| {
            let mut lo = 0;
            while lo < n {
                let hi = (lo + window).min(n);
                entries += log.range(lo, hi).expect("materialized log").len() as u64;
                lo = hi;
            }
        });
        assert_eq!(entries, n);
        entries as f64 / s
    });
    cell("wal.channel_log.truncate_per_s", "1/s", &mut || {
        let mut log = ChannelLog::new();
        for seq in 1..=n {
            log.append(seq, rec.clone());
        }
        // GC shape: the floor advances a checkpoint interval at a time.
        let (_, s) = timed(|| {
            let mut below = 0;
            while below <= n {
                below += 1_024;
                log.truncate_below(below);
            }
        });
        assert_eq!(log.retained_len(), 0);
        n as f64 / s
    });
    cell("wal.determinant.append_per_s", "1/s", &mut || {
        let mut log = DeterminantLog::new();
        let (_, s) = timed(|| {
            for pos in 0..n {
                log.append(pos, ChannelIdx((pos % 5) as u32), pos / 5 + 1);
            }
        });
        assert_eq!(log.end_pos(), n);
        n as f64 / s
    });
    cell("wal.determinant.suffix_per_s", "1/s", &mut || {
        let mut log = DeterminantLog::new();
        for pos in 0..n {
            log.append(pos, ChannelIdx((pos % 5) as u32), pos / 5 + 1);
        }
        // Recovery shape: one suffix from a recent checkpoint position.
        let (suffix, s) = timed(|| log.suffix_from(n / 2));
        assert_eq!(suffix.len() as u64, n - n / 2);
        suffix.len() as f64 / s
    });
    cell("wal.stage.publish_per_s", "1/s", &mut || {
        stage_publish(&rec, n)
    });

    cell("dataflow.codec.encode_mb_per_s", "MB/s", &mut || {
        let records: Vec<Record> = (0..n.min(100_000)).map(|o| bids.record(0, o)).collect();
        let (bytes, s) = timed(|| {
            records
                .iter()
                .map(|r| black_box(r.to_bytes()).len())
                .sum::<usize>()
        });
        bytes as f64 / MB / s
    });
    cell("dataflow.codec.decode_mb_per_s", "MB/s", &mut || {
        let encoded: Vec<Vec<u8>> = (0..n.min(100_000))
            .map(|o| bids.record(0, o).to_bytes())
            .collect();
        let (bytes, s) = timed(|| {
            encoded
                .iter()
                .map(|b| {
                    black_box(Record::from_bytes(b).expect("roundtrip"));
                    b.len()
                })
                .sum::<usize>()
        });
        bytes as f64 / MB / s
    });
    let keyed = synthetic_keyed_state(scale.state_bytes);
    cell("dataflow.state.snapshot_mb_per_s", "MB/s", &mut || {
        let (bytes, s) = timed(|| black_box(&keyed).to_bytes());
        bytes.len() as f64 / MB / s
    });
    cell("dataflow.state.restore_mb_per_s", "MB/s", &mut || {
        let bytes = keyed.to_bytes();
        let (back, s) =
            timed(|| KeyedState::<Vec<Value>>::from_bytes(black_box(&bytes)).expect("roundtrip"));
        assert_eq!(back.len(), keyed.len());
        bytes.len() as f64 / MB / s
    });
    cell("nexmark.gen.records_per_s", "1/s", &mut || {
        generator_rate(bids, n)
    });
    cell("cyclic.gen.records_per_s", "1/s", &mut || {
        generator_rate(links, n)
    });

    // The storage cells report several metrics each.
    let objects = (scale.state_bytes * 4 / OBJECT_BYTES).max(8);
    let (put, get) = tracer.call("storage.mem", || put_get(&MemBackend::new(), objects));
    out.push("storage.mem.put_mb_per_s", put, "MB/s");
    out.push("storage.mem.get_mb_per_s", get, "MB/s");
    let (put, get) = tracer.call("storage.file", || {
        let dir = scratch_dir.join(format!("file-store-{}", std::process::id()));
        let backend = FileBackend::open(&dir).expect("open file backend in the scratch dir");
        let r = put_get(&backend, objects / 4);
        drop(backend);
        std::fs::remove_dir_all(&dir).expect("remove the scratch file store");
        r
    });
    out.push("storage.file.put_mb_per_s", put, "MB/s");
    out.push("storage.file.get_mb_per_s", get, "MB/s");
    let (put, get, maintain_ms) = tracer.call("storage.tier", || tiered(objects));
    out.push("storage.tier.put_mb_per_s", put, "MB/s");
    out.push("storage.tier.get_mb_per_s", get, "MB/s");
    out.push("storage.tier.maintain_ms", maintain_ms, "ms");
}

/// Hold model: keep `PENDING` events in flight; each step pops the
/// minimum and pushes a successor at the engine's insert distribution
/// (ties, near future, occasional far outliers).
fn event_queue(ops: u64) -> f64 {
    const PENDING: u64 = 1_024;
    let mut q = EventQueue::new();
    let mut rng = SimRng::new(0xBEEF + PENDING);
    let mut now = 0u64;
    for i in 0..PENDING {
        q.push(now + rng.below(1_000_000), i);
    }
    let (_, s) = timed(|| {
        for i in 0..ops {
            let (t, _) = q.pop().expect("hold model keeps the queue non-empty");
            now = t;
            let delta = match rng.below(16) {
                0 => 0,
                1..=13 => rng.below(1_000_000),
                _ => 10_000_000 + rng.below(10_000_000),
            };
            q.push(now + delta, i);
        }
    });
    black_box(&q);
    (ops * 2) as f64 / s
}

/// Steady delivery loop on the bare index: advance the clock, drain what
/// is due, reinsert as many near-future successors.
fn calendar_hot(target: u64) -> f64 {
    let mut c = CalendarIndex::new();
    let mut rng = SimRng::new(0xCA1E);
    let (mut now, mut seq, mut ops) = (0u64, 0u64, 0u64);
    for _ in 0..1_024 {
        c.insert((now + 1 + rng.below(1_000_000), seq), seq as u32);
        seq += 1;
    }
    let (_, s) = timed(|| {
        while ops < target * 2 {
            now += rng.below(500_000);
            let mut drained = false;
            while let Some((_, slot)) = c.pop_first_due(now) {
                drained = true;
                c.insert((now + 1 + rng.below(1_000_000), seq), slot);
                seq += 1;
                ops += 2;
            }
            if !drained {
                now = c.first_key().expect("hold model keeps entries").0;
            }
        }
    });
    ops as f64 / s
}

/// Failure sweep on the bare index: build a future-gated backlog, purge
/// one sender's share in place, drain the rest.
fn calendar_purge(target: u64) -> f64 {
    let mut c = CalendarIndex::new();
    let mut rng = SimRng::new(0x9E26);
    let (mut now, mut seq, mut ops) = (0u64, 0u64, 0u64);
    let (_, s) = timed(|| {
        while ops < target {
            for _ in 0..512 {
                c.insert((now + 1 + rng.below(4_000_000), seq), (seq % 5) as u32);
                seq += 1;
                ops += 1;
            }
            now += 2_000_000;
            let victim = rng.below(5) as u32;
            c.purge_from(now, |_, slot| slot == victim);
            ops += 1;
            while c.pop_first_due(now).is_some() {
                ops += 1;
            }
        }
    });
    while c.pop_first().is_some() {}
    ops as f64 / s
}

/// The three arrival-queue mixes: `hot` (steady insert / pop-due),
/// `remove` (determinant-replay cursoring: out-of-order removes from a
/// standing backlog) and `purge` (failure sweep of one sender's
/// channels).
fn arrival(mix: &str, target: u64) -> f64 {
    let msg_of =
        |ch: u32, seq: u64| NetMsg::data(ChannelIdx(ch), seq, Record::new(seq, Value::Unit, 0));
    let mut q = ArrivalQueue::new();
    let mut rng = SimRng::new(0xA11C + mix.len() as u64);
    let (mut now, mut seq, mut ops) = (0u64, 0u64, 0u64);
    let (_, s) = timed(|| match mix {
        "hot" => {
            for _ in 0..1_024 {
                q.insert(
                    (now + 1 + rng.below(1_000_000), seq),
                    msg_of((seq % 5) as u32, seq),
                );
                seq += 1;
            }
            while ops < target * 2 {
                now += rng.below(500_000);
                let mut drained = false;
                while let Some((_, m)) = q.pop_first_due(now) {
                    drained = true;
                    q.insert((now + 1 + rng.below(1_000_000), seq), m);
                    seq += 1;
                    ops += 2;
                }
                if !drained {
                    now = q.first_key().expect("hold model keeps entries").0;
                }
            }
        }
        "remove" => {
            let mut live: Vec<QueueKey> = Vec::new();
            for _ in 0..4_096 {
                let key = (now + 1 + rng.below(10_000_000), seq);
                q.insert(key, msg_of((seq % 5) as u32, seq));
                live.push(key);
                seq += 1;
            }
            while ops < target * 3 / 2 {
                let i = rng.below(live.len() as u64) as usize;
                let key = live.swap_remove(i);
                q.remove(&key).expect("live key");
                let key = (now + 1 + rng.below(10_000_000), seq);
                q.insert(key, msg_of((seq % 5) as u32, seq));
                live.push(key);
                seq += 1;
                ops += 2;
            }
        }
        "purge" => {
            while ops < target * 3 / 2 {
                for _ in 0..512 {
                    q.insert(
                        (now + 1 + rng.below(4_000_000), seq),
                        msg_of((seq % 5) as u32, seq),
                    );
                    seq += 1;
                    ops += 1;
                }
                now += 2_000_000;
                let victim = rng.below(5) as u32;
                q.purge_not_arrived(now, |m| m.channel.0 == victim);
                ops += 1;
                while q.pop_first_due(now).is_some() {
                    ops += 1;
                }
            }
        }
        other => unreachable!("unknown mix {other}"),
    });
    while q.pop_first().is_some() {}
    assert!(q.is_empty());
    ops as f64 / s
}

/// Probe-shaped lifecycle: many 250 ms-simulated runs through one
/// session, so graph expansion, operator builds and resets dominate.
fn session_runs(q3_p8: &Workload, runs: u32) -> f64 {
    let cfg = EngineConfig {
        parallelism: 8,
        protocol: ProtocolKind::Uncoordinated,
        total_rate: 2_000.0,
        duration: 250 * MILLIS,
        warmup: 50 * MILLIS,
        checkpoint_interval: 100 * MILLIS,
        ..EngineConfig::default()
    };
    let mut session = RunSession::new();
    let (events, s) = timed(|| {
        (0..runs)
            .map(|_| session.run(q3_p8, cfg.clone()).events)
            .sum::<u64>()
    });
    assert!(events > 0);
    runs as f64 / s
}

#[derive(Clone, Copy)]
enum CicKind {
    Hmnr,
    Bcs,
}

/// One message's protocol bookkeeping among `n` instances: the sender's
/// `on_send`, then the receiver's `should_force` (taking the forced
/// checkpoint when told to) and `on_deliver`.
fn cic_ns_per_msg(kind: CicKind, n: usize, msgs: u64) -> f64 {
    let mut states: Vec<CicState> = (0..n)
        .map(|me| match kind {
            CicKind::Hmnr => CicState::hmnr(me, n),
            CicKind::Bcs => CicState::bcs(),
        })
        .collect();
    let mut rng = SimRng::new(0xC1C + n as u64);
    let mut forced = 0u64;
    let (_, s) = timed(|| {
        for i in 0..msgs {
            let from = rng.below(n as u64) as usize;
            let to = (from + 1 + rng.below(n as u64 - 1) as usize) % n;
            let pb = states[from].on_send(to);
            if states[to].should_force(from, &pb) {
                states[to].on_checkpoint();
                forced += 1;
            }
            states[to].on_deliver(from, &pb);
            // Local timers: every instance checkpoints now and then.
            if i % 1_024 == 0 {
                states[from].on_checkpoint();
            }
        }
    });
    black_box(forced);
    s * 1e9 / msgs as f64
}

fn synthetic_state(len: usize) -> Vec<u8> {
    let mut rng = SimRng::new(0x57A7E);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// Join-shaped keyed state (lists of small tuples) of about `bytes`.
fn synthetic_keyed_state(bytes: usize) -> KeyedState<Vec<Value>> {
    let mut state = KeyedState::new();
    let mut rng = SimRng::new(0x5EED);
    let mut key = 0u64;
    while state.byte_size() < bytes {
        key += 1 + rng.below(3);
        for _ in 0..=rng.below(4) {
            state.append(
                key,
                Value::tuple([
                    Value::U64(rng.below(1 << 40)),
                    Value::U64(key),
                    Value::U64(rng.below(20)),
                    Value::str("OR"),
                ]),
            );
        }
    }
    state
}

/// `CheckpointGraph::build` + `rollback_propagation` over a six-stage
/// all-to-all pipeline of 48 instances with `metas` checkpoints each,
/// taken at unaligned instants so the line has orphans to roll past.
fn recovery_line_us(metas: u64) -> f64 {
    const STAGES: u32 = 6;
    const PAR: u32 = 8;
    let inst = |stage: u32, i: u32| InstanceIdx(stage * PAR + i);
    let mut channels = Vec::new();
    for stage in 0..STAGES - 1 {
        for i in 0..PAR {
            for j in 0..PAR {
                channels.push(ChannelTriple {
                    ch: ChannelIdx(channels.len() as u32),
                    from: inst(stage, i),
                    to: inst(stage + 1, j),
                });
            }
        }
    }
    // Every channel carries 100 messages per interval; instance `x` takes
    // checkpoint `c` at instant `c·100 + skew(x)`, and a receiver has
    // delivered what was sent up to a small lag before its own instant.
    let mut rng = SimRng::new(0x11E);
    let skews: Vec<u64> = (0..STAGES * PAR).map(|_| rng.below(60)).collect();
    let mut all = Vec::new();
    for stage in 0..STAGES {
        for i in 0..PAR {
            let me = inst(stage, i);
            all.push(CheckpointMeta::initial(me, stage == 0));
            for c in 1..metas {
                let at = c * 100 + skews[me.0 as usize];
                let mut sent_wm = BTreeMap::new();
                let mut recv_wm = BTreeMap::new();
                for t in &channels {
                    if t.from == me {
                        sent_wm.insert(t.ch, at);
                    }
                    if t.to == me {
                        recv_wm.insert(t.ch, at.saturating_sub(20));
                    }
                }
                all.push(CheckpointMeta {
                    id: CheckpointId::new(me, c),
                    kind: CheckpointKind::Local,
                    taken_at: at,
                    durable_at: at,
                    recv_wm,
                    sent_wm,
                    source_offset: (stage == 0).then_some(at),
                    state_key: format!("state/{}/{c}", me.0),
                    state_bytes: 1_024,
                    manifest: None,
                });
            }
        }
    }
    let (outcome, s) = timed(|| {
        let graph = CheckpointGraph::build(black_box(all), &channels);
        rollback_propagation(&graph)
    });
    assert_eq!(outcome.line.len(), (STAGES * PAR) as usize);
    s * 1e6
}

/// The live worker's staged append path: stage entries lane by lane in a
/// worker-local arena, publish into the shared logs every 256.
fn stage_publish(rec: &Record, appends: u64) -> f64 {
    const CHANNELS: usize = 4;
    const PUBLISH_EVERY: u64 = 256;
    let mut logs: Vec<ChannelLog> = (0..CHANNELS).map(|_| ChannelLog::new()).collect();
    let mut stage: RunStage<LogEntry> = RunStage::new(CHANNELS);
    let mut seqs = [0u64; CHANNELS];
    let bytes = rec.encoded_len();
    let (_, s) = timed(|| {
        for i in 0..appends {
            let c = (i % CHANNELS as u64) as usize;
            seqs[c] += 1;
            stage.stage(
                c as u32,
                seqs[c],
                LogEntry {
                    seq: seqs[c],
                    record: rec.clone(),
                    bytes,
                },
            );
            if stage.staged() >= PUBLISH_EVERY {
                stage.publish_into(|lane, _start, items| {
                    logs[lane as usize].append_entries(items.drain(..));
                });
            }
        }
        stage.publish_into(|lane, _start, items| {
            logs[lane as usize].append_entries(items.drain(..));
        });
    });
    assert_eq!(logs.iter().map(ChannelLog::last_seq).sum::<u64>(), appends);
    appends as f64 / s
}

const OBJECT_BYTES: usize = 64 << 10;

fn object(i: usize) -> Bytes {
    Bytes::from(vec![(i % 251) as u8; OBJECT_BYTES])
}

/// PUT then GET `objects` checkpoint-sized objects; (put, get) MB/s.
fn put_get(backend: &dyn StorageBackend, objects: usize) -> (f64, f64) {
    let payloads: Vec<Bytes> = (0..objects).map(object).collect();
    let total_mb = (objects * OBJECT_BYTES) as f64 / MB;
    let (_, put_s) = timed(|| {
        for (i, p) in payloads.iter().enumerate() {
            backend
                .put(&format!("state/{i}"), p.clone())
                .expect("put to a healthy backend");
        }
    });
    let (got, get_s) = timed(|| {
        (0..objects)
            .map(|i| {
                backend
                    .get(&format!("state/{i}"))
                    .expect("get from a healthy backend")
                    .expect("object just put")
                    .len()
            })
            .sum::<usize>()
    });
    assert_eq!(got, objects * OBJECT_BYTES);
    (total_mb / put_s, total_mb / get_s)
}

/// Tiered store under the default policy: PUTs land hot, a maintenance
/// pass per MiB seals and demotes, and the GETs afterwards read from
/// the warm and cold tiers. Returns (put MB/s, get MB/s, ms per pass).
fn tiered(objects: usize) -> (f64, f64, f64) {
    let policy = TierPolicy::default();
    let backend = TieredBackend::new(TieredProfile::standard(), policy);
    let per_pass = (policy.hot_capacity_bytes as usize / OBJECT_BYTES).max(1);
    let payloads: Vec<Bytes> = (0..objects).map(object).collect();
    let total_mb = (objects * OBJECT_BYTES) as f64 / MB;
    let (mut put_s, mut maintain_s, mut passes) = (0.0, 0.0, 0u32);
    for (i, p) in payloads.iter().enumerate() {
        let (r, s) = timed(|| backend.put(&format!("state/{i}"), p.clone()));
        r.expect("put to a healthy backend");
        put_s += s;
        if (i + 1) % per_pass == 0 {
            // One over capacity, so the pass has something to seal.
            backend
                .put("state/spill", object(i))
                .expect("put to a healthy backend");
            maintain_s += timed(|| backend.maintain()).1;
            passes += 1;
        }
    }
    let stats = backend.stats();
    assert!(
        passes < 2 || stats.seals > 0,
        "maintenance never sealed: {stats:?}"
    );
    let (got, get_s) = timed(|| {
        (0..objects)
            .map(|i| {
                backend
                    .get(&format!("state/{i}"))
                    .expect("get from a healthy backend")
                    .expect("object just put")
                    .len()
            })
            .sum::<usize>()
    });
    assert_eq!(got, objects * OBJECT_BYTES);
    (
        total_mb / put_s,
        total_mb / get_s,
        maintain_s * 1e3 / passes.max(1) as f64,
    )
}

/// Records per second one generator partition produces.
fn generator_rate(stream: &dyn EventStream, records: u64) -> f64 {
    let (keys, s) = timed(|| {
        (0..records)
            .map(|o| black_box(stream.record(0, o)).key)
            .fold(0u64, u64::wrapping_add)
    });
    black_box(keys);
    records as f64 / s
}
