//! Live-runtime benchmark: wall-clock throughput of the threaded
//! sharded runtime, per protocol and parallelism, on NEXMark Q1 — plus
//! the cells the protocol grid can't separate:
//!
//! - **batching cells**: the same run with wire batching off
//!   (`batch_max = 1`) vs. on, isolating what `Wire::DataBatch`
//!   coalescing buys the data plane;
//! - **kill cell**: a mid-run worker kill + recovery under a
//!   message-logging protocol, timed end to end (the recovery pause is
//!   part of the wall clock);
//! - **slow-sink cell**: a deliberately slow consumer behind a bounded
//!   inbox, proving the backpressure path sustains exactly-once with
//!   bounded memory (`max_inbox_depth` is the evidence);
//! - **protocol-overhead ablation**: the logging protocols (UNC, CIC)
//!   at p = 4 across {staged appends, locked oracle} — two transports
//!   whose sink digests must be bit-identical (staging is a pure
//!   performance lever), with the throughput spread quantifying what
//!   shared-log lock traffic costs.
//!
//! ```text
//! cargo run --release -p checkmate-bench --bin live_bench [-- --json]
//! cargo run --release -p checkmate-bench --bin live_bench -- --smoke
//! ```
//!
//! `--json` is the machine-readable source of the live `events_per_sec`
//! numbers tracked in BENCH_PR*.json. `--smoke` runs the short CI
//! kill/recovery check (bounded inboxes, batching on) and exits
//! non-zero on any exactly-once violation.
//!
//! The input schedule is a flood (every record due immediately), so the
//! measured rate is runtime-limited, not schedule-limited. Throughput is
//! `LiveReport::events` — source reads plus operator deliveries — per
//! wall second, the same unit the virtual-time microbench reports.

use checkmate_core::ProtocolKind;
use checkmate_dataflow::ops::{Digest, PassThroughOp};
use checkmate_dataflow::{
    DecodeError, EdgeKind, GraphBuilder, OpCtx, Operator, PortId, Record, Value,
};
use checkmate_nexmark::{run_query_live, Query};
use checkmate_runtime::{run_live, LiveConfig, LiveReport};
use checkmate_wal::EventStream;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 7;
/// Flood rate: all input due at t = 0; the runtime sets the pace.
const FLOOD: f64 = 1e9;

struct Cell {
    name: &'static str,
    query: &'static str,
    protocol: ProtocolKind,
    parallelism: u32,
    batch_max: usize,
    buffered_logs: bool,
    report: LiveReport,
    wall_secs: f64,
}

fn base_cfg(parallelism: u32, protocol: ProtocolKind) -> LiveConfig {
    LiveConfig {
        parallelism,
        protocol,
        records_per_partition: 60_000,
        checkpoint_interval: Duration::from_millis(500),
        timeout: Duration::from_secs(120),
        ..LiveConfig::default()
    }
}

fn run_cell(
    name: &'static str,
    query: Query,
    protocol: ProtocolKind,
    parallelism: u32,
    tweak: impl FnOnce(&mut LiveConfig),
) -> Cell {
    let mut cfg = base_cfg(parallelism, protocol);
    tweak(&mut cfg);
    let batch_max = cfg.batch_max;
    let buffered_logs = cfg.buffered_logs;
    let start = std::time::Instant::now();
    let report = run_query_live(query, SEED, None, FLOOD, cfg);
    let wall_secs = start.elapsed().as_secs_f64();
    assert!(report.sink_records > 0, "{name}: no output");
    Cell {
        name,
        query: query.name(),
        protocol,
        parallelism,
        batch_max,
        buffered_logs,
        report,
        wall_secs,
    }
}

/// A digest sink that spins for a fixed wall-clock time per record —
/// the bounded-inbox stress consumer (same shape as the backpressure
/// acceptance test in `checkmate-runtime`).
struct SlowDigestSink {
    digest: Digest,
    per_record: Duration,
}

impl Operator for SlowDigestSink {
    fn on_record(&mut self, _port: PortId, rec: Record, _ctx: &mut OpCtx) {
        let t = std::time::Instant::now();
        while t.elapsed() < self.per_record {
            std::hint::spin_loop();
        }
        self.digest.add(&rec);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut enc = checkmate_dataflow::Enc::with_capacity(16);
        enc.u64(self.digest.count).u64(self.digest.acc);
        enc.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut dec = checkmate_dataflow::Dec::new(bytes);
        self.digest.count = dec.u64()?;
        self.digest.acc = dec.u64()?;
        dec.finish()
    }

    fn state_size(&self) -> usize {
        16
    }

    fn reset(&mut self) {
        self.digest = Digest::default();
    }

    fn sink_digest(&self) -> Option<Digest> {
        Some(self.digest)
    }
}

struct FloodStream {
    partitions: u32,
}

impl EventStream for FloodStream {
    fn partitions(&self) -> u32 {
        self.partitions
    }

    fn record(&self, partition: u32, offset: u64) -> Record {
        Record {
            key: offset * self.partitions as u64 + partition as u64,
            value: Value::U64(offset),
            ingest_time: 0,
        }
    }
}

/// Slow-sink cell: src → (shuffle) → 50 µs/record sink behind a
/// 64-message inbox. Returns the report; the bound assertions live
/// here so `--json` output is always honest.
fn run_slow_sink(parallelism: u32, limit: u64) -> (LiveReport, f64) {
    const CAPACITY: usize = 64;
    const SOURCE_BATCH: u32 = 32;
    let mut b = GraphBuilder::new();
    let src = b.source("src", 0, 120_000, Arc::new(|_| Box::new(PassThroughOp)));
    let sink = b.sink(
        "slow_sink",
        90_000,
        Arc::new(|_| {
            Box::new(SlowDigestSink {
                digest: Digest::default(),
                per_record: Duration::from_micros(50),
            })
        }),
    );
    b.connect(src, sink, EdgeKind::Shuffle);
    let graph = b.build().expect("graph");
    let start = std::time::Instant::now();
    let r = run_live(
        &graph,
        vec![Arc::new(FloodStream {
            partitions: parallelism,
        })],
        LiveConfig {
            parallelism,
            protocol: ProtocolKind::Uncoordinated,
            rate_per_partition: FLOOD,
            records_per_partition: limit,
            checkpoint_interval: Duration::from_millis(200),
            timeout: Duration::from_secs(60),
            inbox_capacity: CAPACITY,
            source_batch: SOURCE_BATCH,
            ..LiveConfig::default()
        },
    );
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(
        r.sink_digest.count,
        limit * parallelism as u64,
        "slow sink lost records: {}",
        r.summary()
    );
    assert!(
        r.max_inbox_depth <= CAPACITY + SOURCE_BATCH as usize,
        "inbox ballooned: {}",
        r.max_inbox_depth
    );
    (r, wall)
}

/// CI smoke: a short Q1 kill/recovery run (bounded inboxes, batching
/// on) that must come back exactly-once, plus the slow-sink bound.
fn smoke() {
    let limit = 5_000u64;
    let mut cfg = base_cfg(2, ProtocolKind::Uncoordinated);
    cfg.records_per_partition = limit;
    cfg.kill_worker = Some(1);
    cfg.checkpoint_interval = Duration::from_millis(100);
    let r = run_query_live(Query::Q1, SEED, None, FLOOD, cfg);
    assert!(r.recovered, "kill was scripted: {}", r.summary());
    assert_eq!(
        r.sink_digest.count,
        limit * 2,
        "exactly-once violated across kill/recovery: {}",
        r.summary()
    );
    assert!(r.determinants > 0, "UNC logs delivery order");
    println!("live-smoke kill/recovery: {}", r.summary());
    // Staged appends vs. the locked oracle: same kill schedule, same
    // config, the digests must match bit for bit and each transport
    // must prove it took its own path.
    let mut oracle_cfg = base_cfg(2, ProtocolKind::Uncoordinated);
    oracle_cfg.records_per_partition = limit;
    oracle_cfg.kill_worker = Some(1);
    oracle_cfg.checkpoint_interval = Duration::from_millis(100);
    oracle_cfg.buffered_logs = false;
    let oracle = run_query_live(Query::Q1, SEED, None, FLOOD, oracle_cfg);
    assert_eq!(
        oracle.sink_digest,
        r.sink_digest,
        "staged appends diverged from the locked oracle\nstaged: {}\noracle: {}",
        r.summary(),
        oracle.summary()
    );
    assert!(r.staged_appends > 0, "buffered run never staged");
    assert_eq!(oracle.staged_appends, 0, "oracle run staged");
    println!("live-smoke oracle-diff:   {}", oracle.summary());
    let (slow, _) = run_slow_sink(2, 1_000);
    println!("live-smoke slow-sink:     {}", slow.summary());
    println!("live-smoke OK");
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut cells = Vec::new();
    for parallelism in [1u32, 4] {
        for protocol in [
            ProtocolKind::None,
            ProtocolKind::Coordinated,
            ProtocolKind::Uncoordinated,
            ProtocolKind::CommunicationInduced,
            ProtocolKind::CommunicationInducedBcs,
        ] {
            cells.push(run_cell("grid", Query::Q1, protocol, parallelism, |_| {}));
        }
    }
    // Batching ablation: one record per wire message vs. coalesced.
    cells.push(run_cell(
        "unbatched",
        Query::Q1,
        ProtocolKind::Uncoordinated,
        4,
        |cfg| cfg.batch_max = 1,
    ));
    // Kill/recovery under load (the pause is in the wall clock).
    cells.push(run_cell(
        "kill",
        Query::Q1,
        ProtocolKind::Uncoordinated,
        4,
        |cfg| {
            cfg.kill_worker = Some(1);
            cfg.checkpoint_interval = Duration::from_millis(150);
        },
    ));
    // Protocol-overhead ablation: the two logging protocols across both
    // transports. The digests must be bit-identical — staged appends
    // are a pure performance knob.
    for protocol in [
        ProtocolKind::Uncoordinated,
        ProtocolKind::CommunicationInduced,
    ] {
        let mut digest = None;
        for (name, buffered) in [("ablate-staged", true), ("ablate-oracle", false)] {
            let cell = run_cell(name, Query::Q1, protocol, 4, |cfg| {
                cfg.buffered_logs = buffered;
            });
            if let Some(d) = digest {
                assert_eq!(
                    cell.report.sink_digest,
                    d,
                    "{name}/{protocol}: ablation digest split — the transport \
                     knobs changed the answer: {}",
                    cell.report.summary()
                );
            }
            digest = Some(cell.report.sink_digest);
            cells.push(cell);
        }
    }
    for c in &cells {
        if c.name == "kill" {
            assert!(c.report.recovered, "kill cell must recover");
        }
    }
    let (slow, slow_wall) = run_slow_sink(3, 2_000);
    if json {
        println!("{{");
        println!("  \"live_cells\": [");
        for (i, c) in cells.iter().enumerate() {
            println!(
                "    {{\"cell\": \"{}\", \"query\": \"{}\", \"protocol\": \"{}\", \"parallelism\": {}, \"batch_max\": {}, \"buffered_logs\": {}, \"events\": {}, \"sink_records\": {}, \"sink_digest\": \"{:016x}/{}\", \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}, \"max_inbox_depth\": {}, \"max_out_pending\": {}, \"determinants\": {}, \"staged_appends\": {}, \"log_flushes\": {}, \"recovered\": {}}}{}",
                c.name,
                c.query,
                c.protocol,
                c.parallelism,
                c.batch_max,
                c.buffered_logs,
                c.report.events,
                c.report.sink_records,
                c.report.sink_digest.acc,
                c.report.sink_digest.count,
                c.wall_secs,
                c.report.events as f64 / c.wall_secs,
                c.report.max_inbox_depth,
                c.report.max_out_pending,
                c.report.determinants,
                c.report.staged_appends,
                c.report.log_flushes,
                c.report.recovered,
                if i + 1 == cells.len() { "" } else { "," }
            );
        }
        println!("  ],");
        println!(
            "  \"slow_sink_cell\": {{\"parallelism\": 3, \"inbox_capacity\": 64, \"sink_us_per_record\": 50, \"sink_records\": {}, \"wall_secs\": {:.3}, \"max_inbox_depth\": {}, \"max_out_pending\": {}, \"exactly_once\": true}}",
            slow.sink_records, slow_wall, slow.max_inbox_depth, slow.max_out_pending
        );
        println!("}}");
    } else {
        for c in &cells {
            println!(
                "{:19} {:4} {:24} p={} batch={:<4} {} {:>10} events {:>9} sinks {:>7.2}s {:>12.0} ev/s inbox≤{} pending≤{} staged={}/{}",
                c.name,
                c.query,
                c.protocol.to_string(),
                c.parallelism,
                c.batch_max,
                if c.buffered_logs { "B" } else { "-" },
                c.report.events,
                c.report.sink_records,
                c.wall_secs,
                c.report.events as f64 / c.wall_secs,
                c.report.max_inbox_depth,
                c.report.max_out_pending,
                c.report.staged_appends,
                c.report.log_flushes,
            );
        }
        println!("slow-sink  p=3 cap=64: {}", slow.summary());
    }
}
