//! The two kinds of run. The untraced run measures one workload and
//! reports the end-to-end metrics; the traced run makes one pass of every
//! workload plus the isolated layer cells and reports the per-layer
//! metrics. End-to-end metrics never come from a traced run.

use crate::cells::{check_cell, proto_tag, Checks, Job, LiveShape, PROTOCOLS};
use crate::json::Json;
use crate::layers;
use crate::os;
use crate::report::{iqr_share, median, Metrics, Summary};
use crate::trace::Tracer;
use crate::workloads::{check_reproduces, pass, prepare, warm, Kind, Pass, Scale};
use checkmate_core::ProtocolKind;
use checkmate_metrics::mean;
use std::path::Path;
use std::time::Instant;

/// Fewest timed passes of an untraced run; more are made until
/// `--seconds` have been measured.
const MIN_PASSES: usize = 3;

/// Set-up repetitions before each pass; `setup_s` is the median of all
/// of them. Spreading them over the run exposes set-up to the same slow
/// stretches of the machine as the passes, instead of one 0.2 s window.
const SETUP_REPS: usize = 3;

pub struct RunOutput {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Informational values that are not metrics (fingerprints, sizes).
    pub info: Vec<(&'static str, String)>,
}

/// Measure one workload: set-up, the untimed warm phase, then timed
/// passes (each preceded by a fresh set-up) for at least `seconds`.
pub fn untraced(kind: Kind, seed: u64, seconds: f64, scale: &Scale) -> RunOutput {
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut set_up = |tracer: &mut Tracer| {
        let mut prepared = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            prepared = Some(prepare(kind, seed, scale, tracer));
            setup_s.push(start.elapsed().as_secs_f64());
        }
        prepared.expect("SETUP_REPS > 0")
    };
    let mut prepared = set_up(&mut tracer);
    let refs = warm(&prepared, scale, &mut tracer, &mut checks);
    let measuring = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass(&prepared, scale, &refs, &mut tracer, &mut checks));
        if passes.len() >= MIN_PASSES && measuring.elapsed().as_secs_f64() >= seconds {
            break;
        }
        prepared = set_up(&mut tracer);
    }

    let mut info = vec![
        ("scale", scale.name.to_string()),
        ("nproc", os::nproc().to_string()),
        (
            "input_fingerprint",
            format!("{:016x}", prepared.input_fingerprint),
        ),
        (
            "pass_wall_s",
            passes
                .iter()
                .map(|p| format!("{:.3}", p.wall_s))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];
    let first = passes[0].report_bytes();
    if !first.is_empty() {
        for again in &passes[1..] {
            check_reproduces(kind, &first, &again.report_bytes(), &mut checks);
        }
        info.push((
            "sim_fingerprint",
            format!("{:016x}", crate::cells::fingerprint(&first)),
        ));
    }

    let mut metrics = Metrics::default();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    metrics.push_samples("setup_s", &setup_s, "s");
    metrics.push_samples("wall_s", &per_pass(&|p| p.wall_s), "s");
    metrics.push_samples("cpu_s", &per_pass(&|p| p.cpu_s), "s");
    metrics.push("peak_rss_mb", os::peak_rss_mb(), "MB");
    metrics.push_samples(
        "records_per_s",
        &per_pass(&|p| p.records() as f64 / p.wall_s),
        "1/s",
    );
    for protocol in PROTOCOLS {
        metrics.push_samples(
            &format!("records_per_s.{}", proto_tag(protocol)),
            &per_pass(&|p| {
                let (records, wall_s) = p.of_protocol(protocol);
                records as f64 / wall_s
            }),
            "1/s",
        );
    }
    RunOutput {
        metrics,
        checks,
        info,
    }
}

/// What the traced pass of one workload contributes to the layer report.
struct TracedPass {
    kind: Kind,
    pass: Pass,
    spans: usize,
}

/// One traced pass of every workload, the isolated layer cells, the
/// p = 2 repeat cells and the stall probe; writes `trace.json` and
/// `layers.json` under `out_dir`.
pub fn traced(seed: u64, scale: &Scale, out_dir: &Path) -> RunOutput {
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let mut tracer = Tracer::new(true);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut traced_passes = Vec::new();
    for kind in Kind::ALL {
        tracer.enter(&format!("workload {}", kind.name()));
        let prepared = prepare(kind, seed, scale, &mut tracer);
        let refs = warm(&prepared, scale, &mut tracer, &mut checks);
        let first_span = tracer.spans().len();
        let p = pass(&prepared, scale, &refs, &mut tracer, &mut checks);
        traced_passes.push(TracedPass {
            kind,
            pass: p,
            spans: tracer.spans().len() - first_span,
        });
        tracer.exit();
    }
    let of = |kind: Kind| -> &TracedPass {
        traced_passes
            .iter()
            .find(|t| t.kind == kind)
            .expect("every workload was traced")
    };

    tracer.enter("layers");
    let [q1, q3, cyclic] = [Job::Q1, Job::Q3, Job::Cyclic].map(|job| job.build(8, seed, false));
    layers::run_all(
        scale.layers,
        &q3,
        q1.streams[0].stream.as_ref(),
        cyclic.streams[0].stream.as_ref(),
        out_dir,
        &mut tracer,
        &mut metrics,
    );
    tracer.exit();

    engine_metrics(
        &of(Kind::SimSteady).pass,
        &of(Kind::SimSkewFail).pass,
        &mut metrics,
    );
    regen_metrics(&of(Kind::RegenProbe).pass, &mut metrics);
    runtime_metrics(
        &of(Kind::LiveFlood).pass,
        &of(Kind::LiveKill).pass,
        &mut metrics,
    );
    p2_and_stall(seed, scale, &mut tracer, &mut checks, &mut metrics);
    for kind in [Kind::SimSteady, Kind::SimSkewFail, Kind::LiveFlood] {
        attribute(kind, &of(kind).pass, &mut metrics);
    }
    let span_cost_s = Tracer::span_cost_s();
    for t in &traced_passes {
        metrics.push(
            &format!("trace.overhead_share.{}", t.kind.name()),
            t.spans as f64 * span_cost_s / t.pass.wall_s,
            "share",
        );
    }
    self_cost_guard(&of(Kind::LiveFlood).pass, &mut metrics, &mut checks);

    std::fs::write(
        out_dir.join("trace.json"),
        tracer.to_chrome_json().compact(),
    )
    .expect("write trace.json");
    std::fs::write(
        out_dir.join("layers.json"),
        Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("scale", Json::str(scale.name)),
            ("nproc", Json::Num(os::nproc() as f64)),
            ("spans", Json::Num(tracer.spans().len() as f64)),
            ("metrics", metrics.to_json_full()),
        ])
        .pretty(),
    )
    .expect("write layers.json");
    RunOutput {
        metrics,
        checks,
        info: vec![
            ("scale", scale.name.to_string()),
            ("nproc", os::nproc().to_string()),
            ("spans", tracer.spans().len().to_string()),
        ],
    }
}

const NON_NONE: [ProtocolKind; 3] = [
    ProtocolKind::Coordinated,
    ProtocolKind::Uncoordinated,
    ProtocolKind::CommunicationInduced,
];

/// `engine.*`: per-event cost by protocol and the exact work counts.
fn engine_metrics(steady: &Pass, skew_fail: &Pass, out: &mut Metrics) {
    let reports = || steady.cells.iter().filter_map(|c| c.sim());
    let mut ns_per_event = Vec::new();
    for protocol in PROTOCOLS {
        let (events, wall_s) = steady
            .cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .fold((0u64, 0.0), |(e, w), c| {
                (e + c.sim().expect("sim cell").events, w + c.wall_s)
            });
        let ns = wall_s * 1e9 / events as f64;
        out.push(
            &format!("engine.ns_per_event.{}", proto_tag(protocol)),
            ns,
            "ns",
        );
        ns_per_event.push(ns);
    }
    for (i, protocol) in NON_NONE.into_iter().enumerate() {
        out.push(
            &format!("engine.proto_cost_ns.{}", proto_tag(protocol)),
            ns_per_event[i + 1] - ns_per_event[0],
            "ns",
        );
    }
    let sum = |f: &dyn Fn(&checkmate_engine::RunReport) -> u64| reports().map(f).sum::<u64>();
    out.push("engine.events", sum(&|r| r.events) as f64, "count");
    out.push(
        "engine.checkpoints",
        sum(&|r| r.checkpoints_total) as f64,
        "count",
    );
    out.push(
        "engine.checkpoints_forced",
        sum(&|r| r.checkpoints_forced) as f64,
        "count",
    );
    out.push(
        "engine.payload_bytes",
        sum(&|r| r.payload_bytes) as f64,
        "count",
    );
    out.push(
        "engine.protocol_bytes",
        sum(&|r| r.protocol_bytes) as f64,
        "count",
    );
    out.push(
        "engine.store_bytes_put",
        sum(&|r| r.store.bytes_put) as f64,
        "count",
    );
    out.push(
        "engine.replayed_records",
        skew_fail
            .cells
            .iter()
            .filter_map(|c| c.sim())
            .map(|r| r.replayed_records)
            .sum::<u64>() as f64,
        "count",
    );
}

/// `metrics.mst.*` and `bench.mst_cell_ms.*` from the `regen_probe` pass.
fn regen_metrics(regen: &Pass, out: &mut Metrics) {
    let probes: Vec<f64> = regen
        .cells
        .iter()
        .map(|c| c.mst().expect("mst cell").probes as f64)
        .collect();
    out.push("metrics.mst.probes_per_cell", mean(&probes), "count");
    for protocol in PROTOCOLS {
        let walls: Vec<f64> = regen
            .cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .map(|c| c.wall_s * 1e3)
            .collect();
        out.push(
            &format!("bench.mst_cell_ms.{}", proto_tag(protocol)),
            mean(&walls),
            "ms",
        );
    }
}

/// `runtime.*`: only `run_live` is public, so these are report counters
/// and differences between cells.
fn runtime_metrics(flood: &Pass, kill: &Pass, out: &mut Metrics) {
    let mut ns_per_record = Vec::new();
    for protocol in PROTOCOLS {
        let (records, wall_s) = flood.of_protocol(protocol);
        let ns = wall_s * 1e9 / records as f64;
        out.push(
            &format!("runtime.ns_per_record.{}", proto_tag(protocol)),
            ns,
            "ns",
        );
        ns_per_record.push(ns);
    }
    for (i, protocol) in NON_NONE.into_iter().enumerate() {
        out.push(
            &format!("runtime.proto_cost_ns.{}", proto_tag(protocol)),
            ns_per_record[i + 1] - ns_per_record[0],
            "ns",
        );
    }
    let reports = || flood.cells.iter().filter_map(|c| c.live());
    // Thread joins, log and inbox drops: what the caller waits for after
    // the runtime stopped its own clock.
    let teardown: Vec<f64> = flood
        .cells
        .iter()
        .map(|c| c.wall_s - c.live().expect("live cell").elapsed.as_secs_f64())
        .collect();
    out.push_samples("runtime.teardown_s", &teardown, "s");
    out.push("runtime.cpu_per_wall", flood.cpu_s / flood.wall_s, "ratio");
    let sum = |f: &dyn Fn(&checkmate_runtime::LiveReport) -> u64| reports().map(f).sum::<u64>();
    out.push(
        "runtime.checkpoints",
        sum(&|r| r.checkpoints) as f64,
        "count",
    );
    out.push(
        "runtime.determinants",
        sum(&|r| r.determinants) as f64,
        "count",
    );
    out.push(
        "runtime.staged_appends",
        sum(&|r| r.staged_appends) as f64,
        "count",
    );
    out.push(
        "runtime.log_flushes",
        sum(&|r| r.log_flushes) as f64,
        "count",
    );
    out.push(
        "runtime.store_bytes_put",
        sum(&|r| r.store.bytes_put) as f64,
        "count",
    );
    out.push(
        "runtime.replayed",
        kill.cells
            .iter()
            .filter_map(|c| c.live())
            .map(|r| r.replayed)
            .sum::<u64>() as f64,
        "count",
    );
    // Cell shapes are equal, so the difference of a killed cell and its
    // failure-free twin is what the recoveries cost; one sample per job.
    for protocol in NON_NONE {
        let penalties: Vec<f64> = kill
            .cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .map(|k| {
                let twin = flood
                    .cells
                    .iter()
                    .find(|f| f.job == k.job && f.protocol == protocol)
                    .expect("live_kill cells mirror live_flood's");
                let recoveries = k.live().expect("live cell").recoveries.max(1);
                (k.wall_s - twin.wall_s) / recoveries as f64
            })
            .collect();
        out.push_samples(
            &format!("runtime.kill_penalty_s.{}", proto_tag(protocol)),
            &penalties,
            "s",
        );
    }
}

/// The p = 2 repeat cells (is the live runtime bimodal with two workers
/// on this box?) and the Q8/COOR stall probe.
fn p2_and_stall(
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    tracer.enter("runtime.p2");
    let workload = Job::Q1.build(2, seed, false);
    let shape = LiveShape {
        job: Job::Q1,
        parallelism: 2,
        records_per_partition: scale.p2_records,
        checkpoint_interval: scale.live_checkpoint(),
        kills_ms: &[],
    };
    let mut worst_iqr = 0.0f64;
    for protocol in PROTOCOLS {
        let rates: Vec<f64> = (0..scale.p2_reps)
            .map(|_| {
                let cell = shape.run(protocol, &workload, tracer);
                checks.record(
                    &format!("p2 {}", cell.label()),
                    check_cell(&cell, None, None),
                );
                cell.records as f64 / cell.wall_s
            })
            .collect();
        worst_iqr = worst_iqr.max(iqr_share(&rates));
        out.push_summary(
            &format!("runtime.p2.records_per_s.{}", proto_tag(protocol)),
            Summary::of(&rates),
            "1/s",
        );
    }
    out.push("runtime.p2.iqr_share", worst_iqr, "share");
    tracer.exit();

    tracer.enter("runtime.stall_probe");
    let workload = Job::Q8.build(1, seed, false);
    let shape = LiveShape {
        job: Job::Q8,
        parallelism: 1,
        records_per_partition: scale.stall_records,
        checkpoint_interval: scale.live_checkpoint(),
        kills_ms: &[],
    };
    let walls: Vec<f64> = (0..scale.stall_reps)
        .map(|_| {
            let cell = shape.run(ProtocolKind::Coordinated, &workload, tracer);
            checks.record(
                &format!("stall probe {}", cell.label()),
                check_cell(&cell, None, None),
            );
            cell.wall_s
        })
        .collect();
    let typical = median(&walls);
    out.push(
        "runtime.stalled_cells",
        walls.iter().filter(|w| **w > 5.0 * typical).count() as f64,
        "count",
    );
    tracer.exit();
}

/// `attr.<workload>.*`: operation counts from the reports × the isolated
/// unit costs ÷ the pass's wall time, and what is left over. A model,
/// not a profile: it says how much of the wall clock the known unit
/// costs can explain from outside.
fn attribute(kind: Kind, p: &Pass, out: &mut Metrics) {
    let per_s = |name: &str| 1.0 / out.value(name);
    let per_mb = |name: &str, bytes: u64| bytes as f64 / 1_048_576.0 / out.value(name);
    let (mut event_queue, mut arrival, mut cic, mut wal, mut snapshot, mut storage) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for cell in &p.cells {
        if let Some(r) = cell.sim() {
            // Data messages of the cell. Under CIC every one carries a
            // fixed-size piggyback, so the CIC twin's protocol bytes count
            // them; the other protocols send the same messages.
            let cic_twin = p
                .cells
                .iter()
                .find(|c| c.job == cell.job && c.protocol == ProtocolKind::CommunicationInduced)
                .and_then(|c| c.sim())
                .expect("every job has a CIC cell");
            let messages = cic_twin.protocol_bytes as f64
                / checkmate_engine::hmnr_wire_bytes(r.parallelism) as f64;
            event_queue += r.events as f64 * 2.0 * per_s("sim.event_queue.ops_per_s");
            arrival += messages * 2.0 * per_s("engine.arrival.hot_ops_per_s");
            if cell.protocol == ProtocolKind::CommunicationInduced {
                cic += messages * out.value("core.cic.hmnr_ns_per_msg") * 1e-9;
            }
            if cell.protocol.logs_messages() {
                wal += messages * per_s("wal.channel_log.append_per_s");
                if r.recoveries > 0 {
                    wal += messages * per_s("wal.determinant.append_per_s")
                        + r.replayed_records as f64 * per_s("wal.channel_log.range_per_s");
                }
            }
            // A failure-free run accounts snapshot sizes without encoding
            // any state (recovery is the only reader), so only runs that
            // recover pay the codec.
            if r.recoveries > 0 {
                snapshot += per_mb("dataflow.state.snapshot_mb_per_s", r.store.bytes_put)
                    + per_mb("dataflow.state.restore_mb_per_s", r.store.bytes_got);
            }
            storage += per_mb("storage.mem.put_mb_per_s", r.store.bytes_put)
                + per_mb("storage.mem.get_mb_per_s", r.store.bytes_got);
        }
        if let Some(r) = cell.live() {
            // The live plane has no virtual-time queues: those two rows
            // stay zero by construction.
            if cell.protocol == ProtocolKind::CommunicationInduced {
                // Deliveries: events minus source reads.
                let deliveries = r.events.saturating_sub(cell.records) as f64;
                cic += deliveries * out.value("core.cic.hmnr_n6_ns_per_msg") * 1e-9;
            }
            wal += r.staged_appends as f64 * per_s("wal.stage.publish_per_s");
            snapshot += per_mb("dataflow.state.snapshot_mb_per_s", r.store.bytes_put);
            storage += per_mb("storage.mem.put_mb_per_s", r.store.bytes_put);
        }
    }
    let rows = [
        ("event_queue", event_queue),
        ("arrival", arrival),
        ("cic", cic),
        ("wal", wal),
        ("snapshot", snapshot),
        ("storage", storage),
    ];
    let mut attributed = 0.0;
    for (layer, seconds) in rows {
        let share = seconds / p.wall_s;
        attributed += share;
        out.push(&format!("attr.{}.{layer}", kind.name()), share, "share");
    }
    out.push(
        &format!("attr.{}.unattributed", kind.name()),
        1.0 - attributed,
        "share",
    );
}

/// The harness's own cost must be known and small: tracing may take at
/// most 3 % of any pass, and generating a record at most 10 % of what
/// the fastest live cell spends per record.
fn self_cost_guard(flood: &Pass, metrics: &mut Metrics, checks: &mut Checks) {
    let mut problems = Vec::new();
    for m in &metrics.list {
        if m.name.starts_with("trace.overhead_share.") && m.summary.median > 0.03 {
            problems.push(format!("{} = {} > 0.03", m.name, m.summary.median));
        }
    }
    let fastest_s_per_record = flood
        .cells
        .iter()
        .map(|c| c.wall_s / c.records as f64)
        .fold(f64::INFINITY, f64::min);
    let gen_share = 1.0 / metrics.value("nexmark.gen.records_per_s") / fastest_s_per_record;
    metrics.push("bench.generator_share", gen_share, "share");
    if gen_share > 0.10 {
        problems.push(format!(
            "generating a record takes {gen_share:.3} of the fastest live cell's per-record time"
        ));
    }
    checks.record("harness self-cost", problems);
}
