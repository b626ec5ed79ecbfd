//! The five workloads: what is set up, what one pass runs, and which
//! output checks apply. Every cell has bounded input, so the work of a
//! pass is fixed and `records` in the throughput numerators is exact.

use crate::cells::{
    check_cell, fingerprint, CellResult, Checks, Detail, Job, LiveShape, MstOutcome, Reference,
    SimShape, PROTOCOLS,
};
use crate::layers::LayerScale;
use crate::os;
use crate::trace::Tracer;
use checkmate_bench::{Harness, Scale as RegenScale, Wl};
use checkmate_core::ProtocolKind;
use checkmate_dataflow::ops::Digest;
use checkmate_engine::{RunSession, Workload};
use checkmate_metrics::{find_max_sustainable, MstSearch};
use checkmate_nexmark::Query;
use checkmate_sim::{to_secs, SimTime, SECONDS};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SimSteady,
    SimSkewFail,
    RegenProbe,
    LiveFlood,
    LiveKill,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SimSteady,
        Kind::SimSkewFail,
        Kind::RegenProbe,
        Kind::LiveFlood,
        Kind::LiveKill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SimSteady => "sim_steady",
            Kind::SimSkewFail => "sim_skew_fail",
            Kind::RegenProbe => "regen_probe",
            Kind::LiveFlood => "live_flood",
            Kind::LiveKill => "live_kill",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs on the threaded runtime.
    pub fn is_live(self) -> bool {
        matches!(self, Kind::LiveFlood | Kind::LiveKill)
    }
}

/// Cell sizes. `full` is what `BENCHMARK.json` measures; `smoke` keeps
/// every shape and shrinks every count so the tests finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    /// Records per source partition of the `sim_steady` cells.
    pub steady_q1: u64,
    pub steady_q8: u64,
    pub steady_cyclic: u64,
    /// Records per source partition of the `sim_skew_fail` cells, and
    /// the simulated instant worker 0 dies.
    pub fail_q3: u64,
    pub fail_q12: u64,
    pub fail_cyclic: u64,
    pub fail_at: SimTime,
    /// `regen_probe`: queries probed, worker count, probe budget and
    /// simulated probe length.
    pub regen_queries: &'static [Query],
    pub regen_parallelism: u32,
    pub regen_probes: u32,
    pub regen_probe_duration: SimTime,
    /// Records per source partition of the live cells, and the wall-clock
    /// instants (ms) worker 0 dies in `live_kill`.
    pub live_q1: u64,
    pub live_q3: u64,
    pub live_checkpoint_ms: u64,
    pub kills_ms: &'static [u64],
    /// Records per partition of the cross-plane digest check.
    pub cross_records: u64,
    /// Traced run only: the p = 2 repeat cells and the stall probe.
    pub p2_records: u64,
    pub p2_reps: usize,
    pub stall_records: u64,
    pub stall_reps: usize,
    /// Records per stream hashed into `input_fingerprint` during set-up.
    pub fingerprint_records: u64,
    pub layers: LayerScale,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            name: "full",
            steady_q1: 30_000,
            steady_q8: 12_000,
            steady_cyclic: 12_000,
            fail_q3: 12_000,
            fail_q12: 16_000,
            fail_cyclic: 3_000,
            fail_at: 18 * SECONDS,
            regen_queries: &Query::ALL,
            regen_parallelism: 4,
            regen_probes: RegenScale::quick().mst_probes,
            regen_probe_duration: RegenScale::quick().probe_duration,
            live_q1: 450_000,
            live_q3: 140_000,
            live_checkpoint_ms: 100,
            kills_ms: &[120, 300],
            cross_records: 20_000,
            p2_records: 250_000,
            p2_reps: 5,
            stall_records: 60_000,
            stall_reps: 5,
            fingerprint_records: 32_000,
            layers: LayerScale::full(),
        }
    }

    pub fn smoke() -> Self {
        Self {
            name: "smoke",
            steady_q1: 600,
            steady_q8: 400,
            steady_cyclic: 400,
            fail_q3: 3_000,
            fail_q12: 3_000,
            fail_cyclic: 600,
            fail_at: 3 * SECONDS,
            regen_queries: &[Query::Q1],
            regen_parallelism: 2,
            regen_probes: 3,
            regen_probe_duration: SECONDS,
            live_q1: 100_000,
            live_q3: 40_000,
            live_checkpoint_ms: 20,
            kills_ms: &[30, 60],
            cross_records: 2_000,
            p2_records: 5_000,
            p2_reps: 2,
            stall_records: 2_000,
            stall_reps: 2,
            fingerprint_records: 1_600,
            layers: LayerScale::smoke(),
        }
    }

    pub fn live_checkpoint(&self) -> Duration {
        Duration::from_millis(self.live_checkpoint_ms)
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Self::full()),
            "smoke" => Some(Self::smoke()),
            _ => None,
        }
    }
}

/// Parallelism of the virtual-time cells.
const SIM_P: u32 = 8;
/// Total input rates (records/s over all sources).
const NEXMARK_RATE: f64 = 6_000.0;
const CYCLIC_RATE: f64 = 1_500.0;

/// What set-up produces: graphs and generators for every job of the
/// workload, and a hash of the first generated records of every stream
/// partition (same seed ⇒ same `input_fingerprint`).
pub struct Prepared {
    pub kind: Kind,
    pub seed: u64,
    pub inputs: Vec<(Job, Workload)>,
    pub input_fingerprint: u64,
}

impl Prepared {
    pub fn workload(&self, job: Job) -> &Workload {
        self.inputs
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, w)| w)
            .unwrap_or_else(|| panic!("{} has no {} input", self.kind.name(), job.name()))
    }
}

/// Build graphs and generators and fingerprint the generated input. This
/// is the whole of `setup_s`; generator speed is what moves it.
pub fn prepare(kind: Kind, seed: u64, scale: &Scale, tracer: &mut Tracer) -> Prepared {
    let (jobs, parallelism, skewed): (&[Job], u32, bool) = match kind {
        Kind::SimSteady => (&[Job::Q1, Job::Q8, Job::Cyclic], SIM_P, false),
        Kind::SimSkewFail => (&[Job::Q3, Job::Q12, Job::Cyclic], SIM_P, true),
        Kind::RegenProbe => (
            &[Job::Q1, Job::Q3, Job::Q8, Job::Q12],
            scale.regen_parallelism,
            false,
        ),
        Kind::LiveFlood | Kind::LiveKill => (&[Job::Q1, Job::Q3], 1, false),
    };
    let mut digest = Digest::default();
    let inputs = jobs
        .iter()
        .map(|&job| {
            let workload = tracer.call("build workload", || job.build(parallelism, seed, skewed));
            workload.validate(parallelism);
            tracer.enter("generate fingerprint records");
            for spec in &workload.streams {
                for partition in 0..parallelism {
                    for offset in 0..scale.fingerprint_records / parallelism as u64 {
                        digest.add(&spec.stream.record(partition, offset));
                    }
                }
            }
            tracer.exit();
            (job, workload)
        })
        .collect();
    Prepared {
        kind,
        seed,
        inputs,
        input_fingerprint: digest.acc ^ digest.count,
    }
}

/// One pass over the cell list of a workload.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub cells: Vec<CellResult>,
}

impl Pass {
    pub fn records(&self) -> u64 {
        self.cells.iter().map(|c| c.records).sum()
    }

    /// (records, wall seconds) over the cells of one protocol.
    pub fn of_protocol(&self, protocol: ProtocolKind) -> (u64, f64) {
        self.cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .fold((0, 0.0), |(r, w), c| (r + c.records, w + c.wall_s))
    }

    /// Serialised sim reports, in cell order.
    pub fn report_bytes(&self) -> Vec<Vec<u8>> {
        self.cells
            .iter()
            .filter_map(|c| c.sim().map(|r| r.to_cache_bytes()))
            .collect()
    }
}

fn sim_shapes(kind: Kind, scale: &Scale) -> Vec<SimShape> {
    let shape = |job, total_rate, input_limit, kill_at| SimShape {
        job,
        parallelism: SIM_P,
        total_rate,
        input_limit,
        kill_at,
    };
    match kind {
        Kind::SimSteady => vec![
            shape(Job::Q1, NEXMARK_RATE, scale.steady_q1, None),
            shape(Job::Q8, NEXMARK_RATE, scale.steady_q8, None),
            shape(Job::Cyclic, CYCLIC_RATE, scale.steady_cyclic, None),
        ],
        Kind::SimSkewFail => {
            let kill = Some(scale.fail_at);
            vec![
                shape(Job::Q3, NEXMARK_RATE, scale.fail_q3, kill),
                shape(Job::Q12, NEXMARK_RATE, scale.fail_q12, kill),
                shape(Job::Cyclic, CYCLIC_RATE, scale.fail_cyclic, kill),
            ]
        }
        _ => unreachable!("{} is not a virtual-time workload", kind.name()),
    }
}

fn live_shapes(kind: Kind, scale: &Scale) -> [LiveShape; 2] {
    let kills_ms = match kind {
        Kind::LiveFlood => &[],
        Kind::LiveKill => scale.kills_ms,
        _ => unreachable!("{} is not a live workload", kind.name()),
    };
    [(Job::Q1, scale.live_q1), (Job::Q3, scale.live_q3)].map(|(job, records_per_partition)| {
        LiveShape {
            job,
            parallelism: 1,
            records_per_partition,
            checkpoint_interval: scale.live_checkpoint(),
            kills_ms,
        }
    })
}

/// The aligned coordinated protocol deadlocks on cyclic graphs; the paper
/// skips that cell and so does every workload here.
fn runs(job: Job, protocol: ProtocolKind) -> bool {
    !(job == Job::Cyclic && protocol.uses_markers())
}

/// Untimed work before the first pass: the failure-free NONE references
/// of the workloads whose passes inject failures, and the cross-plane
/// digest check of the live workloads. Every cell run here is an
/// operation like any other.
pub fn warm(
    prepared: &Prepared,
    scale: &Scale,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<Reference> {
    let kind = prepared.kind;
    tracer.enter("warm");
    let mut refs = Vec::new();
    match kind {
        Kind::SimSteady | Kind::RegenProbe | Kind::LiveFlood => {}
        Kind::SimSkewFail => {
            let mut session = RunSession::new();
            for shape in sim_shapes(kind, scale) {
                let free = SimShape {
                    kill_at: None,
                    ..shape
                };
                let cell = free.run(
                    ProtocolKind::None,
                    prepared.workload(shape.job),
                    &mut session,
                    tracer,
                );
                checks.record(
                    &format!("{} reference {}", kind.name(), cell.label()),
                    check_cell(&cell, None, None),
                );
                refs.push(Reference {
                    job: shape.job,
                    digest: cell.digest,
                });
            }
        }
        Kind::LiveKill => {
            for shape in live_shapes(kind, scale) {
                let free = LiveShape {
                    kills_ms: &[],
                    ..shape
                };
                let cell = free.run(ProtocolKind::None, prepared.workload(shape.job), tracer);
                checks.record(
                    &format!("{} reference {}", kind.name(), cell.label()),
                    check_cell(&cell, None, None),
                );
                refs.push(Reference {
                    job: shape.job,
                    digest: cell.digest,
                });
            }
        }
    }
    if kind.is_live() {
        cross_plane(prepared, scale, tracer, checks);
    }
    tracer.exit();
    refs
}

/// Q1 and Q3 at equal (seed, parallelism, limit) must produce the same
/// sink digest on the virtual-time engine and on the live runtime.
fn cross_plane(prepared: &Prepared, scale: &Scale, tracer: &mut Tracer, checks: &mut Checks) {
    let mut session = RunSession::new();
    for job in [Job::Q1, Job::Q3] {
        let workload = prepared.workload(job);
        let sim = SimShape {
            job,
            parallelism: 1,
            total_rate: NEXMARK_RATE,
            input_limit: scale.cross_records,
            kill_at: None,
        }
        .run(ProtocolKind::None, workload, &mut session, tracer);
        let live = LiveShape {
            job,
            parallelism: 1,
            records_per_partition: scale.cross_records,
            checkpoint_interval: scale.live_checkpoint(),
            kills_ms: &[],
        }
        .run(ProtocolKind::None, workload, tracer);
        let mut problems = check_cell(&sim, None, None);
        problems.extend(check_cell(
            &live,
            Some(&Reference {
                job,
                digest: sim.digest,
            }),
            None,
        ));
        checks.record(&format!("cross-plane {}", job.name()), problems);
    }
}

/// Run one pass. `refs` are the failure-free references from [`warm`];
/// workloads whose own NONE cells are failure-free use those instead.
pub fn pass(
    prepared: &Prepared,
    scale: &Scale,
    refs: &[Reference],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let kind = prepared.kind;
    tracer.enter("pass");
    let cpu0 = os::cpu_seconds();
    let start = Instant::now();
    let mut cells: Vec<CellResult> = Vec::new();
    match kind {
        Kind::SimSteady | Kind::SimSkewFail => {
            // One session for the whole pass: consecutive cells of a job
            // share its expanded graph and operator set, as `regen` runs.
            let mut session = RunSession::new();
            for shape in sim_shapes(kind, scale) {
                for protocol in PROTOCOLS.into_iter().filter(|p| runs(shape.job, *p)) {
                    tracer.enter(&format!("cell {}/{protocol}", shape.job.name()));
                    let workload = prepared.workload(shape.job);
                    cells.push(shape.run(protocol, workload, &mut session, tracer));
                    tracer.exit();
                }
            }
        }
        Kind::LiveFlood | Kind::LiveKill => {
            for shape in live_shapes(kind, scale) {
                for protocol in PROTOCOLS {
                    tracer.enter(&format!("cell {}/{protocol}", shape.job.name()));
                    cells.push(shape.run(protocol, prepared.workload(shape.job), tracer));
                    tracer.exit();
                }
            }
        }
        Kind::RegenProbe => {
            // A fresh harness per pass: no MST cell is answered from a
            // cache, in memory or on disk.
            let regen = RegenScale {
                seed: prepared.seed,
                mst_probes: scale.regen_probes,
                probe_duration: scale.regen_probe_duration,
                probe_warmup: scale.regen_probe_duration / 4,
                ..RegenScale::quick()
            };
            let harness = tracer.call("bench::Harness::new", || Harness::new(regen));
            for &query in scale.regen_queries {
                for protocol in PROTOCOLS {
                    tracer.enter(&format!("cell {}/{protocol}", query.name()));
                    cells.push(mst_cell(&harness, query, protocol, scale, tracer));
                    tracer.exit();
                }
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = os::cpu_seconds() - cpu0;
    tracer.exit();

    let killed = matches!(kind, Kind::SimSkewFail | Kind::LiveKill);
    let recoveries = (kind == Kind::LiveKill).then_some(scale.kills_ms.len() as u64);
    for cell in &cells {
        // A failure-free pass carries its references itself: the NONE
        // cell of each job.
        let reference = if killed {
            refs.iter().find(|r| r.job == cell.job).copied()
        } else {
            cells
                .iter()
                .find(|c| c.job == cell.job && c.protocol == ProtocolKind::None)
                .map(|c| Reference {
                    job: c.job,
                    digest: c.digest,
                })
        };
        checks.record(
            &format!("{} {}", kind.name(), cell.label()),
            check_cell(cell, reference.as_ref(), recoveries),
        );
    }
    Pass {
        wall_s,
        cpu_s,
        cells,
    }
}

/// Passes 2.. of a virtual-time workload must reproduce pass 1's reports
/// byte for byte. Counts as one operation.
pub fn check_reproduces(kind: Kind, first: &[Vec<u8>], again: &[Vec<u8>], checks: &mut Checks) {
    let mut problems = Vec::new();
    if first != again {
        problems.push(format!(
            "sim_fingerprint {:016x} != first pass {:016x}",
            fingerprint(again),
            fingerprint(first)
        ));
    }
    checks.record(
        &format!("{} pass reproduces the first", kind.name()),
        problems,
    );
}

/// The bisection `Harness::mst` runs for a NEXMark cell. Mirrored here
/// only to replay the search from its result — [`mst_cell`] fails the
/// cell when the replay does not land on the harness's answer.
fn mst_search(scale: &Scale) -> MstSearch {
    let p = scale.regen_parallelism as f64;
    MstSearch {
        lo: 20.0 * p,
        hi: 4_000.0 * p,
        rel_tol: 0.04,
        max_probes: scale.regen_probes,
    }
}

fn mst_cell(
    harness: &Harness,
    query: Query,
    protocol: ProtocolKind,
    scale: &Scale,
    tracer: &mut Tracer,
) -> CellResult {
    let start = Instant::now();
    let rate = tracer.call("bench::Harness::mst", || {
        harness.mst(Wl::Nexmark(query), protocol, scale.regen_parallelism)
    });
    let wall_s = start.elapsed().as_secs_f64();
    // The bisection is a function of its outcomes, and a probe sustains
    // exactly when its rate is at most the answer: replaying it counts
    // the probes and the records they offered without a second search.
    let (mut probes, mut offered) = (0u32, 0.0f64);
    let search = mst_search(scale);
    let replayed = find_max_sustainable(search, |r| {
        probes += 1;
        offered += r * to_secs(scale.regen_probe_duration);
        r <= rate
    });
    let job = match query {
        Query::Q1 => Job::Q1,
        Query::Q3 => Job::Q3,
        Query::Q8 => Job::Q8,
        Query::Q12 => Job::Q12,
    };
    CellResult {
        job,
        protocol,
        records: offered.round() as u64,
        wall_s,
        digest: Digest::default(),
        detail: Detail::Mst(MstOutcome {
            rate: if replayed == rate { rate } else { f64::NAN },
            probes,
        }),
    }
}
