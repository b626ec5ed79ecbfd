//! Cells: one bounded-input run of one job under one protocol, on either
//! plane, plus the output checks a cell must pass.
//!
//! A cell drives the system only through `Query::workload` /
//! `reachability`, `RunSession::run`, `run_workload_live` and
//! `..Default::default()` configs, so an implementation switch removed
//! from a config struct never needs an edit here.

use crate::os;
use crate::trace::Tracer;
use checkmate_core::{FaultPlan, KillEvent, ProtocolKind};
use checkmate_cyclic::{reachability, DEFAULT_NODES};
use checkmate_dataflow::ops::Digest;
use checkmate_dataflow::value::{fnv1a_update, FNV_OFFSET};
use checkmate_dataflow::WorkerId;
use checkmate_engine::{EngineConfig, FailureSpec, Outcome, RunReport, RunSession, Workload};
use checkmate_nexmark::{run_workload_live, Query, Skew};
use checkmate_runtime::{LiveConfig, LiveReport};
use checkmate_sim::{SimTime, SECONDS};
use std::time::{Duration, Instant};

/// The four protocols the paper evaluates, in report order.
pub const PROTOCOLS: [ProtocolKind; 4] = ProtocolKind::ALL_EVALUATED;

/// Suffix of the per-protocol metric names.
pub fn proto_tag(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::None => "none",
        ProtocolKind::Coordinated => "coor",
        ProtocolKind::Uncoordinated => "unc",
        ProtocolKind::CommunicationInduced => "cic",
        ProtocolKind::CommunicationInducedBcs => "bcs",
    }
}

/// Flood schedule: every record is due at t = 0, so the live runtime sets
/// the pace (the saturation / closed-loop equivalent).
pub const FLOOD: f64 = 1e9;

/// Simulated horizon of a bounded sim cell; the input drains long before.
const SIM_HORIZON: SimTime = 4 * 3600 * SECONDS;

/// Wall-clock cap of one live cell.
pub const LIVE_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    Q1,
    Q3,
    Q8,
    Q12,
    Cyclic,
}

impl Job {
    pub fn name(self) -> &'static str {
        match self {
            Job::Q1 => "Q1",
            Job::Q3 => "Q3",
            Job::Q8 => "Q8",
            Job::Q12 => "Q12",
            Job::Cyclic => "cyclic",
        }
    }

    /// Build graph and generators. `seed` goes to the generators and
    /// nowhere else.
    pub fn build(self, parallelism: u32, seed: u64, skewed: bool) -> Workload {
        let skew = if skewed { Skew::hot(0.3) } else { Skew::none() };
        match self {
            Job::Q1 => Query::Q1.workload(parallelism, seed, skew),
            Job::Q3 => Query::Q3.workload(parallelism, seed, skew),
            Job::Q8 => Query::Q8.workload(parallelism, seed, skew),
            Job::Q12 => Query::Q12.workload(parallelism, seed, skew),
            Job::Cyclic => reachability(parallelism, seed, DEFAULT_NODES),
        }
    }

    /// Whether the sink digest is a function of the input alone. Q8 and
    /// Q12 window on processing time, and the cyclic query (a join with
    /// deletions over a feedback loop) is not confluent: their output
    /// depends on the delivery interleaving, which protocol costs and
    /// recovery pauses legitimately shift. Those are checked for drain
    /// and a non-empty sink only.
    pub fn digest_stable(self) -> bool {
        matches!(self, Job::Q1 | Job::Q3)
    }
}

/// Outcome of one MST bisection cell (`regen_probe`).
#[derive(Debug, Clone, Copy)]
pub struct MstOutcome {
    /// Records per second the harness found sustainable; NaN when the
    /// benchmark's replay of the bisection did not land on it.
    pub rate: f64,
    /// Probe runs the bisection made.
    pub probes: u32,
}

/// Which plane ran a cell, and what it reported.
#[derive(Debug, Clone)]
pub enum Detail {
    Sim(Box<RunReport>),
    Live(Box<LiveReport>),
    Mst(MstOutcome),
}

#[derive(Debug, Clone)]
pub struct CellResult {
    pub job: Job,
    pub protocol: ProtocolKind,
    /// Bounded input records of the cell: limit × partitions × streams.
    pub records: u64,
    pub wall_s: f64,
    pub digest: Digest,
    pub detail: Detail,
}

impl CellResult {
    pub fn label(&self) -> String {
        format!("{}/{}", self.job.name(), proto_tag(self.protocol))
    }

    pub fn sim(&self) -> Option<&RunReport> {
        match &self.detail {
            Detail::Sim(r) => Some(r),
            _ => None,
        }
    }

    pub fn live(&self) -> Option<&LiveReport> {
        match &self.detail {
            Detail::Live(r) => Some(r),
            _ => None,
        }
    }

    pub fn mst(&self) -> Option<MstOutcome> {
        match &self.detail {
            Detail::Mst(m) => Some(*m),
            _ => None,
        }
    }
}

/// Shape of a virtual-time cell, protocol aside.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub job: Job,
    pub parallelism: u32,
    /// Records per second over all sources.
    pub total_rate: f64,
    /// Records per source partition.
    pub input_limit: u64,
    /// Kill worker 0 at this simulated instant.
    pub kill_at: Option<SimTime>,
}

impl SimShape {
    pub fn config(&self, protocol: ProtocolKind) -> EngineConfig {
        let base = EngineConfig::default();
        EngineConfig {
            parallelism: self.parallelism,
            protocol,
            total_rate: self.total_rate,
            checkpoint_interval: 5 * SECONDS,
            duration: SIM_HORIZON,
            input_limit: Some(self.input_limit),
            failure: self.kill_at.map(|at| FailureSpec {
                at,
                worker: WorkerId(0),
            }),
            // Cyclic recovery lines can reach back to the initial state,
            // so the experiment harness turns checkpoint GC off for the
            // cyclic query; the benchmark runs it the same way.
            checkpoint_retention: match self.job {
                Job::Cyclic => u64::MAX,
                _ => base.checkpoint_retention,
            },
            ..base
        }
    }

    pub fn run(
        &self,
        protocol: ProtocolKind,
        workload: &Workload,
        session: &mut RunSession,
        tracer: &mut Tracer,
    ) -> CellResult {
        let cfg = self.config(protocol);
        let start = Instant::now();
        let report = tracer.call("engine::RunSession::run", || session.run(workload, cfg));
        let wall_s = start.elapsed().as_secs_f64();
        CellResult {
            job: self.job,
            protocol,
            records: self.input_limit * self.parallelism as u64 * workload.streams.len() as u64,
            wall_s,
            digest: report.sink_digest,
            detail: Detail::Sim(Box::new(report)),
        }
    }
}

/// Shape of a live (threaded, wall-clock) cell, protocol aside.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    pub job: Job,
    pub parallelism: u32,
    pub records_per_partition: u64,
    pub checkpoint_interval: Duration,
    /// Kill worker 0 at these wall-clock instants (ms since run start).
    pub kills_ms: &'static [u64],
}

impl LiveShape {
    pub fn config(&self, protocol: ProtocolKind) -> LiveConfig {
        LiveConfig {
            parallelism: self.parallelism,
            protocol,
            records_per_partition: self.records_per_partition,
            checkpoint_interval: self.checkpoint_interval,
            timeout: LIVE_TIMEOUT,
            storm: (!self.kills_ms.is_empty()).then(|| FaultPlan {
                kills: self
                    .kills_ms
                    .iter()
                    .map(|ms| KillEvent {
                        at_ns: ms * 1_000_000,
                        worker: 0,
                    })
                    .collect(),
                ..FaultPlan::default()
            }),
            ..LiveConfig::default()
        }
    }

    pub fn run(
        &self,
        protocol: ProtocolKind,
        workload: &Workload,
        tracer: &mut Tracer,
    ) -> CellResult {
        let cfg = self.config(protocol);
        // Start from a trimmed heap, as a run in a process of its own
        // would. Otherwise the peak depends on which malloc arena the
        // threads of this cell inherit from the previous one: the same
        // pass peaks at 290 MB or at 470 MB, for minutes at a time.
        os::release_free_memory();
        let start = Instant::now();
        let report = tracer.call("nexmark::run_workload_live", || {
            run_workload_live(workload, FLOOD, cfg)
        });
        let wall_s = start.elapsed().as_secs_f64();
        CellResult {
            job: self.job,
            protocol,
            records: self.records_per_partition
                * self.parallelism as u64
                * workload.streams.len() as u64,
            wall_s,
            digest: report.sink_digest,
            detail: Detail::Live(Box::new(report)),
        }
    }
}

/// Outcome of the output checks: operations are cells, a cell that fails
/// any check is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one operation; `problems` empty means it passed.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.messages.push(format!("{what}: {p}"));
            }
        }
    }
}

/// What a cell is compared against: the failure-free NONE run of the same
/// job at the same (seed, parallelism, limit).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub job: Job,
    pub digest: Digest,
}

/// Every check on one cell. `recoveries` is the number of completed
/// recovery episodes a killed live cell must report. Returns the problems
/// found.
pub fn check_cell(
    cell: &CellResult,
    reference: Option<&Reference>,
    recoveries: Option<u64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    match &cell.detail {
        Detail::Sim(r) => {
            if r.outcome != Outcome::Drained {
                problems.push(format!("outcome {:?}, expected Drained", r.outcome));
            }
        }
        Detail::Live(r) => {
            if r.elapsed >= LIVE_TIMEOUT {
                problems.push(format!("hit the {LIVE_TIMEOUT:?} timeout"));
            }
            if let Some(want) = recoveries {
                if r.recoveries != want {
                    problems.push(format!("recoveries {} != {want}", r.recoveries));
                }
                if cell.protocol.logs_messages() && r.replayed == 0 {
                    problems.push("logging protocol replayed nothing after a kill".to_string());
                }
            }
        }
        Detail::Mst(m) => {
            // Nothing else to check: an MST cell has no sink.
            if !m.rate.is_finite() {
                problems.push("bisection replay did not land on the harness's MST".to_string());
            }
            return problems;
        }
    }
    if cell.digest.count == 0 {
        problems.push("empty sink".to_string());
    }
    // Q1 is a 1:1 map: the sink count is the input count exactly.
    if cell.job == Job::Q1 && cell.digest.count != cell.records {
        problems.push(format!(
            "sink count {} != input records {}",
            cell.digest.count, cell.records
        ));
    }
    if let (true, Some(r)) = (cell.job.digest_stable(), reference) {
        assert_eq!(r.job, cell.job, "reference of another job");
        if cell.digest != r.digest {
            problems.push(format!(
                "digest {:016x}/{} != failure-free NONE {:016x}/{}",
                cell.digest.acc, cell.digest.count, r.digest.acc, r.digest.count
            ));
        }
    }
    problems
}

/// FNV-1a over the serialised reports of a pass: `sim_fingerprint`.
pub fn fingerprint(reports: &[Vec<u8>]) -> u64 {
    let mut h = FNV_OFFSET;
    for bytes in reports {
        fnv1a_update(&mut h, bytes);
    }
    h
}
