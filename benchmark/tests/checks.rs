//! Every output check must fire on a deliberately corrupted result: a
//! check that cannot fail protects nothing.

use checkmate_benchmark::cells::{
    check_cell, CellResult, Checks, Detail, Job, LiveShape, MstOutcome, Reference, SimShape,
    LIVE_TIMEOUT,
};
use checkmate_benchmark::trace::Tracer;
use checkmate_benchmark::workloads::{check_reproduces, Kind};
use checkmate_core::ProtocolKind;
use checkmate_dataflow::ops::Digest;
use checkmate_engine::{Outcome, RunSession};
use std::time::Duration;

const SEED: u64 = 5;

fn sim_cell(job: Job) -> CellResult {
    let workload = job.build(2, SEED, false);
    SimShape {
        job,
        parallelism: 2,
        total_rate: 2_000.0,
        input_limit: 300,
        kill_at: None,
    }
    .run(
        ProtocolKind::Uncoordinated,
        &workload,
        &mut RunSession::new(),
        &mut Tracer::new(false),
    )
}

/// A live UNC cell killed twice mid-flight.
fn killed_live_cell() -> CellResult {
    let workload = Job::Q1.build(1, SEED, false);
    LiveShape {
        job: Job::Q1,
        parallelism: 1,
        records_per_partition: 100_000,
        checkpoint_interval: Duration::from_millis(20),
        kills_ms: &[30, 60],
    }
    .run(
        ProtocolKind::Uncoordinated,
        &workload,
        &mut Tracer::new(false),
    )
}

fn reference_of(cell: &CellResult) -> Reference {
    Reference {
        job: cell.job,
        digest: cell.digest,
    }
}

const TWO_RECOVERIES: Option<u64> = Some(2);

#[test]
fn sim_checks_fire() {
    let good = sim_cell(Job::Q1);
    let reference = reference_of(&good);
    assert_eq!(
        check_cell(&good, Some(&reference), None),
        Vec::<String>::new()
    );

    // Not drained.
    let mut bad = good.clone();
    let Detail::Sim(report) = &mut bad.detail else {
        unreachable!("sim cell")
    };
    report.outcome = Outcome::Completed;
    assert!(check_cell(&bad, Some(&reference), None)[0].contains("Drained"));

    // One record lost: Q1's sink count no longer equals its input, and
    // the digest no longer equals the reference.
    let mut bad = good.clone();
    bad.digest.count -= 1;
    let problems = check_cell(&bad, Some(&reference), None);
    assert!(problems.iter().any(|p| p.contains("sink count")));
    assert!(problems.iter().any(|p| p.contains("failure-free NONE")));

    // Right count, wrong content (also what a cross-plane mismatch is:
    // the other plane's digest is the reference).
    let mut bad = good.clone();
    bad.digest.acc ^= 1;
    let problems = check_cell(&bad, Some(&reference), None);
    assert_eq!(problems.len(), 1);
    assert!(problems[0].contains("failure-free NONE"));

    // Nothing reached the sink.
    let mut bad = good.clone();
    bad.digest = Digest::default();
    assert!(check_cell(&bad, None, None)
        .iter()
        .any(|p| p.contains("empty sink")));

    // Q8 windows on processing time: its digest is not compared, so a
    // different digest passes while an undrained run still fails.
    let q8 = sim_cell(Job::Q8);
    let mut other = reference_of(&q8);
    other.digest.acc ^= 1;
    assert!(check_cell(&q8, Some(&other), None).is_empty());
}

#[test]
fn live_checks_fire() {
    let good = killed_live_cell();
    let reference = reference_of(&good);
    assert_eq!(
        check_cell(&good, Some(&reference), TWO_RECOVERIES),
        Vec::<String>::new()
    );
    let corrupt = |f: &dyn Fn(&mut checkmate_runtime::LiveReport)| {
        let mut bad = good.clone();
        let Detail::Live(report) = &mut bad.detail else {
            unreachable!("live cell")
        };
        f(report);
        check_cell(&bad, Some(&reference), TWO_RECOVERIES)
    };
    assert!(corrupt(&|r| r.elapsed = LIVE_TIMEOUT)[0].contains("timeout"));
    assert!(corrupt(&|r| r.recoveries = 1)[0].contains("recoveries 1 != 2"));
    assert!(corrupt(&|r| r.replayed = 0)[0].contains("replayed nothing"));

    let mut bad = good.clone();
    bad.digest.count += 1;
    assert!(check_cell(&bad, Some(&reference), TWO_RECOVERIES)
        .iter()
        .any(|p| p.contains("sink count")));
}

#[test]
fn mst_and_reproducibility_checks_fire() {
    let cell = |rate| CellResult {
        job: Job::Q1,
        protocol: ProtocolKind::None,
        records: 1,
        wall_s: 1.0,
        digest: Digest::default(),
        detail: Detail::Mst(MstOutcome { rate, probes: 7 }),
    };
    assert!(check_cell(&cell(5_000.0), None, None).is_empty());
    assert!(check_cell(&cell(f64::NAN), None, None)[0].contains("replay"));

    let first = vec![vec![1u8, 2, 3], vec![4]];
    let mut checks = Checks::default();
    check_reproduces(Kind::SimSteady, &first, &first, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (1, 0));
    let mut again = first.clone();
    again[1][0] ^= 1;
    check_reproduces(Kind::SimSteady, &first, &again, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    assert!(checks.messages[0].contains("sim_fingerprint"));
}
