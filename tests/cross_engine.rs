//! Cross-engine validation: the virtual-time engine and the threaded
//! wall-clock engine run the same operators, the same protocol state
//! machines, and the same bounded input — their sink digests must agree
//! bit-for-bit, with and without failures.

use checkmate::core::{BrownoutWindow, FaultPlan, KillEvent, ProtocolKind};
use checkmate::dataflow::ops::{DigestSinkOp, KeyedCounterOp, PassThroughOp};
use checkmate::dataflow::{EdgeKind, GraphBuilder, LogicalGraph, WorkerId};
use checkmate::engine::{Engine, EngineConfig, FailureSpec};
use checkmate::nexmark::BidStream;
use checkmate::runtime::{run_live, LiveConfig};
use checkmate::wal::EventStream;
use std::sync::Arc;
use std::time::Duration;

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;
const PARALLELISM: u32 = 3;
const LIMIT: u64 = 1_200;

fn graph() -> LogicalGraph {
    let mut b = GraphBuilder::new();
    let src = b.source("src", 0, 120_000, Arc::new(|_| Box::new(PassThroughOp)));
    let cnt = b.op(
        "count",
        220_000,
        Arc::new(|_| Box::new(KeyedCounterOp::new())),
    );
    let sink = b.sink("sink", 90_000, Arc::new(|_| Box::new(DigestSinkOp::new())));
    b.connect(src, cnt, EdgeKind::Shuffle);
    b.connect(cnt, sink, EdgeKind::Forward);
    b.build().unwrap()
}

fn stream() -> Arc<dyn EventStream> {
    Arc::new(BidStream::new(PARALLELISM, 99, None))
}

fn virtual_digest(protocol: ProtocolKind, fail: bool) -> checkmate::dataflow::ops::Digest {
    let workload = checkmate::engine::workload::Workload {
        name: "cross".into(),
        graph: graph(),
        streams: vec![checkmate::engine::workload::StreamSpec {
            stream: stream(),
            rate_share: 1.0,
        }],
    };
    let cfg = EngineConfig {
        parallelism: PARALLELISM,
        protocol,
        total_rate: 1_500.0 * PARALLELISM as f64,
        checkpoint_interval: SEC,
        duration: 120 * SEC,
        warmup: SEC,
        input_limit: Some(LIMIT),
        failure: fail.then_some(FailureSpec {
            at: SEC,
            worker: WorkerId(1),
        }),
        ..EngineConfig::default()
    };
    let r = Engine::new(&workload, cfg).run();
    assert_eq!(
        r.sink_digest.count,
        LIMIT * PARALLELISM as u64,
        "virtual engine did not process the whole bounded input: {}",
        r.summary()
    );
    r.sink_digest
}

fn live_digest(protocol: ProtocolKind, kill: Option<u32>) -> checkmate::dataflow::ops::Digest {
    let r = run_live(
        &graph(),
        vec![stream()],
        LiveConfig {
            parallelism: PARALLELISM,
            protocol,
            rate_per_partition: 3_000.0,
            records_per_partition: LIMIT,
            checkpoint_interval: Duration::from_millis(120),
            kill_worker: kill,
            timeout: Duration::from_secs(60),
            ..LiveConfig::default()
        },
    );
    assert_eq!(r.sink_digest.count, LIMIT * PARALLELISM as u64);
    r.sink_digest
}

#[test]
fn virtual_and_live_engines_agree_failure_free() {
    let v = virtual_digest(ProtocolKind::Coordinated, false);
    let l = live_digest(ProtocolKind::Coordinated, None);
    assert_eq!(v, l, "engines disagree on identical bounded input");
}

/// The same [`FaultPlan`] — three overlapping kills plus a storage
/// brownout — fed to both engines. The kills hit different phases of
/// each run (virtual vs wall clock), which is the point: exactly-once
/// means every recovery converges on the same bounded-input digest.
#[test]
fn virtual_and_live_engines_agree_under_failure_storm() {
    let plan = FaultPlan {
        seed: 0,
        kills: vec![
            KillEvent {
                at_ns: 300 * MS,
                worker: 0,
            },
            KillEvent {
                at_ns: 350 * MS,
                worker: 1,
            },
            KillEvent {
                at_ns: 520 * MS,
                worker: 2,
            },
        ],
        stragglers: Vec::new(),
        brownouts: vec![BrownoutWindow {
            from_ns: 450 * MS,
            until_ns: 700 * MS,
            put_fail_p: 0.5,
            get_fail_p: 0.2,
            extra_latency_ns: MS,
        }],
    };
    let reference = virtual_digest(ProtocolKind::Uncoordinated, false);

    let workload = checkmate::engine::workload::Workload {
        name: "cross-storm".into(),
        graph: graph(),
        streams: vec![checkmate::engine::workload::StreamSpec {
            stream: stream(),
            rate_share: 1.0,
        }],
    };
    let v = Engine::new(
        &workload,
        EngineConfig {
            parallelism: PARALLELISM,
            protocol: ProtocolKind::Uncoordinated,
            total_rate: 1_500.0 * PARALLELISM as f64,
            checkpoint_interval: SEC,
            duration: 120 * SEC,
            warmup: SEC,
            input_limit: Some(LIMIT),
            storm: Some(plan.clone()),
            ..EngineConfig::default()
        },
    )
    .run();
    assert!(
        v.recoveries >= 1,
        "virtual storm never recovered: {}",
        v.summary()
    );
    assert_eq!(
        v.sink_digest,
        reference,
        "virtual engine diverged under storm: {}",
        v.summary()
    );

    let l = run_live(
        &graph(),
        vec![stream()],
        LiveConfig {
            parallelism: PARALLELISM,
            protocol: ProtocolKind::Uncoordinated,
            rate_per_partition: 1_500.0,
            records_per_partition: LIMIT,
            checkpoint_interval: Duration::from_millis(120),
            storm: Some(plan),
            timeout: Duration::from_secs(60),
            ..LiveConfig::default()
        },
    );
    assert!(
        l.recoveries >= 1,
        "live storm never recovered: {}",
        l.summary()
    );
    assert_eq!(
        l.sink_digest,
        reference,
        "live runtime diverged under storm: {}",
        l.summary()
    );
}

#[test]
fn virtual_and_live_engines_agree_across_failures() {
    // Failures at different (virtual vs wall-clock) instants, different
    // engines — exactly-once means the digests still all match.
    let reference = virtual_digest(ProtocolKind::Uncoordinated, false);
    assert_eq!(virtual_digest(ProtocolKind::Uncoordinated, true), reference);
    assert_eq!(live_digest(ProtocolKind::Uncoordinated, Some(0)), reference);
    assert_eq!(
        virtual_digest(ProtocolKind::CommunicationInduced, true),
        reference
    );
}

/// The protocol data-plane knob — staged shared-log appends
/// (`buffered_logs`) — is a transport choice, not semantics: under one
/// shared config both the staged and the locked-oracle live digest
/// match the virtual-time engine bit for bit.
#[test]
fn live_transport_ablation_agrees_with_virtual_engine() {
    let reference = virtual_digest(ProtocolKind::Uncoordinated, false);
    for buffered in [true, false] {
        let r = run_live(
            &graph(),
            vec![stream()],
            LiveConfig {
                parallelism: PARALLELISM,
                protocol: ProtocolKind::Uncoordinated,
                rate_per_partition: 3_000.0,
                records_per_partition: LIMIT,
                checkpoint_interval: Duration::from_millis(120),
                timeout: Duration::from_secs(60),
                buffered_logs: buffered,
                ..LiveConfig::default()
            },
        );
        assert_eq!(
            r.sink_digest,
            reference,
            "buffered={buffered}: live transport diverged \
             from the virtual engine: {}",
            r.summary()
        );
    }
}
