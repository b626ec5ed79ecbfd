//! Live (threaded, wall-clock) engine tests: the same exactly-once
//! guarantees as the virtual-time engine, on real threads.

use checkmate_core::ProtocolKind;
use checkmate_dataflow::ops::{DigestSinkOp, KeyedCounterOp, PassThroughOp};
use checkmate_dataflow::{EdgeKind, GraphBuilder, LogicalGraph, Record, Value};
use checkmate_runtime::{run_live, LiveConfig};
use checkmate_wal::EventStream;
use std::sync::Arc;
use std::time::Duration;

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

fn cfg(protocol: ProtocolKind, kill: Option<u32>) -> LiveConfig {
    LiveConfig {
        parallelism: 3,
        protocol,
        rate_per_partition: 3_000.0,
        records_per_partition: 1_500,
        checkpoint_interval: Duration::from_millis(120),
        kill_worker: kill,
        timeout: Duration::from_secs(60),
        ..LiveConfig::default()
    }
}

fn streams() -> Vec<Arc<dyn EventStream>> {
    vec![Arc::new(TestStream { partitions: 3 })]
}

#[test]
fn live_failure_free_all_protocols_agree() {
    let graph = counting_graph();
    let mut digests = Vec::new();
    for p in ProtocolKind::ALL_EVALUATED {
        let r = run_live(&graph, streams(), cfg(p, None));
        assert!(
            r.sink_digest.count >= 1_500 * 3,
            "{p}: sink digest count {} (records {})",
            r.sink_digest.count,
            r.sink_records
        );
        if p != ProtocolKind::None {
            assert!(r.checkpoints > 0, "{p}: no checkpoints");
        }
        digests.push((p, r.sink_digest));
    }
    for (p, d) in &digests[1..] {
        assert_eq!(*d, digests[0].1, "{p} digest differs from baseline");
    }
}

#[test]
fn live_exactly_once_under_failure_coordinated() {
    live_exactly_once(ProtocolKind::Coordinated);
}

#[test]
fn live_exactly_once_under_failure_uncoordinated() {
    live_exactly_once(ProtocolKind::Uncoordinated);
}

#[test]
fn live_exactly_once_under_failure_cic() {
    live_exactly_once(ProtocolKind::CommunicationInduced);
}

fn live_exactly_once(protocol: ProtocolKind) {
    let graph = counting_graph();
    let clean = run_live(&graph, streams(), cfg(protocol, None));
    let failed = run_live(&graph, streams(), cfg(protocol, Some(1)));
    assert!(failed.recovered, "{protocol}: recovery did not run");
    assert_eq!(
        failed.sink_digest, clean.sink_digest,
        "{protocol}: live exactly-once violated (clean {} records, failed {})",
        clean.sink_records, failed.sink_records
    );
}

#[test]
#[should_panic(expected = "deadlocks on cyclic")]
fn live_refuses_coordinated_on_cyclic_graph() {
    // Cycle construction requires a feedback edge; use a minimal loop.
    let mut b = GraphBuilder::new();
    let src = b.source("src", 0, 0, Arc::new(|_| Box::new(PassThroughOp)));
    let a = b.op("a", 0, Arc::new(|_| Box::new(PassThroughOp)));
    let c = b.op("c", 0, Arc::new(|_| Box::new(PassThroughOp)));
    let sink = b.sink("sink", 0, Arc::new(|_| Box::new(DigestSinkOp::new())));
    b.connect(src, a, EdgeKind::Forward);
    b.connect(a, c, EdgeKind::Forward);
    b.connect_port(c, a, EdgeKind::Feedback, checkmate_dataflow::PortId(1));
    b.connect(c, sink, EdgeKind::Forward);
    let graph = b.build().unwrap();
    run_live(&graph, streams(), cfg(ProtocolKind::Coordinated, None));
}
