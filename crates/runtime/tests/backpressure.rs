//! Bounded-inbox backpressure under a deliberately slow sink.
//!
//! A sink that burns wall-clock time per record makes its worker the
//! bottleneck: every peer's sends bounce once that inbox fills, park in
//! the senders' `out_pending` queues, and stop the senders' source
//! polling. The proof obligations:
//!
//! - the run still completes exactly-once (every input record sinks);
//! - inbox depth stays bounded: at most `inbox_capacity` from bounded
//!   pushes plus one source burst of forced self-sends;
//! - backpressure actually engaged (the bound was hit, senders parked).

use checkmate_core::ProtocolKind;
use checkmate_dataflow::ops::{Digest, PassThroughOp};
use checkmate_dataflow::{
    DecodeError, EdgeKind, GraphBuilder, OpCtx, Operator, PortId, Record, Value,
};
use checkmate_runtime::{run_live, LiveConfig};
use checkmate_wal::EventStream;
use std::sync::Arc;
use std::time::Duration;

/// A digest sink that spins for a fixed wall-clock time per record.
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

/// An eager bounded stream: every record available from t = 0, so the
/// sources outrun the sink immediately.
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

#[test]
fn slow_sink_bounds_inbox_memory_and_loses_nothing() {
    const PARALLELISM: u32 = 3;
    const LIMIT: u64 = 1_500;
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

    // The safety properties (exactly-once, bounded depth) must hold on
    // every run; whether an inbox actually *fills* depends on the OS
    // scheduler giving the producers a head start, so the engagement
    // check tolerates a couple of pathological schedules.
    let mut last = None;
    for _attempt in 0..3 {
        let r = run_live(
            &graph,
            vec![Arc::new(FloodStream {
                partitions: PARALLELISM,
            })],
            LiveConfig {
                parallelism: PARALLELISM,
                protocol: ProtocolKind::Uncoordinated,
                // Input due immediately; the sink (~50 µs/record) is
                // the bottleneck, not the schedule.
                rate_per_partition: 1_000_000.0,
                records_per_partition: LIMIT,
                checkpoint_interval: Duration::from_millis(200),
                timeout: Duration::from_secs(60),
                inbox_capacity: CAPACITY,
                // One record per wire: inbox depth then counts records,
                // so the capacity bound is a direct memory bound and the
                // slow sink reliably fills its inbox (with coalescing on,
                // a handful of big batches can carry the whole backlog
                // without ever holding `capacity` wires at once).
                batch_max: 1,
                source_batch: SOURCE_BATCH,
                ..LiveConfig::default()
            },
        );

        assert_eq!(
            r.sink_digest.count,
            LIMIT * PARALLELISM as u64,
            "exactly-once despite sustained backpressure: {}",
            r.summary()
        );
        // Bounded pushes respect the capacity; the only overshoot
        // allowed is one burst of forced self-sends from the inbox
        // owner's own sources (admission is gated on `len < capacity`
        // before each burst).
        let bound = CAPACITY + SOURCE_BATCH as usize;
        assert!(
            r.max_inbox_depth <= bound,
            "inbox ballooned: depth {} > bound {bound}",
            r.max_inbox_depth
        );
        let engaged = r.max_inbox_depth >= CAPACITY && r.max_out_pending > 0;
        last = Some(r);
        if engaged {
            return;
        }
    }
    panic!(
        "backpressure never engaged in 3 runs (no full inbox + parked wire): {}",
        last.expect("ran at least once").summary()
    );
}
