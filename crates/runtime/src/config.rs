//! Live-run configuration.
//!
//! [`LiveConfig`] is the single knob surface of the threaded runtime:
//! protocol and parallelism, the input shape (per-partition rates,
//! bounded record counts, optional per-stream rate overrides so
//! multi-stream workloads can mirror the virtual-time engine's
//! `rate_share` split), checkpointing cadence and storage, the scripted
//! failure, and the data-plane envelope (bounded inbox capacity, wire
//! batch cap, source poll burst). Defaults match the historical
//! single-file runtime so existing callers behave identically.

use checkmate_core::{FaultPlan, IncrementalPolicy, ProtocolKind};
use checkmate_storage::SharedStore;
use std::time::Duration;

/// Wall-clock run configuration.
#[derive(Clone)]
pub struct LiveConfig {
    pub parallelism: u32,
    pub protocol: ProtocolKind,
    /// Records per second per source partition (every stream, unless
    /// overridden per stream via [`LiveConfig::stream_rates`]).
    pub rate_per_partition: f64,
    /// Per-stream rate overrides (records/s per partition); stream `i`
    /// uses `stream_rates[i]` when present, `rate_per_partition`
    /// otherwise. Lets live runs reproduce the virtual-time engine's
    /// `total_rate × rate_share / parallelism` split exactly, which the
    /// live-vs-engine digest oracles rely on.
    pub stream_rates: Vec<f64>,
    /// Records per partition (the run ends when everything is processed).
    pub records_per_partition: u64,
    /// Checkpoint interval (wall clock).
    pub checkpoint_interval: Duration,
    /// Kill this worker once it has processed some records, then recover.
    /// The legacy single-kill knob; internally converted to a one-kill
    /// [`FaultPlan`]. Mutually exclusive with [`LiveConfig::storm`].
    pub kill_worker: Option<u32>,
    /// Deterministic multi-fault schedule: correlated and repeated
    /// worker kills (including kills landing mid-recovery), per-worker
    /// straggler slowdown windows, and storage brownout windows — all
    /// wall-clock anchored at run start. Kills are injected at their
    /// scheduled instants and *detected* by heartbeat silence; brownout
    /// windows wrap the default in-memory store in a
    /// [`checkmate_storage::PerturbedBackend`] (incompatible with a
    /// caller-supplied [`LiveConfig::store`]).
    pub storm: Option<FaultPlan>,
    /// Hard wall-clock cap.
    pub timeout: Duration,
    /// Durable store to checkpoint into. `None` = a fresh in-memory
    /// store; pass a `FileBackend`-backed store for durability across
    /// process restarts, or a `PerturbedBackend` for storage-stress
    /// scenarios.
    pub store: Option<SharedStore>,
    /// Incremental (chunked) checkpoints; `None` = whole snapshots.
    pub incremental: Option<IncrementalPolicy>,
    /// Bounded per-worker inbox capacity (messages). A full inbox makes
    /// `try_push` fail, which parks the wire in the sender's
    /// `out_pending` queue and stops that sender's source polling until
    /// the backlog drains — backpressure instead of unbounded queue
    /// growth. Control, recovery replay, self-sends and feedback-cycle
    /// wires bypass the bound (see `inbox.rs`).
    pub inbox_capacity: usize,
    /// Max records coalesced into one `Wire::DataBatch` before the
    /// sender starts a fresh batch (bounds per-message latency and the
    /// receiver's control-responsiveness).
    pub batch_max: usize,
    /// Max records polled from each source partition per worker loop
    /// iteration (source read burst; amortizes loop overhead when the
    /// input is ahead of the pipeline).
    pub source_batch: u32,
    /// Sequential admission: a worker only polls a source record when
    /// its local pipeline is fully drained (empty inbox, no stashed or
    /// parked wires), and at most one per loop iteration — so every
    /// record's cascade (feedback loops included) completes before the
    /// next record enters, even when a recovery pause left a wall-clock
    /// backlog. At `parallelism = 1` and tie-free schedule rates this
    /// pins the delivery interleaving to schedule order — the same order
    /// the virtual-time engine produces — making non-confluent workloads
    /// (the cyclic reachability join with deletions) digest-comparable
    /// against the engine oracle. Costs throughput; leave off outside
    /// oracle tests.
    pub strict_source_order: bool,
    /// Stage protocol-log appends (channel payloads and delivery
    /// determinants) in sender-local arenas and publish them to the
    /// shared logs in bulk at the flush boundaries the wire protocol
    /// already enforces, instead of taking a shared-log mutex on every
    /// append (see `checkmate_wal::staging`). `false` selects the
    /// historical one-lock-per-append path, kept as a correctness
    /// oracle: both modes must produce bit-identical sink digests and
    /// identical replay behavior under any failure schedule.
    pub buffered_logs: bool,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            parallelism: 2,
            protocol: ProtocolKind::Coordinated,
            rate_per_partition: 2_000.0,
            stream_rates: Vec::new(),
            records_per_partition: 2_000,
            checkpoint_interval: Duration::from_millis(150),
            kill_worker: None,
            storm: None,
            timeout: Duration::from_secs(30),
            store: None,
            incremental: None,
            inbox_capacity: 4_096,
            batch_max: 256,
            source_batch: 128,
            strict_source_order: false,
            buffered_logs: true,
        }
    }
}

impl LiveConfig {
    /// Input rate (records/s per partition) of stream `stream`.
    pub fn stream_rate(&self, stream: usize) -> f64 {
        self.stream_rates
            .get(stream)
            .copied()
            .unwrap_or(self.rate_per_partition)
    }

    /// Wall-clock window over which the bounded input arrives: the
    /// slowest stream's `records / rate`. When `stream_rates` is set it
    /// is assumed to cover every stream; otherwise the uniform
    /// `rate_per_partition` bounds the window.
    pub fn expected_input_window(&self) -> Duration {
        let slowest = if self.stream_rates.is_empty() {
            self.rate_per_partition
        } else {
            self.stream_rates
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        };
        Duration::from_secs_f64(self.records_per_partition as f64 / slowest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rate_falls_back_to_uniform() {
        let cfg = LiveConfig {
            rate_per_partition: 500.0,
            stream_rates: vec![100.0],
            ..LiveConfig::default()
        };
        assert_eq!(cfg.stream_rate(0), 100.0);
        assert_eq!(cfg.stream_rate(1), 500.0);
    }

    #[test]
    fn expected_window_tracks_slowest_stream() {
        let cfg = LiveConfig {
            rate_per_partition: 1_000.0,
            stream_rates: vec![1_000.0, 250.0],
            records_per_partition: 500,
            ..LiveConfig::default()
        };
        assert_eq!(cfg.expected_input_window(), Duration::from_secs(2));
    }
}
