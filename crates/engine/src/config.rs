//! Engine run configuration.

use crate::state::ArrivalIndex;
use checkmate_core::{FaultPlan, IncrementalPolicy, ProtocolKind};
use checkmate_dataflow::WorkerId;
use checkmate_sim::{CostModel, QueueBackend, SimTime, MILLIS, SECONDS};
use checkmate_storage::StorageProfile;

/// A failure to inject: kill `worker` at `at` (virtual time). The paper
/// introduces a failure on the 18th second of each 60-second run (§VII-A).
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    pub at: SimTime,
    pub worker: WorkerId,
}

/// How checkpoint snapshots are produced on this run.
///
/// Recovery is the only reader of checkpoint state, so a run that
/// provably never recovers (no failure injected) can charge every
/// snapshot's *exact* encoded size — `Operator::snapshot_len` plus the
/// instance envelope — without serializing operator state at all, and
/// upload a same-length placeholder so every store-side quantity
/// (`state_bytes`, PUT/GC byte accounting, live footprint) is identical
/// bit-for-bit. This mirrors the sized-only channel logs: a host-side
/// optimization with no modeled effect, property-tested against the
/// full-encode oracle in `engine/tests/session_equivalence.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Sized-only accounting when safe (no failure injected and no
    /// incremental policy), full encoding otherwise.
    #[default]
    Auto,
    /// Always serialize and upload real snapshot bytes — the
    /// equivalence oracle (and the paper's literal behaviour).
    Full,
    /// Request sized-only accounting. Runs that inject failures or use
    /// incremental (chunked) checkpoints are demoted to full encoding —
    /// recovery and content-defined chunking must read real bytes — so
    /// this can never corrupt a recovery.
    SizedOnly,
}

impl SnapshotMode {
    /// Resolve the mode for a concrete run: may this run skip
    /// materializing snapshot bytes?
    pub fn sized_for(self, failure_injected: bool, incremental: bool) -> bool {
        match self {
            SnapshotMode::Full => false,
            SnapshotMode::Auto | SnapshotMode::SizedOnly => !failure_injected && !incremental,
        }
    }
}

/// Full configuration of one engine run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Uniform operator parallelism = number of workers.
    pub parallelism: u32,
    /// Checkpointing protocol under evaluation.
    pub protocol: ProtocolKind,
    /// Calibrated resource costs (CPU, network, control plane).
    pub cost: CostModel,
    /// Declared performance of the durable checkpoint store — one flat
    /// object store, as in the paper. The engine prices every checkpoint
    /// PUT and recovery GET from this profile —
    /// storage-sensitivity sweeps swap it for `StorageProfile::ram()`,
    /// `local_ssd()`, `s3_wan()`, … The default matches the cost-model
    /// constants the engine historically used (MinIO over the LAN).
    pub storage: StorageProfile,
    /// Incremental (chunked) checkpoints: `Some(policy)` splits each
    /// snapshot into content-defined chunks and uploads only the chunks
    /// changed since the instance's previous checkpoint, with periodic
    /// full rebases. `None` uploads whole snapshots (the paper's
    /// behaviour).
    pub incremental: Option<IncrementalPolicy>,
    /// Total input rate in records/second, split across source streams by
    /// their `rate_share` and then across partitions.
    pub total_rate: f64,
    /// COOR round interval; also the UNC/CIC local checkpoint interval, so
    /// checkpoint counts stay comparable across protocols (Table III).
    pub checkpoint_interval: SimTime,
    /// Relative jitter applied to UNC/CIC local timers (operators
    /// checkpoint independently; their timers are deliberately unaligned).
    pub checkpoint_jitter: f64,
    /// Virtual run duration.
    pub duration: SimTime,
    /// Metrics before this instant are discarded (warm-up).
    pub warmup: SimTime,
    /// Optional injected failure. The legacy single-kill knob (paper
    /// §VII-A); runs alongside `storm` — both contribute kills.
    pub failure: Option<FailureSpec>,
    /// Optional deterministic multi-fault schedule: correlated and
    /// repeated worker kills, per-worker straggler windows, and storage
    /// brownout windows, all modeled in virtual time. Same plan ⇒ same
    /// simulated timeline, bit for bit.
    pub storm: Option<FaultPlan>,
    /// Bound each source partition to this many records (None = unbounded).
    /// Bounded runs end early once everything is processed; used by the
    /// exactly-once verification tests.
    pub input_limit: Option<u64>,
    /// Source consumer batching interval (Kafka poll/linger). Records
    /// become readable in bursts of `rate × batch`; this is what gives the
    /// testbed its realistic queue depths — and what makes coordinated
    /// markers wait behind data at scale. 0 disables batching.
    pub source_batch: SimTime,
    /// RNG seed; same config + same seed ⇒ bit-identical run.
    pub seed: u64,
    /// How many checkpoints per instance the store retains (older state
    /// objects and the channel-log ranges they pin are garbage collected).
    pub checkpoint_retention: u64,
    /// Recovery is declared complete when the worst source backlog returns
    /// below `steady_lag × this factor + 250 ms` (see RunReport).
    pub recovery_lag_factor: f64,
    /// Alignment stall duration after which the coordinator declares a
    /// marker deadlock (only ever fires on cyclic graphs under COOR).
    pub deadlock_timeout: SimTime,
    /// Safety valve: abort after this many simulation events.
    pub max_events: u64,
    /// Deliver same-task sends to a worker as one batched arrival event
    /// instead of one event per message. Purely a host-side optimization:
    /// every message keeps its own arrival instant and queue position, so
    /// the simulated timeline is identical either way (property-tested in
    /// `engine/tests/batching_equivalence.rs`). Off = the historical
    /// one-event-per-message data plane, kept as the equivalence oracle.
    pub data_batching: bool,
    /// Event-queue implementation. `Ladder` (default) is the O(1)-amortized
    /// ladder/calendar queue; `Heap` is the original binary heap, kept as
    /// the equivalence oracle (the pop order — and therefore the whole
    /// simulated timeline — is identical; property-tested in
    /// `engine/tests/queue_equivalence.rs`).
    pub event_queue: QueueBackend,
    /// Per-worker arrival-queue index. `Calendar` (default) is the
    /// ladder/calendar ordered map (O(1) amortized insert/pop on the
    /// arrival pattern); `BTree` is the original `BTreeMap` index, kept
    /// as the equivalence oracle (the delivery order — and therefore the
    /// whole simulated timeline — is identical; property-tested in
    /// `engine/tests/arrival_equivalence.rs`).
    pub arrival_index: ArrivalIndex,
    /// Snapshot production mode (see [`SnapshotMode`]): `Auto` skips
    /// snapshot encoding on failure-free runs with exact-size
    /// accounting; `Full` keeps the materializing path as the oracle.
    pub snapshot_mode: SnapshotMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            parallelism: 2,
            protocol: ProtocolKind::Coordinated,
            cost: CostModel::default(),
            storage: StorageProfile::minio_lan(),
            incremental: None,
            total_rate: 1_000.0,
            checkpoint_interval: 5 * SECONDS,
            checkpoint_jitter: 0.2,
            duration: 20 * SECONDS,
            warmup: 5 * SECONDS,
            failure: None,
            storm: None,
            input_limit: None,
            source_batch: 100 * MILLIS,
            seed: 0xC0FFEE,
            checkpoint_retention: 8,
            recovery_lag_factor: 1.5,
            deadlock_timeout: 5 * SECONDS,
            max_events: 500_000_000,
            data_batching: true,
            event_queue: QueueBackend::Ladder,
            arrival_index: ArrivalIndex::Calendar,
            snapshot_mode: SnapshotMode::Auto,
        }
    }
}

impl EngineConfig {
    /// Convenience: the paper's standard run shape — 60 s, 30 s warmup,
    /// failure at 18 s on worker 0 when `fail` is set.
    pub fn paper_run(parallelism: u32, protocol: ProtocolKind, fail: bool) -> Self {
        Self {
            parallelism,
            protocol,
            duration: 60 * SECONDS,
            warmup: 30 * SECONDS,
            failure: fail.then_some(FailureSpec {
                at: 18 * SECONDS,
                worker: WorkerId(0),
            }),
            ..Self::default()
        }
    }

    pub fn with_rate(mut self, total_rate: f64) -> Self {
        self.total_rate = total_rate;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any failure will be injected on this run — the legacy
    /// single kill or any storm kill. Gates replayable channel logs,
    /// snapshot materialization, and determinant logging.
    pub fn failure_injected(&self) -> bool {
        self.failure.is_some() || self.storm.as_ref().is_some_and(FaultPlan::has_kills)
    }

    /// Every kill this run injects — the legacy `failure` spec plus the
    /// storm plan's kills — as `(at, worker)` pairs sorted by time.
    pub fn planned_kills(&self) -> Vec<(SimTime, u32)> {
        let mut kills: Vec<(SimTime, u32)> = self
            .failure
            .iter()
            .map(|f| (f.at, f.worker.0))
            .chain(
                self.storm
                    .iter()
                    .flat_map(|p| p.kills.iter().map(|k| (k.at_ns, k.worker))),
            )
            .collect();
        kills.sort_unstable();
        kills
    }

    /// Validate invariants before a run.
    pub fn validate(&self) {
        assert!(self.parallelism > 0, "parallelism must be positive");
        assert!(self.total_rate > 0.0, "total rate must be positive");
        assert!(self.checkpoint_interval > 0);
        assert!(self.warmup <= self.duration);
        assert!(
            self.checkpoint_interval >= 10 * MILLIS,
            "checkpoint interval below 10ms is not meaningful in this model"
        );
        if let Some(storm) = &self.storm {
            storm.validate(self.parallelism);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        EngineConfig::default().validate();
    }

    #[test]
    fn paper_run_shape() {
        let c = EngineConfig::paper_run(10, ProtocolKind::Uncoordinated, true);
        assert_eq!(c.parallelism, 10);
        assert_eq!(c.duration, 60 * SECONDS);
        assert_eq!(c.warmup, 30 * SECONDS);
        let f = c.failure.unwrap();
        assert_eq!(f.at, 18 * SECONDS);
        assert_eq!(f.worker, WorkerId(0));
        assert!(EngineConfig::paper_run(10, ProtocolKind::None, false)
            .failure
            .is_none());
    }

    #[test]
    fn snapshot_mode_resolution() {
        // Auto and SizedOnly are sized only when nothing can read the
        // bytes back: no failure (recovery) and no incremental policy
        // (chunking).
        for mode in [SnapshotMode::Auto, SnapshotMode::SizedOnly] {
            assert!(mode.sized_for(false, false));
            assert!(!mode.sized_for(true, false));
            assert!(!mode.sized_for(false, true));
            assert!(!mode.sized_for(true, true));
        }
        // The oracle never skips the encode.
        assert!(!SnapshotMode::Full.sized_for(false, false));
        assert_eq!(SnapshotMode::default(), SnapshotMode::Auto);
    }

    #[test]
    fn storm_contributes_kills_and_failure_gating() {
        let clean = EngineConfig::default();
        assert!(!clean.failure_injected());
        assert!(clean.planned_kills().is_empty());

        let legacy = EngineConfig::paper_run(3, ProtocolKind::Coordinated, true);
        assert!(legacy.failure_injected());
        assert_eq!(legacy.planned_kills(), vec![(18 * SECONDS, 0)]);

        let storm = EngineConfig {
            parallelism: 3,
            storm: Some(FaultPlan::storm(9, 3, 3, 60 * SECONDS)),
            ..EngineConfig::default()
        };
        storm.validate();
        assert!(storm.failure_injected());
        assert_eq!(storm.planned_kills().len(), 3);
        let kills = storm.planned_kills();
        assert!(
            kills.windows(2).all(|w| w[0] <= w[1]),
            "kills sorted by time"
        );

        // A storm with only brownouts injects no failure.
        let brownout_only = EngineConfig {
            storm: Some(FaultPlan {
                seed: 0,
                kills: vec![],
                stragglers: vec![],
                brownouts: vec![checkmate_core::BrownoutWindow {
                    from_ns: SECONDS,
                    until_ns: 2 * SECONDS,
                    put_fail_p: 0.5,
                    get_fail_p: 0.5,
                    extra_latency_ns: 0,
                }],
            }),
            ..EngineConfig::default()
        };
        assert!(!brownout_only.failure_injected());
    }

    #[test]
    #[should_panic(expected = "targets worker")]
    fn storm_victims_validated_against_parallelism() {
        let c = EngineConfig {
            parallelism: 2,
            storm: Some(FaultPlan::single_kill(SECONDS, 5)),
            ..EngineConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_rejected() {
        let c = EngineConfig {
            parallelism: 0,
            ..Default::default()
        };
        c.validate();
    }
}
