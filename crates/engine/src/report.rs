//! Run outcome: every metric of paper §V, from one engine run.

use checkmate_core::ProtocolKind;
use checkmate_dataflow::ops::Digest;
use checkmate_dataflow::{Dec, Enc};
use checkmate_sim::{to_secs, SimTime};
use checkmate_storage::{StorageProfile, StoreStats};

/// Latency percentiles of one one-second bucket (paper Figs. 9–10 plot
/// these per second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondStats {
    pub second: u64,
    pub count: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Why the run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to the configured duration.
    Completed,
    /// Bounded input fully processed before the duration elapsed.
    Drained,
    /// The coordinated protocol deadlocked on a cyclic graph: an
    /// alignment stalled waiting for a marker on a feedback channel
    /// (paper §VII-B: COOR "cannot handle cyclic queries").
    CoordinatedDeadlock {
        /// Seconds into the run when the deadlock was declared.
        at: SimTime,
    },
    /// Event budget exhausted (indicates a configuration problem).
    EventBudgetExhausted,
    /// Recovery needed to replay in-flight messages, but the channel
    /// log only retained size accounting (`ChannelLog::sized_only`).
    /// The engine auto-selects materialized logs whenever the run
    /// config injects a failure, so this outcome indicates a host
    /// misconfiguration — surfaced structurally instead of panicking
    /// inside the log.
    ReplayUnavailable {
        /// Channel whose replay was requested.
        channel: u32,
        /// The requested replay range `(lo, hi]`.
        lo: u64,
        hi: u64,
    },
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub protocol: ProtocolKind,
    pub parallelism: u32,
    pub total_rate: f64,
    pub outcome: Outcome,
    pub end_time: SimTime,

    // ---- latency (paper §V "End-to-end Latency") ----
    /// Per-virtual-second p50/p99 of sink latency, including warmup
    /// seconds (figures plot the full timeline).
    pub latency_series: Vec<SecondStats>,
    /// Steady-state percentiles over post-warmup records.
    pub p50_ns: u64,
    pub p99_ns: u64,

    // ---- throughput ----
    /// Records processed at sinks (post-warmup).
    pub sink_records: u64,
    /// Is the configured rate sustainable? True iff the worst source
    /// backlog at run end is below one second of input and did not grow
    /// monotonically (paper §V "Sustainable Throughput").
    pub sustainable: bool,
    /// Worst source backlog at end, in seconds of input.
    pub final_lag_secs: f64,

    // ---- checkpointing (paper §V "Average Checkpointing Time") ----
    /// Completed checkpoints (for COOR: checkpoints of completed rounds).
    pub checkpoints_total: u64,
    /// CIC forced checkpoints among the total.
    pub checkpoints_forced: u64,
    /// Checkpoints rolled past at recovery ("invalid", Table III).
    pub checkpoints_invalid: u64,
    /// Average checkpoint duration: per-checkpoint capture→durable for
    /// UNC/CIC; full round initiation→completion for COOR.
    pub avg_checkpoint_time_ns: u64,
    /// Completed coordinated rounds (0 for other protocols).
    pub rounds_completed: u64,

    // ---- failure handling (paper §V "Restart & Recovery Time") ----
    /// Failure detection instant, when a failure was injected.
    pub detected_at: Option<SimTime>,
    /// Detection → all workers restored and ready to process.
    pub restart_time_ns: Option<u64>,
    /// Detection → backlog back to steady state. None = never recovered
    /// within the run (reported as such in the paper's skew experiments).
    pub recovery_time_ns: Option<u64>,
    /// Completed recovery episodes. A failure storm that kills a worker
    /// mid-recovery restarts the episode rather than opening a second
    /// one, so this counts recovery *completions*, not kills.
    pub recoveries: u64,
    /// Total virtual time with at least one worker down (first kill of
    /// an episode → restart barrier done), summed over episodes; an
    /// episode still open at run end counts to the end of the run.
    pub unavailability_ns: u64,
    /// In-flight records re-shipped from channel logs during recovery
    /// (wasted work the protocol's recovery line could not avoid).
    pub replayed_records: u64,
    /// Checkpoints skipped because the store was unreachable through a
    /// brownout (graceful degradation: bounded retries, then defer).
    pub ckpts_deferred: u64,
    /// Minimum checkpoint index of each computed recovery line, in
    /// order. Witness for the line-monotonicity property: under repeated
    /// kills the global line must never move backwards.
    pub recovery_line_mins: Vec<u64>,

    // ---- message overhead (paper §V "Message Overhead", Table II) ----
    /// Bytes a checkpoint-free run would have moved (records).
    pub payload_bytes: u64,
    /// Protocol bytes: markers, piggybacks, checkpoint metadata traffic.
    pub protocol_bytes: u64,

    // ---- durable store traffic ----
    /// Checkpoint-store traffic of the whole run: uploads, recovery
    /// fetches, GC deletions. `bytes_put` is what incremental
    /// checkpointing shrinks; `net_bytes()` is the durable footprint.
    pub store: StoreStats,
    /// Which storage profile the store declared (`minio-lan`, `s3-wan`…).
    pub store_profile: &'static str,
    /// Objects alive in the store at run end.
    pub store_objects_live: u64,
    /// Bytes alive in the store at run end.
    pub store_bytes_live: u64,

    // ---- exactly-once verification ----
    /// Order-independent digest of everything the sinks processed
    /// (rolled back and replayed with the state — equal to a failure-free
    /// run's digest iff processing was exactly-once).
    pub sink_digest: Digest,
    /// Records emitted by sinks to the external world beyond the digest
    /// count: duplicate *outputs* during recovery (exactly-once processing
    /// still permits these, §II-A).
    pub output_duplicates: u64,

    /// Total simulation events processed (determinism fingerprinting).
    pub events: u64,
}

impl RunReport {
    /// Message overhead ratio vs. a checkpoint-free execution (Table II).
    pub fn overhead_ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 1.0;
        }
        (self.payload_bytes + self.protocol_bytes) as f64 / self.payload_bytes as f64
    }

    /// Fraction of checkpoints invalidated at recovery (Table III).
    pub fn invalid_pct(&self) -> f64 {
        if self.checkpoints_total == 0 {
            return 0.0;
        }
        100.0 * self.checkpoints_invalid as f64 / self.checkpoints_total as f64
    }

    pub fn deadlocked(&self) -> bool {
        matches!(self.outcome, Outcome::CoordinatedDeadlock { .. })
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} {} p={} rate={:.0}/s: p50={:.1}ms p99={:.1}ms sink={} ckpts={} (forced={}, invalid={}) ct={:.2}ms overhead={:.2}x restart={:?}ms recovery={:?}ms lag={:.2}s store[{}]={:.1}MB put/{:.1}MB live {:?}",
            self.workload,
            self.protocol,
            self.parallelism,
            self.total_rate,
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
            self.sink_records,
            self.checkpoints_total,
            self.checkpoints_forced,
            self.checkpoints_invalid,
            self.avg_checkpoint_time_ns as f64 / 1e6,
            self.overhead_ratio(),
            self.restart_time_ns.map(|t| t / 1_000_000),
            self.recovery_time_ns.map(|t| t / 1_000_000),
            self.final_lag_secs,
            self.store_profile,
            self.store.bytes_put as f64 / 1e6,
            self.store_bytes_live as f64 / 1e6,
            self.outcome,
        )
    }

    pub fn end_secs(&self) -> f64 {
        to_secs(self.end_time)
    }

    /// Serialize every field for the bench harness's persistent run
    /// cache. The format is a workspace-internal detail: the harness
    /// versions the surrounding file and treats any decode failure as a
    /// cache miss, so it never needs to be forward-compatible.
    pub fn to_cache_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::with_capacity(256 + self.latency_series.len() * 32);
        enc.str(&self.workload);
        enc.u8(protocol_tag(self.protocol));
        enc.u32(self.parallelism);
        enc.f64(self.total_rate);
        match &self.outcome {
            Outcome::Completed => {
                enc.u8(0);
            }
            Outcome::Drained => {
                enc.u8(1);
            }
            Outcome::CoordinatedDeadlock { at } => {
                enc.u8(2);
                enc.u64(*at);
            }
            Outcome::EventBudgetExhausted => {
                enc.u8(3);
            }
            Outcome::ReplayUnavailable { channel, lo, hi } => {
                enc.u8(4);
                enc.u32(*channel);
                enc.u64(*lo);
                enc.u64(*hi);
            }
        }
        enc.u64(self.end_time);
        enc.u64(self.latency_series.len() as u64);
        for s in &self.latency_series {
            enc.u64(s.second);
            enc.u64(s.count);
            enc.u64(s.p50_ns);
            enc.u64(s.p99_ns);
        }
        enc.u64(self.p50_ns);
        enc.u64(self.p99_ns);
        enc.u64(self.sink_records);
        enc.bool(self.sustainable);
        enc.f64(self.final_lag_secs);
        enc.u64(self.checkpoints_total);
        enc.u64(self.checkpoints_forced);
        enc.u64(self.checkpoints_invalid);
        enc.u64(self.avg_checkpoint_time_ns);
        enc.u64(self.rounds_completed);
        opt_u64(&mut enc, self.detected_at);
        opt_u64(&mut enc, self.restart_time_ns);
        opt_u64(&mut enc, self.recovery_time_ns);
        enc.u64(self.recoveries);
        enc.u64(self.unavailability_ns);
        enc.u64(self.replayed_records);
        enc.u64(self.ckpts_deferred);
        enc.u64(self.recovery_line_mins.len() as u64);
        for v in &self.recovery_line_mins {
            enc.u64(*v);
        }
        enc.u64(self.payload_bytes);
        enc.u64(self.protocol_bytes);
        for v in [
            self.store.puts,
            self.store.gets,
            self.store.deletes,
            self.store.lists,
            self.store.size_ofs,
            self.store.bytes_put,
            self.store.bytes_got,
            self.store.bytes_deleted,
            self.store.put_retries,
            self.store.get_retries,
            self.store.put_backoff_ns,
            self.store.get_backoff_ns,
            self.store.puts_deferred,
        ] {
            enc.u64(v);
        }
        enc.str(self.store_profile);
        enc.u64(self.store_objects_live);
        enc.u64(self.store_bytes_live);
        enc.u64(self.sink_digest.count);
        enc.u64(self.sink_digest.acc);
        enc.u64(self.output_duplicates);
        enc.u64(self.events);
        enc.finish()
    }

    /// Inverse of [`Self::to_cache_bytes`]; `None` on any mismatch
    /// (truncated file, unknown tag or profile name) — callers treat
    /// that as a cache miss and recompute.
    pub fn from_cache_bytes(bytes: &[u8]) -> Option<Self> {
        let mut dec = Dec::new(bytes);
        let workload = dec.str().ok()?.to_string();
        let protocol = protocol_from_tag(dec.u8().ok()?)?;
        let parallelism = dec.u32().ok()?;
        let total_rate = dec.f64().ok()?;
        let outcome = match dec.u8().ok()? {
            0 => Outcome::Completed,
            1 => Outcome::Drained,
            2 => Outcome::CoordinatedDeadlock {
                at: dec.u64().ok()?,
            },
            3 => Outcome::EventBudgetExhausted,
            4 => Outcome::ReplayUnavailable {
                channel: dec.u32().ok()?,
                lo: dec.u64().ok()?,
                hi: dec.u64().ok()?,
            },
            _ => return None,
        };
        let end_time = dec.u64().ok()?;
        let n = dec.u64().ok()? as usize;
        // A series can't outnumber the remaining bytes; rejects garbage
        // lengths before the allocation.
        if n > dec.remaining() / 32 {
            return None;
        }
        let mut latency_series = Vec::with_capacity(n);
        for _ in 0..n {
            latency_series.push(SecondStats {
                second: dec.u64().ok()?,
                count: dec.u64().ok()?,
                p50_ns: dec.u64().ok()?,
                p99_ns: dec.u64().ok()?,
            });
        }
        let p50_ns = dec.u64().ok()?;
        let p99_ns = dec.u64().ok()?;
        let sink_records = dec.u64().ok()?;
        let sustainable = dec.bool().ok()?;
        let final_lag_secs = dec.f64().ok()?;
        let checkpoints_total = dec.u64().ok()?;
        let checkpoints_forced = dec.u64().ok()?;
        let checkpoints_invalid = dec.u64().ok()?;
        let avg_checkpoint_time_ns = dec.u64().ok()?;
        let rounds_completed = dec.u64().ok()?;
        let detected_at = opt_u64_dec(&mut dec)?;
        let restart_time_ns = opt_u64_dec(&mut dec)?;
        let recovery_time_ns = opt_u64_dec(&mut dec)?;
        let recoveries = dec.u64().ok()?;
        let unavailability_ns = dec.u64().ok()?;
        let replayed_records = dec.u64().ok()?;
        let ckpts_deferred = dec.u64().ok()?;
        let lines = dec.u64().ok()? as usize;
        if lines > dec.remaining() / 8 {
            return None;
        }
        let mut recovery_line_mins = Vec::with_capacity(lines);
        for _ in 0..lines {
            recovery_line_mins.push(dec.u64().ok()?);
        }
        let payload_bytes = dec.u64().ok()?;
        let protocol_bytes = dec.u64().ok()?;
        let store = StoreStats {
            puts: dec.u64().ok()?,
            gets: dec.u64().ok()?,
            deletes: dec.u64().ok()?,
            lists: dec.u64().ok()?,
            size_ofs: dec.u64().ok()?,
            bytes_put: dec.u64().ok()?,
            bytes_got: dec.u64().ok()?,
            bytes_deleted: dec.u64().ok()?,
            put_retries: dec.u64().ok()?,
            get_retries: dec.u64().ok()?,
            put_backoff_ns: dec.u64().ok()?,
            get_backoff_ns: dec.u64().ok()?,
            puts_deferred: dec.u64().ok()?,
        };
        let store_profile = StorageProfile::by_name(dec.str().ok()?)?.name;
        let store_objects_live = dec.u64().ok()?;
        let store_bytes_live = dec.u64().ok()?;
        let sink_digest = Digest {
            count: dec.u64().ok()?,
            acc: dec.u64().ok()?,
        };
        let output_duplicates = dec.u64().ok()?;
        let events = dec.u64().ok()?;
        dec.finish().ok()?;
        Some(Self {
            workload,
            protocol,
            parallelism,
            total_rate,
            outcome,
            end_time,
            latency_series,
            p50_ns,
            p99_ns,
            sink_records,
            sustainable,
            final_lag_secs,
            checkpoints_total,
            checkpoints_forced,
            checkpoints_invalid,
            avg_checkpoint_time_ns,
            rounds_completed,
            detected_at,
            restart_time_ns,
            recovery_time_ns,
            recoveries,
            unavailability_ns,
            replayed_records,
            ckpts_deferred,
            recovery_line_mins,
            payload_bytes,
            protocol_bytes,
            store,
            store_profile,
            store_objects_live,
            store_bytes_live,
            sink_digest,
            output_duplicates,
            events,
        })
    }
}

fn protocol_tag(p: ProtocolKind) -> u8 {
    match p {
        ProtocolKind::None => 0,
        ProtocolKind::Coordinated => 1,
        ProtocolKind::Uncoordinated => 2,
        ProtocolKind::CommunicationInduced => 3,
        ProtocolKind::CommunicationInducedBcs => 4,
    }
}

fn protocol_from_tag(tag: u8) -> Option<ProtocolKind> {
    Some(match tag {
        0 => ProtocolKind::None,
        1 => ProtocolKind::Coordinated,
        2 => ProtocolKind::Uncoordinated,
        3 => ProtocolKind::CommunicationInduced,
        4 => ProtocolKind::CommunicationInducedBcs,
        _ => return None,
    })
}

fn opt_u64(enc: &mut Enc, v: Option<u64>) {
    match v {
        Some(x) => {
            enc.bool(true);
            enc.u64(x);
        }
        None => {
            enc.bool(false);
        }
    }
}

/// `Some(Some(x))`/`Some(None)` on success, `None` on decode failure.
fn opt_u64_dec(dec: &mut Dec) -> Option<Option<u64>> {
    if dec.bool().ok()? {
        Some(Some(dec.u64().ok()?))
    } else {
        Some(None)
    }
}

/// Builds per-second percentile series from raw samples. Samples arrive
/// in (nearly) increasing time, so buckets live in a sorted vector with
/// a from-the-back insertion scan — effectively O(1) per sample.
#[derive(Debug, Default)]
pub struct LatencySeries {
    /// `(second, samples)`, sorted by second.
    buckets: Vec<(u64, Vec<u64>)>,
}

impl LatencySeries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, at: SimTime, latency_ns: u64) {
        let sec = at / 1_000_000_000;
        // Hot path: the sample lands in the newest bucket (or opens one).
        match self.buckets.last_mut() {
            Some((s, v)) if *s == sec => v.push(latency_ns),
            Some((s, _)) if *s < sec => self.buckets.push((sec, vec![latency_ns])),
            None => self.buckets.push((sec, vec![latency_ns])),
            _ => {
                // Rare out-of-order sample (task-completion skew): find
                // its bucket from the back.
                match self.buckets.binary_search_by_key(&sec, |(s, _)| *s) {
                    Ok(i) => self.buckets[i].1.push(latency_ns),
                    Err(i) => self.buckets.insert(i, (sec, vec![latency_ns])),
                }
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    fn bucket_start(&self, from_sec: u64) -> usize {
        self.buckets.partition_point(|(s, _)| *s < from_sec)
    }

    /// Per-second p50 values at or after `from_sec`, as `(second, p50)`.
    pub fn clone_series_after(&self, from_sec: u64) -> Vec<(u64, u64)> {
        self.buckets[self.bucket_start(from_sec)..]
            .iter()
            .map(|(s, v)| {
                let mut copy = v.clone();
                (*s, percentile_of(&mut copy, 0.50))
            })
            .collect()
    }

    /// Percentile over all samples at or after `from_sec`.
    pub fn percentile_from(&self, from_sec: u64, p: f64) -> u64 {
        let mut all: Vec<u64> = self.buckets[self.bucket_start(from_sec)..]
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        percentile_of(&mut all, p)
    }

    pub fn build(self) -> Vec<SecondStats> {
        self.buckets
            .into_iter()
            .map(|(second, mut v)| {
                let p50 = percentile_of(&mut v, 0.50);
                let p99 = percentile_of(&mut v, 0.99);
                SecondStats {
                    second,
                    count: v.len() as u64,
                    p50_ns: p50,
                    p99_ns: p99,
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile; 0 for empty input.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * p).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of(&mut v, 0.50), 50);
        assert_eq!(percentile_of(&mut v, 0.99), 99);
        assert_eq!(percentile_of(&mut v, 1.0), 100);
        let mut single = vec![42];
        assert_eq!(percentile_of(&mut single, 0.5), 42);
        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentile_of(&mut empty, 0.99), 0);
    }

    #[test]
    fn series_buckets_by_second() {
        let mut s = LatencySeries::new();
        s.record(500_000_000, 10);
        s.record(900_000_000, 20);
        s.record(1_100_000_000, 30);
        let built = s.build();
        assert_eq!(built.len(), 2);
        assert_eq!(built[0].second, 0);
        assert_eq!(built[0].count, 2);
        assert_eq!(built[1].second, 1);
        assert_eq!(built[1].p50_ns, 30);
    }

    #[test]
    fn cache_bytes_round_trip() {
        let report = RunReport {
            workload: "q8".into(),
            protocol: ProtocolKind::CommunicationInduced,
            parallelism: 7,
            total_rate: 1234.5,
            outcome: Outcome::CoordinatedDeadlock { at: 42 },
            end_time: 60_000_000_000,
            latency_series: vec![
                SecondStats {
                    second: 3,
                    count: 10,
                    p50_ns: 100,
                    p99_ns: 900,
                },
                SecondStats {
                    second: 4,
                    count: 11,
                    p50_ns: 110,
                    p99_ns: 910,
                },
            ],
            p50_ns: 105,
            p99_ns: 905,
            sink_records: 99,
            sustainable: true,
            final_lag_secs: 0.25,
            checkpoints_total: 12,
            checkpoints_forced: 3,
            checkpoints_invalid: 2,
            avg_checkpoint_time_ns: 5_000,
            rounds_completed: 6,
            detected_at: Some(18_000_000_000),
            restart_time_ns: None,
            recovery_time_ns: Some(2_000_000_000),
            recoveries: 2,
            unavailability_ns: 450_000_000,
            replayed_records: 731,
            ckpts_deferred: 4,
            recovery_line_mins: vec![3, 3, 5],
            payload_bytes: 1 << 30,
            protocol_bytes: 1 << 20,
            store: StoreStats {
                puts: 1,
                gets: 2,
                deletes: 3,
                lists: 4,
                size_ofs: 5,
                bytes_put: 6,
                bytes_got: 7,
                bytes_deleted: 8,
                put_retries: 9,
                get_retries: 10,
                put_backoff_ns: 11,
                get_backoff_ns: 12,
                puts_deferred: 13,
            },
            store_profile: StorageProfile::s3_wan().name,
            store_objects_live: 21,
            store_bytes_live: 22,
            sink_digest: Digest { count: 23, acc: 24 },
            output_duplicates: 1,
            events: 1_000_000,
        };
        let bytes = report.to_cache_bytes();
        let back = RunReport::from_cache_bytes(&bytes).expect("round trip");
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        // Corruption → miss, not garbage.
        assert!(RunReport::from_cache_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(RunReport::from_cache_bytes(b"junk").is_none());
    }

    #[test]
    fn percentile_from_respects_warmup() {
        let mut s = LatencySeries::new();
        s.record(0, 1_000_000);
        s.record(5_000_000_000, 5);
        assert_eq!(s.percentile_from(5, 0.5), 5);
        assert_eq!(s.percentile_from(0, 1.0), 1_000_000);
    }
}
