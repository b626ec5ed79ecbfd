//! Live-run results.
//!
//! [`LiveReport`] carries the exactly-once evidence (commutative sink
//! digest + record count), checkpoint/recovery bookkeeping, latency and
//! throughput, and the data-plane health counters the bounded-inbox
//! design is judged by: the deepest any inbox ever got and the deepest
//! any sender's backpressure queue ever got. A slow consumer must show
//! up as a *bounded* `max_inbox_depth` and throttled upstream progress,
//! never as unbounded queue growth.

use checkmate_dataflow::ops::Digest;
use checkmate_storage::StoreStats;
use std::time::Duration;

/// Result of a live run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    pub sink_digest: Digest,
    pub sink_records: u64,
    pub checkpoints: u64,
    pub recovered: bool,
    pub p50_latency: Duration,
    pub elapsed: Duration,
    /// Total events processed across all workers: source reads plus
    /// operator deliveries (the unit of the throughput figure).
    pub events: u64,
    /// `events / elapsed`, events per second.
    pub throughput: f64,
    /// High-water mark over every worker inbox (messages). Bounded-inbox
    /// runs keep this near `LiveConfig::inbox_capacity` plus the forced
    /// traffic (control, replay, self-sends, feedback) even under a
    /// deliberately slow consumer.
    pub max_inbox_depth: usize,
    /// High-water mark over every sender's parked-output queue: wires
    /// that could not be pushed to a full inbox and are throttling their
    /// producer.
    pub max_out_pending: usize,
    /// Delivery-order determinants appended to the shared logs
    /// (UNC/CIC protocols only; 0 under COOR/None).
    pub determinants: u64,
    /// Records re-delivered from the durable channel logs during
    /// recovery.
    pub replayed: u64,
    /// Protocol-log appends staged in worker-local arenas instead of
    /// taking a shared-log mutex (`LiveConfig::buffered_logs`): channel
    /// payloads and determinants. 0 on the locked-oracle path.
    pub staged_appends: u64,
    /// Bulk publications of staged runs to the shared logs (one count
    /// per non-empty stage drained at a flush boundary). The contention
    /// win is the ratio `staged_appends / log_flushes` — appends that
    /// shared one lock acquisition instead of paying one each.
    pub log_flushes: u64,
    /// Completed recovery episodes. The legacy single-kill path reports
    /// 1; a failure storm with overlapping kills may fold several kills
    /// into one episode (a kill landing mid-recovery restarts the line
    /// computation instead of opening a new episode).
    pub recoveries: u64,
    /// Channel-log entries the coordinator freed below a recovery line
    /// while the run was going (UNC/CIC protocols only; 0 under
    /// COOR/None, which log nothing).
    pub log_entries_reclaimed: u64,
    /// Determinants freed the same way.
    pub determinants_reclaimed: u64,
    /// Whole-snapshot checkpoint objects deleted from the store because
    /// a newer checkpoint of their instance was on the recovery line.
    pub ckpt_objects_reclaimed: u64,
    /// High-water of the entries retained across all channel logs,
    /// sampled as each reclamation begins — the live log footprint,
    /// against the total appended.
    pub max_log_entries_retained: u64,
    /// Checkpoints the uploader dropped because the store's bounded
    /// retry budget was exhausted mid-brownout: the checkpoint is never
    /// acked durable and recovery lines skip past it (graceful
    /// degradation instead of a stalled upload thread).
    pub ckpts_deferred: u64,
    /// Durable-store operation counters: puts/gets, retries and backoff
    /// time absorbed by transient faults, deferred puts.
    pub store: StoreStats,
}

impl LiveReport {
    /// One-line human summary (bench/CI output).
    pub fn summary(&self) -> String {
        format!(
            "{} sink records (digest {:016x}/{}), {} ckpts ({} deferred), \
             recoveries={}, p50 {:?}, {:.0} ev/s over {:?}, inbox≤{}, \
             pending≤{}, dets={}, replayed={}, staged={}/{} flushes, \
             reclaimed {} log entries (≤{} retained)/{} dets/{} ckpt objects, \
             store retries {}+{}",
            self.sink_records,
            self.sink_digest.acc,
            self.sink_digest.count,
            self.checkpoints,
            self.ckpts_deferred,
            self.recoveries,
            self.p50_latency,
            self.throughput,
            self.elapsed,
            self.max_inbox_depth,
            self.max_out_pending,
            self.determinants,
            self.replayed,
            self.staged_appends,
            self.log_flushes,
            self.log_entries_reclaimed,
            self.max_log_entries_retained,
            self.determinants_reclaimed,
            self.ckpt_objects_reclaimed,
            self.store.put_retries,
            self.store.get_retries,
        )
    }
}
