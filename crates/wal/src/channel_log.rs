//! Per-channel in-flight message logs (upstream backup).
//!
//! The uncoordinated and communication-induced protocols must capture
//! channel state: every message is appended, at send time, to a durable
//! per-channel log keyed by its channel sequence number (paper §III-B,
//! "log-based recovery and upstream backup"). After a failure, the
//! recovery procedure replays, per channel, the messages in
//! `(receiver checkpoint watermark, sender checkpoint watermark]` — the
//! in-flight messages of the recovery line. Receivers deduplicate by
//! sequence number.
//!
//! Logs are truncated once checkpoint retention allows (checkpoint space
//! reclamation, Wang et al. 1995).

use checkmate_dataflow::Record;
use std::collections::{vec_deque, VecDeque};

/// Replay was requested from a log that only retained size accounting.
///
/// Sized-only logs are reserved for runs that provably never recover
/// (no failure injected); hosts auto-select materialized logs whenever
/// the run config schedules a failure, so hitting this in production is
/// a host bug — but it surfaces as a structured error the recovery path
/// can report (`Outcome::ReplayUnavailable`) instead of a panic deep in
/// the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayUnavailable {
    /// The requested replay range `(lo, hi]`.
    pub lo: u64,
    pub hi: u64,
}

impl std::fmt::Display for ReplayUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay range ({}, {}] requested from a sized-only channel log \
             (payloads were never materialized; sized-only is reserved for \
             runs that never recover)",
            self.lo, self.hi
        )
    }
}

impl std::error::Error for ReplayUnavailable {}

/// One logged in-flight message.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Channel sequence number (1-based; 0 means "nothing sent yet").
    pub seq: u64,
    pub record: Record,
    /// Encoded size at send time (payload, without protocol piggyback).
    pub bytes: usize,
}

/// Append-only log for a single channel.
///
/// Two storage modes, same accounting:
///
/// * **materialized** ([`ChannelLog::new`]) — every entry keeps its
///   [`Record`], so [`ChannelLog::range`] can replay it after a failure;
/// * **sized-only** ([`ChannelLog::sized_only`]) — entries keep only
///   their sequence/byte accounting. A run that provably never recovers
///   (no failure is injected) never reads a record back out of the log,
///   so the host needn't materialize them; every *modeled* quantity —
///   append costs, retained bytes, truncation — is identical, because
///   it derives from sizes, not payloads. Replay (`range`) from a
///   sized-only log returns a structured [`ReplayUnavailable`] error
///   that hosts surface through their recovery reporting.
#[derive(Debug)]
pub struct ChannelLog {
    entries: VecDeque<LogEntry>,
    /// Per-entry byte sizes (sized-only mode; `entries` stays empty).
    sizes: VecDeque<u32>,
    materialized: bool,
    /// Sequence of the first retained entry (everything below is GC'd).
    first_seq: u64,
    total_bytes: usize,
}

impl Default for ChannelLog {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelLog {
    pub fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            sizes: VecDeque::new(),
            materialized: true,
            first_seq: 1,
            total_bytes: 0,
        }
    }

    /// A log that keeps accounting but not payloads — for runs that can
    /// never replay (see the type docs).
    pub fn sized_only() -> Self {
        Self {
            materialized: false,
            ..Self::new()
        }
    }

    /// Does this log keep records (and therefore support [`Self::range`])?
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    fn len(&self) -> usize {
        if self.materialized {
            self.entries.len()
        } else {
            self.sizes.len()
        }
    }

    /// Append the message with the given channel sequence. Sequences must
    /// be contiguous and ascending; replayed sends after a rollback re-use
    /// their original sequence numbers and are ignored here (the log
    /// already has them).
    pub fn append(&mut self, seq: u64, record: Record) {
        let bytes = record.encoded_len();
        self.append_sized(seq, record, bytes);
    }

    /// [`Self::append`] with the encoded size already known — senders
    /// that computed the wire size anyway skip a second payload walk.
    pub fn append_sized(&mut self, seq: u64, record: Record, bytes: usize) {
        debug_assert_eq!(bytes, record.encoded_len());
        if !self.accept(seq) {
            return;
        }
        self.total_bytes += bytes;
        if self.materialized {
            self.entries.push_back(LogEntry { seq, record, bytes });
        } else {
            self.sizes.push_back(bytes as u32);
        }
    }

    /// Append accounting only — the sized-only fast path, where the
    /// caller skips cloning the record altogether.
    pub fn append_size_only(&mut self, seq: u64, bytes: usize) {
        assert!(
            !self.materialized,
            "size-only append into a materialized (replayable) log"
        );
        if !self.accept(seq) {
            return;
        }
        self.total_bytes += bytes;
        self.sizes.push_back(bytes as u32);
    }

    /// Bulk append of a staged contiguous run (see [`crate::staging`])
    /// under a single lock acquisition at the publication site. Entries
    /// carry their own sequences; re-publication of already-logged
    /// entries after a rollback is ignored per entry, like
    /// [`Self::append`]. Returns how many entries were fresh.
    pub fn append_entries(&mut self, run: impl IntoIterator<Item = LogEntry>) -> u64 {
        let mut fresh = 0;
        for e in run {
            debug_assert_eq!(e.bytes, e.record.encoded_len());
            if !self.accept(e.seq) {
                continue;
            }
            self.total_bytes += e.bytes;
            if self.materialized {
                self.entries.push_back(e);
            } else {
                self.sizes.push_back(e.bytes as u32);
            }
            fresh += 1;
        }
        fresh
    }

    /// Contiguity check shared by the append paths: `false` for re-sends
    /// of already-logged messages (post-rollback regeneration; the
    /// original entry stands), panic on gaps.
    fn accept(&self, seq: u64) -> bool {
        let expected = self.first_seq + self.len() as u64;
        if seq < expected {
            return false;
        }
        assert_eq!(
            seq, expected,
            "channel log gap: appended seq {seq}, expected {expected}"
        );
        true
    }

    /// Highest appended sequence (0 if empty since birth).
    pub fn last_seq(&self) -> u64 {
        self.first_seq + self.len() as u64 - 1
    }

    /// Entries with `lo < seq ≤ hi`, in order. Returns
    /// [`ReplayUnavailable`] when the log is sized-only (payloads were
    /// never kept); panics if part of the range was already truncated —
    /// that would mean GC reclaimed messages a recovery line still
    /// needed, which is a soundness bug, not a mode mismatch.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<&LogEntry>, ReplayUnavailable> {
        if hi <= lo {
            return Ok(Vec::new());
        }
        if !self.materialized {
            return Err(ReplayUnavailable { lo, hi });
        }
        assert!(
            lo + 1 >= self.first_seq,
            "replay range ({lo}, {hi}] reaches below retained seq {}",
            self.first_seq
        );
        let start = (lo + 1 - self.first_seq) as usize;
        let end = ((hi + 1).saturating_sub(self.first_seq) as usize).min(self.entries.len());
        Ok(self
            .entries
            .iter()
            .skip(start)
            .take(end.saturating_sub(start))
            .collect())
    }

    /// The one cut both [`Self::take_below`] and [`Self::truncate_below`]
    /// make in a materialized log: entries are contiguous from
    /// `first_seq`, so the entries with `seq < below` are a prefix found
    /// by index arithmetic and removed by one drain. Even when the log
    /// runs empty first, the floor is remembered.
    fn drain_below(&mut self, below: u64) -> vec_deque::Drain<'_, LogEntry> {
        let n = (below.saturating_sub(self.first_seq) as usize).min(self.entries.len());
        self.total_bytes -= self.entries.range(..n).map(|e| e.bytes).sum::<usize>();
        self.first_seq = self.first_seq.max(below);
        self.entries.drain(..n)
    }

    /// Remove the entries with `seq < below` from a materialized log and
    /// hand them to the caller, so a holder of a shared log can release
    /// its lock before paying for the frees.
    pub fn take_below(&mut self, below: u64) -> Vec<LogEntry> {
        assert!(
            self.materialized,
            "take_below on a sized-only log (it keeps no entries to hand back)"
        );
        self.drain_below(below).collect()
    }

    /// Drop entries with `seq < below`. Called when checkpoint retention
    /// guarantees no recovery line can need them.
    pub fn truncate_below(&mut self, below: u64) {
        if self.materialized {
            // Dropped in place: no intermediate vector on the engine's
            // GC path.
            drop(self.drain_below(below));
            return;
        }
        while self.first_seq < below {
            let Some(bytes) = self.sizes.pop_front() else {
                break;
            };
            self.total_bytes -= bytes as usize;
            self.first_seq += 1;
        }
        // Even when empty, remember the floor.
        if self.first_seq < below {
            self.first_seq = below;
        }
    }

    /// Total retained bytes (drives restart-time fetch costs).
    pub fn retained_bytes(&self) -> usize {
        self.total_bytes
    }

    pub fn retained_len(&self) -> usize {
        self.len()
    }

    /// Bytes of the entries in `(lo, hi]` — the replay fetch volume.
    /// Works in both modes (sizes are always retained).
    pub fn range_bytes(&self, lo: u64, hi: u64) -> usize {
        if self.materialized {
            return self
                .range(lo, hi)
                .expect("materialized log supports range")
                .iter()
                .map(|e| e.bytes)
                .sum();
        }
        if hi <= lo {
            return 0;
        }
        assert!(
            lo + 1 >= self.first_seq,
            "replay range ({lo}, {hi}] reaches below retained seq {}",
            self.first_seq
        );
        let start = (lo + 1 - self.first_seq) as usize;
        let end = ((hi + 1).saturating_sub(self.first_seq) as usize).min(self.sizes.len());
        self.sizes
            .iter()
            .skip(start)
            .take(end.saturating_sub(start))
            .map(|&b| b as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkmate_dataflow::Value;

    fn rec(v: u64) -> Record {
        Record::new(v, Value::U64(v), 0)
    }

    fn filled(n: u64) -> ChannelLog {
        let mut l = ChannelLog::new();
        for s in 1..=n {
            l.append(s, rec(s));
        }
        l
    }

    #[test]
    fn append_and_last_seq() {
        let l = filled(5);
        assert_eq!(l.last_seq(), 5);
        assert_eq!(l.retained_len(), 5);
    }

    #[test]
    fn empty_log_last_seq_zero() {
        let l = ChannelLog::new();
        assert_eq!(l.last_seq(), 0);
        assert!(l.range(0, 10).unwrap().is_empty());
    }

    #[test]
    fn range_is_exclusive_inclusive() {
        let l = filled(10);
        let r = l.range(3, 7).unwrap();
        assert_eq!(
            r.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
        assert!(l.range(7, 7).unwrap().is_empty());
        assert!(l.range(9, 3).unwrap().is_empty());
    }

    #[test]
    fn range_clamps_hi_to_logged() {
        let l = filled(5);
        let r = l.range(3, 100).unwrap();
        assert_eq!(r.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn duplicate_append_ignored() {
        let mut l = filled(5);
        l.append(3, rec(999)); // regeneration after rollback
        assert_eq!(l.retained_len(), 5);
        assert_eq!(l.range(2, 3).unwrap()[0].record.key, 3); // original kept
        l.append(6, rec(6));
        assert_eq!(l.last_seq(), 6);
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn gap_append_panics() {
        let mut l = filled(2);
        l.append(5, rec(5));
    }

    #[test]
    fn truncate_frees_bytes_and_protects_range() {
        let mut l = filled(10);
        let total = l.retained_bytes();
        l.truncate_below(5);
        assert_eq!(l.retained_len(), 6); // seqs 5..=10
        assert!(l.retained_bytes() < total);
        let r = l.range(4, 6).unwrap();
        assert_eq!(r.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    #[should_panic(expected = "below retained")]
    fn range_below_truncation_panics() {
        let mut l = filled(10);
        l.truncate_below(5);
        let _ = l.range(2, 7);
    }

    #[test]
    fn truncate_then_append_continues() {
        let mut l = filled(4);
        l.truncate_below(5); // empties the log
        assert_eq!(l.retained_len(), 0);
        assert_eq!(l.last_seq(), 4);
        l.append(5, rec(5));
        assert_eq!(l.last_seq(), 5);
    }

    #[test]
    fn sized_only_matches_materialized_accounting() {
        let full = filled(10);
        let mut sized = ChannelLog::sized_only();
        for s in 1..=10u64 {
            sized.append_size_only(s, rec(s).encoded_len());
        }
        assert_eq!(sized.last_seq(), full.last_seq());
        assert_eq!(sized.retained_len(), full.retained_len());
        assert_eq!(sized.retained_bytes(), full.retained_bytes());
        assert_eq!(sized.range_bytes(3, 7), full.range_bytes(3, 7));
        // Duplicate re-sends ignored in both modes.
        sized.append_size_only(4, 999);
        assert_eq!(sized.retained_len(), 10);
        // Truncation keeps the accounting aligned.
        let mut full = full;
        sized.truncate_below(5);
        full.truncate_below(5);
        assert_eq!(sized.retained_len(), full.retained_len());
        assert_eq!(sized.retained_bytes(), full.retained_bytes());
        assert_eq!(sized.range_bytes(4, 9), full.range_bytes(4, 9));
        assert_eq!(sized.last_seq(), full.last_seq());
    }

    #[test]
    fn replay_from_sized_only_log_is_structured_error() {
        let mut l = ChannelLog::sized_only();
        l.append_size_only(1, 16);
        let err = l.range(0, 1).unwrap_err();
        assert_eq!(err, ReplayUnavailable { lo: 0, hi: 1 });
        assert!(err.to_string().contains("sized-only"));
        // An empty range needs no payloads and succeeds in either mode.
        assert!(l.range(1, 1).unwrap().is_empty());
    }

    #[test]
    fn range_bytes_accounts_payload() {
        let l = filled(3);
        assert_eq!(
            l.range_bytes(0, 3),
            l.range(0, 3).unwrap().iter().map(|e| e.bytes).sum()
        );
        assert!(l.range_bytes(0, 3) > 0);
    }
}
