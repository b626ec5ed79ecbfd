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
//!
//! **Representation.** A replayable log is a chain of append-only byte
//! [`Segment`]s — write-optimised chunks reclaimed whole (stdchk, arXiv
//! 0706.3546). An entry is the record's [`Codec`] encoding, written
//! **once**, at send time; its length is `Record::encoded_len()`, so
//! every size the logs account falls out of the entries' offsets. A
//! segment stops taking entries at ≈ [`SEAL_BYTES`]. Accounting is
//! entry-granular, storage is segment-granular: `truncate_below` moves
//! a floor by arithmetic and unlinks the segments wholly below it, and
//! entries below the floor inside the front segment stay in memory
//! until that segment empties. Only `range` — the recovery path —
//! decodes entries back into [`Record`]s.

use checkmate_dataflow::{Codec, Dec, Enc, Record};
use std::collections::VecDeque;

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

/// Byte size at which a [`Segment`] stops taking entries. Entry offsets
/// are `u32` because of it: a segment passes the threshold by at most
/// the sends of one flush.
pub const SEAL_BYTES: usize = 64 * 1024;

/// A run of consecutive log entries, encoded back to back in one buffer.
///
/// Senders fill one per channel outside any lock
/// ([`crate::SegmentStage`]) and hand it to the shared log whole
/// ([`ChannelLog::publish`]); a log appended to directly fills its own
/// tail segment the same way.
#[derive(Debug, Default)]
pub struct Segment {
    /// Sequence of the first entry (stale while the segment is empty).
    first_seq: u64,
    /// Start offset of each entry in `bytes`.
    offs: Vec<u32>,
    bytes: Vec<u8>,
}

impl Segment {
    /// Encode `record` as the entry with sequence `seq`. Sequences within
    /// a segment are contiguous; an empty segment starts anywhere.
    pub fn push(&mut self, seq: u64, record: &Record) {
        if self.offs.is_empty() {
            self.first_seq = seq;
        } else {
            assert_eq!(seq, self.end_seq(), "segment gap: pushed seq {seq}");
        }
        let at = u32::try_from(self.bytes.len()).expect("segments seal far below 4 GiB");
        self.offs.push(at);
        let mut enc = Enc::from(std::mem::take(&mut self.bytes));
        record.encode(&mut enc);
        self.bytes = enc.finish();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.offs.is_empty()
    }

    /// Encoded bytes held.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// One past the sequence of the last entry.
    fn end_seq(&self) -> u64 {
        self.first_seq + self.offs.len() as u64
    }

    /// Forget the entries, keep the buffers.
    pub(crate) fn clear(&mut self) {
        self.offs.clear();
        self.bytes.clear();
    }

    /// Offset at which entry `seq` starts (`end_seq()` ↦ the end).
    fn start_of(&self, seq: u64) -> usize {
        let i = (seq - self.first_seq) as usize;
        self.offs.get(i).map_or(self.bytes.len(), |&o| o as usize)
    }

    fn decode(&self, seq: u64) -> LogEntry {
        let raw = &self.bytes[self.start_of(seq)..self.start_of(seq + 1)];
        let record = Record::decode(&mut Dec::new(raw)).expect("entry was encoded by push");
        LogEntry {
            seq,
            record,
            bytes: raw.len(),
        }
    }

    /// Drop the entries below `seq` (the already-logged prefix of a
    /// re-published segment) and rebase the offsets.
    fn trim_front(&mut self, seq: u64) {
        let base = self.start_of(seq);
        self.offs.drain(..(seq - self.first_seq) as usize);
        for o in &mut self.offs {
            *o -= base as u32;
        }
        self.bytes.drain(..base);
        self.first_seq = seq;
    }

    /// The segment takes no more entries: return the growth slack of its
    /// buffers (a shrinking `realloc` splits the block in place).
    fn seal(&mut self) {
        self.offs.shrink_to_fit();
        self.bytes.shrink_to_fit();
    }
}

/// Append-only log for a single channel.
///
/// Two storage modes, same accounting:
///
/// * **materialized** ([`ChannelLog::new`]) — every entry keeps its
///   encoded [`Record`] (see the module docs), so [`ChannelLog::range`]
///   can replay it after a failure;
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
    /// Contiguous segments covering `[front.first_seq, next_seq)`; the
    /// floor lies inside the front one (materialized mode).
    segs: VecDeque<Segment>,
    /// Per-entry byte sizes (sized-only mode; `segs` stays empty).
    sizes: VecDeque<u32>,
    materialized: bool,
    seal_bytes: usize,
    /// Sequence of the first retained entry (everything below is GC'd).
    first_seq: u64,
    /// Sequence the next fresh append must carry.
    next_seq: u64,
    total_bytes: usize,
}

impl Default for ChannelLog {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelLog {
    pub fn new() -> Self {
        Self::with_seal_bytes(SEAL_BYTES)
    }

    /// [`Self::new`] whose tail segment seals at `seal_bytes` instead of
    /// [`SEAL_BYTES`] — for tests that want many segments from few
    /// entries.
    #[doc(hidden)]
    pub fn with_seal_bytes(seal_bytes: usize) -> Self {
        Self {
            segs: VecDeque::new(),
            sizes: VecDeque::new(),
            materialized: true,
            seal_bytes,
            first_seq: 1,
            next_seq: 1,
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

    /// Append the message with the given channel sequence. Sequences must
    /// be contiguous and ascending; replayed sends after a rollback re-use
    /// their original sequence numbers and are ignored here (the log
    /// already has them).
    pub fn append(&mut self, seq: u64, record: Record) {
        self.append_record(seq, &record);
    }

    /// [`Self::append`] by reference: the record is encoded into the tail
    /// segment, so the sender keeps its copy for the wire.
    pub fn append_record(&mut self, seq: u64, record: &Record) {
        if !self.accept(seq) {
            return;
        }
        if !self.materialized {
            return self.push_size(record.encoded_len());
        }
        if self
            .segs
            .back()
            .is_none_or(|tail| tail.byte_len() >= self.seal_bytes)
        {
            if let Some(full) = self.segs.back_mut() {
                full.seal();
            }
            self.segs.push_back(Segment::default());
        }
        let tail = self.segs.back_mut().expect("a tail was just ensured");
        let before = tail.byte_len();
        tail.push(seq, record);
        self.total_bytes += tail.byte_len() - before;
        self.next_seq += 1;
    }

    /// Append accounting only — the sized-only fast path, where the
    /// caller skips encoding the record altogether.
    pub fn append_size_only(&mut self, seq: u64, bytes: usize) {
        assert!(
            !self.materialized,
            "size-only append into a materialized (replayable) log"
        );
        if self.accept(seq) {
            self.push_size(bytes);
        }
    }

    fn push_size(&mut self, bytes: usize) {
        self.total_bytes += bytes;
        self.sizes.push_back(bytes as u32);
        self.next_seq += 1;
    }

    /// Bulk append of a staged contiguous run (see [`crate::staging`])
    /// under a single lock acquisition at the publication site. Entries
    /// carry their own sequences; re-publication of already-logged
    /// entries after a rollback is ignored per entry, like
    /// [`Self::append`]. Returns how many entries were fresh.
    pub fn append_entries(&mut self, run: impl IntoIterator<Item = LogEntry>) -> u64 {
        let before = self.next_seq;
        for e in run {
            self.append_record(e.seq, &e.record);
        }
        self.next_seq - before
    }

    /// Link a segment a sender filled outside the lock — O(1) unless it
    /// overlaps what is logged. The per-entry contract of
    /// [`Self::append`], applied per segment: one that ends at or below
    /// [`Self::last_seq`] is a re-publication after a rollback and is
    /// ignored, the already-logged prefix of an overlapping one is
    /// trimmed (the original entries stand), a gap panics. Returns how
    /// many entries were fresh.
    pub fn publish(&mut self, mut seg: Segment) -> u64 {
        assert!(self.materialized, "segment published into a sized-only log");
        if seg.is_empty() || seg.end_seq() <= self.next_seq {
            return 0;
        }
        if seg.first_seq < self.next_seq {
            seg.trim_front(self.next_seq);
        }
        assert_eq!(
            seg.first_seq, self.next_seq,
            "channel log gap: published a segment from seq {}, expected {}",
            seg.first_seq, self.next_seq
        );
        seg.seal();
        let fresh = seg.offs.len() as u64;
        self.total_bytes += seg.byte_len();
        self.next_seq = seg.end_seq();
        self.segs.push_back(seg);
        fresh
    }

    /// Contiguity check shared by the append paths: `false` for re-sends
    /// of already-logged messages (post-rollback regeneration; the
    /// original entry stands), panic on gaps.
    fn accept(&self, seq: u64) -> bool {
        let expected = self.next_seq;
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
        self.next_seq - 1
    }

    /// One past the last logged sequence a replay of `(lo, hi]` reaches;
    /// `None` for an empty range. Panics if part of the range was
    /// already truncated — GC reclaimed messages a recovery line still
    /// needed, which is a soundness bug.
    fn replay_end(&self, lo: u64, hi: u64) -> Option<u64> {
        if hi <= lo {
            return None;
        }
        assert!(
            lo + 1 >= self.first_seq,
            "replay range ({lo}, {hi}] reaches below retained seq {}",
            self.first_seq
        );
        Some(hi.saturating_add(1).min(self.next_seq))
    }

    /// The part of `[from, to)` each segment holds, in order.
    fn spans(&self, from: u64, to: u64) -> impl Iterator<Item = (&Segment, u64, u64)> {
        let skip = self.segs.partition_point(|s| s.end_seq() <= from);
        self.segs
            .range(skip..)
            .take_while(move |s| s.first_seq < to)
            .map(move |s| (s, from.max(s.first_seq), to.min(s.end_seq())))
    }

    /// Entries with `lo < seq ≤ hi`, in order, decoded from the segments.
    /// Returns [`ReplayUnavailable`] when the log is sized-only (payloads
    /// were never kept); panics if part of the range was already
    /// truncated — a soundness bug, not a mode mismatch.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<LogEntry>, ReplayUnavailable> {
        if hi > lo && !self.materialized {
            return Err(ReplayUnavailable { lo, hi });
        }
        let Some(end) = self.replay_end(lo, hi) else {
            return Ok(Vec::new());
        };
        let mut entries = Vec::with_capacity(end.saturating_sub(lo + 1) as usize);
        for (seg, from, to) in self.spans(lo + 1, end) {
            entries.extend((from..to).map(|seq| seg.decode(seq)));
        }
        Ok(entries)
    }

    /// Drop entries with `seq < below`. Called when checkpoint retention
    /// guarantees no recovery line can need them. Frees the segments
    /// that end at or below `below`; even when the log runs empty first,
    /// the floor is remembered.
    pub fn truncate_below(&mut self, below: u64) {
        if self.materialized {
            while let Some(front) = self.segs.front() {
                let cut = below.min(front.end_seq());
                if cut <= self.first_seq {
                    break;
                }
                self.total_bytes -= front.start_of(cut) - front.start_of(self.first_seq);
                self.first_seq = cut;
                if cut == front.end_seq() {
                    self.segs.pop_front();
                }
            }
        } else {
            while self.first_seq < below {
                let Some(bytes) = self.sizes.pop_front() else {
                    break;
                };
                self.total_bytes -= bytes as usize;
                self.first_seq += 1;
            }
        }
        self.first_seq = self.first_seq.max(below);
        self.next_seq = self.next_seq.max(below);
    }

    /// Total retained bytes (drives restart-time fetch costs).
    pub fn retained_bytes(&self) -> usize {
        self.total_bytes
    }

    pub fn retained_len(&self) -> usize {
        (self.next_seq - self.first_seq) as usize
    }

    /// Bytes of the entries in `(lo, hi]` — the replay fetch volume.
    /// Works in both modes (sizes are always retained).
    pub fn range_bytes(&self, lo: u64, hi: u64) -> usize {
        let Some(end) = self.replay_end(lo, hi) else {
            return 0;
        };
        if self.materialized {
            return self
                .spans(lo + 1, end)
                .map(|(seg, from, to)| seg.start_of(to) - seg.start_of(from))
                .sum();
        }
        let start = (lo + 1 - self.first_seq) as usize;
        let n = end.saturating_sub(lo + 1) as usize;
        self.sizes
            .iter()
            .skip(start)
            .take(n)
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

    fn segment(seqs: std::ops::Range<u64>, key: u64) -> Segment {
        let mut seg = Segment::default();
        for s in seqs {
            seg.push(s, &Record::new(key, Value::U64(s), 0));
        }
        seg
    }

    #[test]
    fn publish_ignores_logged_trims_overlap_and_keeps_originals() {
        let mut l = filled(5);
        assert_eq!(l.publish(segment(2..5, 999)), 0); // wholly logged
        assert_eq!(l.publish(segment(4..9, 999)), 3); // 4, 5 already logged
        assert_eq!(l.publish(segment(9..11, 999)), 2); // abuts
        assert_eq!(l.last_seq(), 10);
        let keys: Vec<u64> = l
            .range(0, 10)
            .unwrap()
            .iter()
            .map(|e| e.record.key)
            .collect();
        assert_eq!(keys, [1, 2, 3, 4, 5, 999, 999, 999, 999, 999]);
        assert_eq!(l.retained_bytes(), 10 * rec(1).encoded_len());
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn publish_past_a_gap_panics() {
        let mut l = filled(2);
        l.publish(segment(4..6, 0));
    }

    #[test]
    fn sealed_tail_rolls_over_and_truncation_counts_entries() {
        // Each entry is 25 bytes: a 64-byte seal gives 3-entry segments.
        let mut l = ChannelLog::with_seal_bytes(64);
        for s in 1..=10 {
            l.append(s, rec(s));
        }
        l.truncate_below(5); // inside the second segment
        assert_eq!(l.retained_len(), 6);
        assert_eq!(l.retained_bytes(), 6 * rec(1).encoded_len());
        assert_eq!(l.range_bytes(6, 9), 3 * rec(1).encoded_len());
        let seqs: Vec<u64> = l.range(4, 10).unwrap().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [5, 6, 7, 8, 9, 10]);
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
