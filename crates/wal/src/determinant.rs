//! Receiver-side delivery-order logs (message-logging determinants).
//!
//! Sender-side channel logs ([`crate::ChannelLog`]) capture *what* was
//! in flight, but log-based recovery also has to reproduce the order in
//! which each receiver consumed messages across its input channels:
//! operators are only piecewise deterministic, so two replays of the
//! same per-channel FIFO contents in different interleavings can emit
//! different records (classic example here: a link *deletion* on one
//! channel overtaking the source record it would have joined with on
//! another). Message-logging recovery therefore persists a
//! *determinant* per delivery — `(channel, seq)` in processing order —
//! and replays deliveries in exactly that order after a rollback
//! (Alvisi & Marzullo's deterministic-replay condition; Elnozahy et
//! al.'s survey, §3).
//!
//! Each operator instance owns one log. Checkpoints record their
//! absolute position in it; recovery replays the suffix past the
//! restored checkpoint, and retention GC truncates below the oldest
//! position any retained checkpoint can still need.

use checkmate_dataflow::graph::ChannelIdx;
use std::collections::VecDeque;

/// Durable bytes per logged determinant (channel id + sequence).
pub const DET_ENTRY_BYTES: usize = 12;

/// Delivery-order log of a single operator instance.
#[derive(Debug, Default)]
pub struct DeterminantLog {
    entries: VecDeque<(ChannelIdx, u64)>,
    /// Absolute position of `entries[0]` (everything below is GC'd).
    first_pos: u64,
}

impl DeterminantLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a delivery. Re-deliveries during replay re-use their
    /// original position and are ignored (the original entry stands),
    /// mirroring [`crate::ChannelLog::append`].
    pub fn append(&mut self, pos: u64, ch: ChannelIdx, seq: u64) {
        let expected = self.end_pos();
        if pos < expected {
            return;
        }
        assert_eq!(
            pos, expected,
            "determinant log gap: appended pos {pos}, expected {expected}"
        );
        self.entries.push_back((ch, seq));
    }

    /// Bulk append of a staged contiguous run starting at `start_pos`
    /// (see [`crate::staging`]) under a single lock acquisition at the
    /// publication site. Returns how many entries were fresh (replayed
    /// re-deliveries re-publish their original positions and are
    /// ignored).
    pub fn append_run(&mut self, start_pos: u64, entries: &[(ChannelIdx, u64)]) -> u64 {
        let mut fresh = 0;
        for (i, &(ch, seq)) in entries.iter().enumerate() {
            let before = self.end_pos();
            self.append(start_pos + i as u64, ch, seq);
            if self.end_pos() > before {
                fresh += 1;
            }
        }
        fresh
    }

    /// Absolute position one past the last recorded determinant — what a
    /// checkpoint taken now should store.
    pub fn end_pos(&self) -> u64 {
        self.first_pos + self.entries.len() as u64
    }

    /// The delivery order recorded from absolute position `pos` on.
    /// Panics if part of the suffix was truncated — recovery must never
    /// need GC'd determinants.
    pub fn suffix_from(&self, pos: u64) -> VecDeque<(ChannelIdx, u64)> {
        assert!(
            pos >= self.first_pos,
            "determinant replay from pos {pos} reaches below retained pos {}",
            self.first_pos
        );
        self.entries
            .iter()
            .skip((pos - self.first_pos) as usize)
            .copied()
            .collect()
    }

    /// Drop determinants below absolute position `below` (index
    /// arithmetic plus one drain; the floor is remembered even when the
    /// log runs empty first). Returns how many were dropped.
    pub fn truncate_below(&mut self, below: u64) -> usize {
        let n = (below.saturating_sub(self.first_pos) as usize).min(self.entries.len());
        self.entries.drain(..n);
        self.first_pos = self.first_pos.max(below);
        n
    }

    pub fn retained_len(&self) -> usize {
        self.entries.len()
    }

    /// Durable bytes of the suffix from `pos` (recovery fetch volume).
    pub fn suffix_bytes(&self, pos: u64) -> usize {
        (self.end_pos().saturating_sub(pos.max(self.first_pos)) as usize) * DET_ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ChannelIdx = ChannelIdx(0);
    const B: ChannelIdx = ChannelIdx(7);

    #[test]
    fn records_interleaved_order() {
        let mut d = DeterminantLog::new();
        d.append(0, A, 1);
        d.append(1, B, 1);
        d.append(2, A, 2);
        assert_eq!(d.end_pos(), 3);
        assert_eq!(d.suffix_from(1), [(B, 1), (A, 2)]);
        assert_eq!(d.suffix_from(3), []);
    }

    #[test]
    fn replay_appends_are_idempotent() {
        let mut d = DeterminantLog::new();
        d.append(0, A, 1);
        d.append(1, B, 1);
        d.append(0, A, 1); // re-delivery during replay
        d.append(1, B, 1);
        d.append(2, B, 2); // first post-replay progress
        assert_eq!(d.suffix_from(0), [(A, 1), (B, 1), (B, 2)]);
    }

    #[test]
    fn truncation_keeps_absolute_positions() {
        let mut d = DeterminantLog::new();
        for i in 0..10 {
            d.append(i, A, i + 1);
        }
        d.truncate_below(4);
        assert_eq!(d.retained_len(), 6);
        assert_eq!(d.end_pos(), 10);
        assert_eq!(d.suffix_from(4)[0], (A, 5));
        assert_eq!(d.suffix_bytes(4), 6 * DET_ENTRY_BYTES);
        // Truncating an already-empty range just moves the floor.
        d.truncate_below(12);
        assert_eq!(d.retained_len(), 0);
        assert_eq!(d.end_pos(), 12);
    }

    #[test]
    #[should_panic(expected = "reaches below retained pos")]
    fn replay_below_retention_panics() {
        let mut d = DeterminantLog::new();
        d.append(0, A, 1);
        d.append(1, A, 2);
        d.truncate_below(1);
        let _ = d.suffix_from(0);
    }
}
