//! Sender-local staging for the shared protocol logs.
//!
//! The live runtime's hot path used to take a shared mutex for every
//! protocol-log append: one per wire batch on the sender's
//! [`crate::ChannelLog`] and one per delivery on the receiver's
//! [`crate::DeterminantLog`]. Both logs are effectively single-writer
//! (each channel has one sending instance, each instance lives on one
//! worker), so the locks were never guarding real interleaving — they
//! were pure per-append overhead plus cross-worker cache-line traffic on
//! the lock words.
//!
//! [`RunStage`] is the replacement: a worker-local arena of contiguous
//! append runs, one lane per log, accumulated lock-free and published to
//! the shared logs in bulk at the flush boundaries the wire protocol
//! already enforces (`wire.rs`: flush before any marker leaves, flush
//! before every checkpoint capture). [`SegmentStage`] is its sibling for
//! channel payloads: one open [`Segment`] per channel that each send is
//! *encoded* into — once, by reference — and that is handed to the
//! shared [`crate::ChannelLog`] whole. Publication order carries the
//! correctness argument:
//!
//! * **determinants publish before any staged wire leaves the worker**
//!   — a message's content depends on its sender's delivery order so
//!   far; once those determinants are in the shared log *before* the message
//!   becomes visible, any downstream state built on the message is
//!   reproducible by ordered replay;
//! * **channel payloads publish before every checkpoint capture** — a
//!   snapshot's sent watermarks must be covered by the durable channel
//!   logs by the time its metadata becomes restorable. Between
//!   checkpoints the payloads may stay staged: a crash loses them
//!   together with the worker's in-memory state, and the rolled-back
//!   sender regenerates them deterministically (same sequences, same
//!   records — receivers dedup by sequence). A channel's segment also
//!   publishes as soon as it passes [`SEAL_BYTES`], which bounds what a
//!   worker stages and is safe for the same reason: replay never reads
//!   a log past a checkpointed sent watermark, and the regenerated
//!   sends arrive as a segment overlapping what is logged, which the
//!   log trims.
//!
//! Staged runs are discarded on kill/restore exactly like the rest of a
//! worker's volatile state; the shared logs' idempotent append paths
//! absorb the re-publication of regenerated entries.

use crate::channel_log::{Segment, SEAL_BYTES};
use checkmate_dataflow::Record;

/// A worker-local arena of contiguous append runs, one lane per shared
/// log. `stage` is lock-free (a `Vec` push); `publish_into` drains every
/// dirty lane as one `(lane, start_pos, items)` run for bulk append
/// under a single lock acquisition per lane.
#[derive(Debug)]
pub struct RunStage<T> {
    /// `(start_pos, items)` per lane; an empty lane's start is stale.
    lanes: Vec<(u64, Vec<T>)>,
    /// Lanes with staged items, in first-touch order.
    dirty: Vec<u32>,
    staged: u64,
}

impl<T> RunStage<T> {
    pub fn new(n_lanes: usize) -> Self {
        Self {
            lanes: (0..n_lanes).map(|_| (0, Vec::new())).collect(),
            dirty: Vec::new(),
            staged: 0,
        }
    }

    /// Stage one item at absolute position `pos` of `lane`. Positions
    /// within a lane's staged run must be contiguous — the worker derives
    /// them from monotone per-instance counters, and every rebuild of
    /// those counters (kill/restore) clears the stage first.
    pub fn stage(&mut self, lane: u32, pos: u64, item: T) {
        let (start, items) = &mut self.lanes[lane as usize];
        if items.is_empty() {
            *start = pos;
            self.dirty.push(lane);
        } else {
            debug_assert_eq!(
                pos,
                *start + items.len() as u64,
                "staged run gap on lane {lane}"
            );
        }
        items.push(item);
        self.staged += 1;
    }

    /// Total items currently staged across all lanes.
    pub fn staged(&self) -> u64 {
        self.staged
    }

    pub fn is_empty(&self) -> bool {
        self.staged == 0
    }

    /// Drain every dirty lane into `sink` as `(lane, start_pos, items)`,
    /// in first-touch order. Returns the number of items published. The
    /// per-lane `Vec` allocations are recycled.
    pub fn publish_into(&mut self, mut sink: impl FnMut(u32, u64, &mut Vec<T>)) -> u64 {
        let published = self.staged;
        for lane in self.dirty.drain(..) {
            let (start, items) = &mut self.lanes[lane as usize];
            sink(lane, *start, items);
            items.clear();
        }
        self.staged = 0;
        published
    }

    /// Discard everything staged (worker kill/restore: staged runs die
    /// with the rest of the volatile state).
    pub fn clear(&mut self) {
        for lane in self.dirty.drain(..) {
            self.lanes[lane as usize].1.clear();
        }
        self.staged = 0;
    }
}

/// Worker-local staging of channel payloads: one open [`Segment`] per
/// channel. `stage` encodes the record into the channel's segment — no
/// lock, no clone of the record — and publication moves whole segments
/// into the shared logs.
#[derive(Debug)]
pub struct SegmentStage {
    lanes: Vec<Segment>,
    /// Lanes whose segment holds entries.
    dirty: Vec<u32>,
}

impl SegmentStage {
    pub fn new(n_lanes: usize) -> Self {
        Self {
            lanes: (0..n_lanes).map(|_| Segment::default()).collect(),
            dirty: Vec::new(),
        }
    }

    /// Encode `record` as entry `seq` of `lane`'s open segment.
    /// Sequences within a lane's segment are contiguous (the segment
    /// panics otherwise) — every rebuild of the send counters
    /// (kill/restore) clears the stage first. Returns `true` once the
    /// segment has passed [`SEAL_BYTES`] and should be [`Self::take`]n.
    pub fn stage(&mut self, lane: u32, seq: u64, record: &Record) -> bool {
        let seg = &mut self.lanes[lane as usize];
        if seg.is_empty() {
            self.dirty.push(lane);
        }
        seg.push(seq, record);
        seg.byte_len() >= SEAL_BYTES
    }

    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Take `lane`'s segment for publication; the lane restarts empty.
    pub fn take(&mut self, lane: u32) -> Segment {
        self.dirty.retain(|&l| l != lane);
        std::mem::take(&mut self.lanes[lane as usize])
    }

    /// Hand every non-empty segment to `sink` as `(lane, segment)`.
    pub fn publish_into(&mut self, mut sink: impl FnMut(u32, Segment)) {
        for lane in self.dirty.drain(..) {
            sink(lane, std::mem::take(&mut self.lanes[lane as usize]));
        }
    }

    /// Discard everything staged (worker kill/restore).
    pub fn clear(&mut self) {
        for lane in self.dirty.drain(..) {
            self.lanes[lane as usize].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_accumulates_and_publishes_runs() {
        let mut s: RunStage<u64> = RunStage::new(4);
        s.stage(1, 10, 100);
        s.stage(1, 11, 101);
        s.stage(3, 0, 300);
        assert_eq!(s.staged(), 3);
        let mut seen = Vec::new();
        let published = s.publish_into(|lane, start, items| {
            seen.push((lane, start, items.clone()));
        });
        assert_eq!(published, 3);
        assert!(s.is_empty());
        assert_eq!(seen, vec![(1, 10, vec![100, 101]), (3, 0, vec![300])]);
        // Lanes are reusable after publication, at any new position.
        s.stage(1, 12, 102);
        assert_eq!(s.staged(), 1);
    }

    #[test]
    fn clear_discards_staged_runs() {
        let mut s: RunStage<u32> = RunStage::new(2);
        s.stage(0, 5, 1);
        s.clear();
        assert!(s.is_empty());
        let published = s.publish_into(|_, _, _| panic!("nothing to publish"));
        assert_eq!(published, 0);
        // Post-clear staging restarts the lane run anywhere (rollback).
        s.stage(0, 2, 9);
        let mut got = Vec::new();
        s.publish_into(|lane, start, items| got.push((lane, start, items.clone())));
        assert_eq!(got, vec![(0, 2, vec![9])]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "staged run gap"))]
    fn staged_gap_is_a_bug() {
        let mut s: RunStage<u8> = RunStage::new(1);
        s.stage(0, 0, 1);
        s.stage(0, 2, 2); // release builds skip the check and return
    }

    #[test]
    fn segment_stage_fills_takes_and_clears() {
        use crate::{ChannelLog, SEAL_BYTES};
        use checkmate_dataflow::{Record, Value};
        let rec = Record::new(7, Value::str("x".repeat(1_000)), 0);
        let mut logs = [ChannelLog::new(), ChannelLog::new()];
        let mut s = SegmentStage::new(2);
        assert!(s.is_empty());
        s.stage(0, 1, &rec);
        // Lane 1 fills to the seal threshold and publishes early.
        let mut seq = 0;
        loop {
            seq += 1;
            if s.stage(1, seq, &rec) {
                break;
            }
        }
        assert_eq!(seq as usize, SEAL_BYTES.div_ceil(rec.encoded_len()));
        assert_eq!(logs[1].publish(s.take(1)), seq);
        s.stage(1, seq + 1, &rec);
        s.publish_into(|lane, seg| {
            logs[lane as usize].publish(seg);
        });
        assert!(s.is_empty());
        assert_eq!((logs[0].last_seq(), logs[1].last_seq()), (1, seq + 1));
        // Cleared lanes restart anywhere (rollback).
        s.stage(0, 9, &rec);
        s.clear();
        assert!(s.is_empty());
        s.stage(0, 2, &rec);
        s.publish_into(|_, seg| assert_eq!(logs[0].publish(seg), 1));
    }
}
