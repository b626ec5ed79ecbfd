//! Property tests for the replayable source log and the channel logs —
//! the two substrates recovery correctness rests on.

use checkmate_dataflow::graph::ChannelIdx;
use checkmate_dataflow::{Record, Value};
use checkmate_wal::{
    ChannelLog, DeterminantLog, EventStream, LogEntry, Schedule, Segment, SourceLog,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

struct HashStream {
    partitions: u32,
    seed: u64,
}

impl EventStream for HashStream {
    fn partitions(&self) -> u32 {
        self.partitions
    }
    fn record(&self, p: u32, o: u64) -> Record {
        let g = o * self.partitions as u64 + p as u64;
        Record::new(g ^ self.seed, Value::U64(g.wrapping_mul(self.seed | 1)), 0)
    }
}

/// The channel log as it was before byte segments — a `VecDeque` of
/// owned entries truncated one pop at a time — kept as the oracle the
/// segment log is checked against.
struct EntryLog {
    entries: VecDeque<LogEntry>,
    first_seq: u64,
    total_bytes: usize,
}

impl EntryLog {
    fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            first_seq: 1,
            total_bytes: 0,
        }
    }

    fn last_seq(&self) -> u64 {
        self.first_seq + self.entries.len() as u64 - 1
    }

    /// Re-sends are ignored; the caller checks gaps (they panic).
    fn append(&mut self, seq: u64, record: Record) {
        if seq <= self.last_seq() {
            return;
        }
        assert_eq!(seq, self.last_seq() + 1, "the script appended past a gap");
        let bytes = record.encoded_len();
        self.total_bytes += bytes;
        self.entries.push_back(LogEntry { seq, record, bytes });
    }

    fn truncate_below(&mut self, below: u64) {
        while let Some(front) = self.entries.front() {
            if front.seq < below {
                self.total_bytes -= front.bytes;
                self.first_seq = front.seq + 1;
                self.entries.pop_front();
            } else {
                break;
            }
        }
        if self.first_seq < below {
            self.first_seq = below;
        }
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<LogEntry> {
        self.entries
            .iter()
            .filter(|e| e.seq > lo && e.seq <= hi)
            .cloned()
            .collect()
    }
}

/// Payloads of several encoded sizes, so segments seal after varying
/// entry counts.
fn payload(seq: u64, x: u64) -> Record {
    let value = match x % 3 {
        0 => Value::U64(x),
        1 => Value::str("s".repeat((x % 41) as usize)),
        _ => Value::tuple(vec![Value::U64(x), Value::Unit]),
    };
    Record::new(seq, value, x)
}

fn panics(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

proptest! {
    /// Availability is monotone in offset, readable_at ≥ available_at,
    /// and batch boundaries quantize correctly.
    #[test]
    fn schedule_monotone_and_batched(
        rate in 1.0f64..50_000.0,
        batch in 0u64..500_000_000,
        offsets in proptest::collection::vec(0u64..100_000, 1..20),
    ) {
        let s = Schedule::new(rate).with_batch(batch);
        for &o in &offsets {
            let a = s.available_at(o).unwrap();
            let r = s.readable_at(o).unwrap();
            prop_assert!(r >= a);
            if batch > 0 {
                prop_assert_eq!(r % batch, 0);
                prop_assert!(r - a < batch);
            } else {
                prop_assert_eq!(r, a);
            }
            if o > 0 {
                prop_assert!(s.available_at(o - 1).unwrap() <= a);
            }
        }
    }

    /// Replay purity: polling any suffix twice yields identical records —
    /// the property that makes source rewind after recovery exact.
    #[test]
    fn source_replay_is_pure(
        seed in any::<u64>(),
        partition in 0u32..4,
        from in 0u64..500,
        n in 1u64..50,
    ) {
        let log = SourceLog::new(
            Arc::new(HashStream { partitions: 4, seed }) as Arc<dyn EventStream>,
            Schedule::new(1_000.0),
        );
        let late = u64::MAX / 2;
        let first: Vec<_> = (from..from + n).map(|o| log.poll(partition, o, late)).collect();
        let again: Vec<_> = (from..from + n).map(|o| log.poll(partition, o, late)).collect();
        prop_assert_eq!(first, again);
    }

    /// Bounded schedules expose exactly the limit.
    #[test]
    fn limits_are_exact(limit in 1u64..1_000, rate in 1.0f64..10_000.0) {
        let s = Schedule::new(rate).with_limit(limit);
        prop_assert!(s.available_at(limit).is_none());
        prop_assert!(s.available_at(limit - 1).is_some());
        prop_assert_eq!(s.available_until(u64::MAX / 2), limit);
    }

    /// The channel log agrees with a naive model under arbitrary
    /// append/truncate/range interleavings.
    #[test]
    fn channel_log_matches_model(
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..80)
    ) {
        let mut log = ChannelLog::new();
        let mut model: Vec<u64> = Vec::new(); // retained seqs
        let mut next_seq = 1u64;
        let mut floor = 1u64;
        for (op, x) in ops {
            match op {
                0 => {
                    let rec = Record::new(next_seq, Value::U64(x), 0);
                    log.append(next_seq, rec);
                    model.push(next_seq);
                    next_seq += 1;
                }
                1 => {
                    // truncate somewhere at or below the next sequence
                    let below = (x % next_seq).max(floor);
                    log.truncate_below(below);
                    model.retain(|&s| s >= below);
                    floor = floor.max(below);
                }
                _ => {
                    // range query within retained bounds
                    if next_seq > floor {
                        let lo = floor - 1 + x % (next_seq - floor + 1);
                        let hi = next_seq - 1;
                        let got: Vec<u64> =
                            log.range(lo, hi).unwrap().iter().map(|e| e.seq).collect();
                        let want: Vec<u64> =
                            model.iter().copied().filter(|&s| s > lo && s <= hi).collect();
                        prop_assert_eq!(got, want);
                    }
                }
            }
            prop_assert_eq!(log.retained_len(), model.len());
            prop_assert_eq!(log.last_seq(), next_seq - 1);
        }
    }

    /// The segment log is indistinguishable from the entry log it
    /// replaced: under random scripts of `append`, `append_entries`,
    /// segment publication (wholly below, overlapping and abutting
    /// `last_seq`), re-sends and `truncate_below` (inside a segment, on a
    /// boundary, past the end) — with segments sealing at 64 B so a few
    /// entries fill one — `range`, `range_bytes`, `retained_len`,
    /// `retained_bytes`, `last_seq` and both panics agree at every step.
    #[test]
    fn segment_log_matches_the_entry_log(
        ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..120)
    ) {
        let mut log = ChannelLog::with_seal_bytes(64);
        let mut model = EntryLog::new();
        for (op, x) in ops {
            let next = model.last_seq() + 1;
            match op {
                0 => {
                    log.append(next, payload(next, x));
                    model.append(next, payload(next, x));
                }
                1 => {
                    let run: Vec<LogEntry> = (next..next + 1 + x % 5)
                        .map(|seq| {
                            let record = payload(seq, x ^ seq);
                            let bytes = record.encoded_len();
                            LogEntry { seq, record, bytes }
                        })
                        .collect();
                    prop_assert_eq!(log.append_entries(run.clone()), run.len() as u64);
                    for e in run {
                        model.append(e.seq, e.record);
                    }
                }
                2 | 3 => {
                    // A sender's segment: from up to 6 below `next` (a
                    // re-publication after a rollback, regenerated with
                    // other contents so a trim that kept the wrong copy
                    // shows) up to `next` itself, 0..8 entries long.
                    let first = next - (x % 7).min(next - 1);
                    let len = x / 7 % 8;
                    let mut seg = Segment::default();
                    for seq in first..first + len {
                        seg.push(seq, &payload(seq, !x ^ seq));
                    }
                    let fresh = (first + len).saturating_sub(next);
                    prop_assert_eq!(log.publish(seg), fresh);
                    for seq in first..first + len {
                        model.append(seq, payload(seq, !x ^ seq));
                    }
                }
                4 => {
                    // Anywhere from below the floor to past the end (an
                    // empty log still remembers the floor; the next
                    // append continues from it).
                    let below = x % (next + 3);
                    log.truncate_below(below);
                    model.truncate_below(below);
                }
                // Regeneration after a rollback: a sequence already
                // logged or already truncated, with other contents.
                5 if next > 1 => {
                    let seq = 1 + x % (next - 1);
                    log.append(seq, payload(u64::MAX, !x));
                    model.append(seq, payload(u64::MAX, !x));
                }
                6 => {
                    // Both panics, neither of which may change the log.
                    let gap = next + 1 + x % 3;
                    prop_assert!(panics(|| log.append(gap, payload(gap, x))));
                    let mut seg = Segment::default();
                    seg.push(gap, &payload(gap, x));
                    prop_assert!(panics(|| { log.publish(seg); }));
                    if model.first_seq > 1 {
                        let lo = x % (model.first_seq - 1);
                        prop_assert!(panics(|| { let _ = log.range(lo, next); }));
                        prop_assert!(panics(|| { log.range_bytes(lo, next); }));
                    }
                }
                _ => {}
            }
            prop_assert_eq!(log.retained_len(), model.entries.len());
            prop_assert_eq!(log.retained_bytes(), model.total_bytes);
            prop_assert_eq!(log.last_seq(), model.last_seq());
            // A replay window anywhere in the retained part, reaching to
            // or past the end.
            let lo = model.first_seq - 1 + x % (model.entries.len() as u64 + 1);
            let hi = lo + x % (model.last_seq() + 2 - lo);
            let want = model.range(lo, hi);
            prop_assert_eq!(log.range_bytes(lo, hi), want.iter().map(|e| e.bytes).sum::<usize>());
            prop_assert_eq!(log.range(lo, hi).unwrap(), want);
        }
    }

    /// Truncating a determinant log never changes what recovery reads:
    /// every suffix from a position at or above the floor equals the
    /// untruncated log's, re-deliveries below the end stay ignored, and
    /// the reported drop count is the retained length lost.
    #[test]
    fn determinant_truncation_preserves_suffixes(
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..120)
    ) {
        let mut log = DeterminantLog::new();
        let mut full = DeterminantLog::new(); // never truncated
        let mut floor = 0u64;
        for (op, x) in ops {
            let end = full.end_pos();
            match op {
                0 | 1 => {
                    let det = (ChannelIdx((x % 5) as u32), x / 5);
                    log.append(end, det.0, det.1);
                    full.append(end, det.0, det.1);
                }
                2 => {
                    // Floors come from checkpointed positions: never
                    // past the end of the log.
                    let below = x % (end + 1);
                    let before = log.retained_len();
                    let dropped = log.truncate_below(below);
                    prop_assert_eq!(dropped, before - log.retained_len());
                    floor = floor.max(below);
                }
                _ => {
                    if end > 0 {
                        let pos = x % end;
                        log.append(pos, ChannelIdx(99), u64::MAX);
                        full.append(pos, ChannelIdx(99), u64::MAX);
                    }
                }
            }
            prop_assert_eq!(log.end_pos(), full.end_pos());
            prop_assert_eq!(log.retained_len() as u64, full.end_pos() - floor);
            let pos = floor + x % (full.end_pos() - floor + 1);
            prop_assert_eq!(log.suffix_from(pos), full.suffix_from(pos));
        }
    }
}
