//! Property tests for the replayable source log and the channel logs —
//! the two substrates recovery correctness rests on.

use checkmate_dataflow::graph::ChannelIdx;
use checkmate_dataflow::{Record, Value};
use checkmate_wal::{ChannelLog, DeterminantLog, EventStream, LogEntry, Schedule, SourceLog};
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

/// The materialized channel log as it was before `take_below`: the
/// pop-one-at-a-time truncation loop, kept as the model the drain-based
/// implementation is checked against.
struct LoopLog {
    entries: VecDeque<LogEntry>,
    first_seq: u64,
    total_bytes: usize,
}

impl LoopLog {
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

    fn append(&mut self, seq: u64, record: Record) {
        if seq <= self.last_seq() {
            return;
        }
        let bytes = record.encoded_len();
        self.total_bytes += bytes;
        self.entries.push_back(LogEntry { seq, record, bytes });
    }

    fn truncate_below(&mut self, below: u64) -> Vec<LogEntry> {
        let mut dropped = Vec::new();
        while let Some(front) = self.entries.front() {
            if front.seq < below {
                self.total_bytes -= front.bytes;
                self.first_seq = front.seq + 1;
                dropped.extend(self.entries.pop_front());
            } else {
                break;
            }
        }
        if self.first_seq < below {
            self.first_seq = below;
        }
        dropped
    }
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

    /// `take_below` leaves the log exactly where the old truncation loop
    /// did — floor, retained length and bytes, last sequence — hands back
    /// exactly the entries the loop dropped, leaves `range` above the
    /// floor alone, and re-appends of logged or truncated sequences stay
    /// ignored. `truncate_below` is the same code with the entries
    /// dropped in place.
    #[test]
    fn take_below_matches_the_truncation_loop(
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..120)
    ) {
        let mut log = ChannelLog::new();
        let mut twin = ChannelLog::new(); // truncated in place
        let mut model = LoopLog::new();
        let mut next_seq = 1u64;
        for (op, x) in ops {
            match op {
                0 | 1 => {
                    let rec = Record::new(next_seq, Value::U64(x), 0);
                    log.append(next_seq, rec.clone());
                    twin.append(next_seq, rec.clone());
                    model.append(next_seq, rec);
                    next_seq += 1;
                }
                2 => {
                    // Anywhere from below the floor to past the end (an
                    // empty log still remembers the floor; the next
                    // append continues from it).
                    let below = x % (next_seq + 3);
                    let taken = log.take_below(below);
                    twin.truncate_below(below);
                    prop_assert_eq!(taken, model.truncate_below(below));
                    next_seq = next_seq.max(below);
                }
                3 => {
                    // Regeneration after a rollback: a sequence already
                    // logged or already truncated, with other contents.
                    if next_seq > 1 {
                        let seq = 1 + x % (next_seq - 1);
                        let rec = Record::new(u64::MAX, Value::U64(!x), 0);
                        log.append(seq, rec.clone());
                        twin.append(seq, rec.clone());
                        model.append(seq, rec);
                    }
                }
                _ => {
                    let lo = model.first_seq - 1 + x % (model.entries.len() as u64 + 1);
                    let hi = model.last_seq();
                    let want: Vec<&LogEntry> =
                        model.entries.iter().filter(|e| e.seq > lo).collect();
                    prop_assert_eq!(log.range(lo, hi).unwrap(), want.clone());
                    prop_assert_eq!(twin.range(lo, hi).unwrap(), want);
                }
            }
            for l in [&log, &twin] {
                prop_assert_eq!(l.retained_len(), model.entries.len());
                prop_assert_eq!(l.retained_bytes(), model.total_bytes);
                prop_assert_eq!(l.last_seq(), model.last_seq());
            }
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
