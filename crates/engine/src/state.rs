//! Engine-internal state: operator instances, workers, and the
//! coordinator's bookkeeping.

use crate::msg::NetMsg;
use checkmate_core::{
    ChannelBook, CheckpointMeta, CicState, CoorAligner, ProtocolKind, SnapshotManifest,
};
use checkmate_dataflow::graph::{ChannelIdx, InstanceIdx};
use checkmate_dataflow::{Codec, Dec, Enc, OpId, Operator, PhysicalGraph};
use checkmate_sim::{CalendarIndex, SimTime};
use checkmate_wal::SourceCursor;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One operator instance hosted on a worker.
pub struct LocalInstance {
    pub idx: InstanceIdx,
    pub op_id: OpId,
    pub op: Box<dyn Operator>,
    pub book: ChannelBook,
    /// COOR alignment state (non-source instances under COOR only).
    pub aligner: Option<CoorAligner>,
    /// CIC clocks/vectors (CIC protocols only).
    pub cic: Option<CicState>,
    /// Index of the last checkpoint captured (0 = initial).
    pub ckpt_index: u64,
    /// Source cursor (source instances only).
    pub cursor: Option<SourceCursor>,
    /// Stream id read by this source instance.
    pub stream: Option<u32>,
    /// Timer instants already requested from the scheduler (dedup).
    pub scheduled_timers: BTreeSet<SimTime>,
    /// Pending determinant replay (UNC/CIC recovery): deliveries must
    /// follow this recorded cross-channel order until it drains, at
    /// which point the instance is caught up to its pre-failure state
    /// and resumes free-order processing. Volatile — rebuilt from the
    /// durable determinant log at restart.
    pub det_replay: VecDeque<(ChannelIdx, u64)>,
    /// Messages that arrived ahead of their determinant turn, parked
    /// here (keyed by `(channel, seq)`, with their original queue key)
    /// so the worker's dispatch scan skips each at most once instead of
    /// rescanning the whole backlog per delivery. Returned to the
    /// worker queue when replay drains. Volatile.
    pub det_parked: BTreeMap<(ChannelIdx, u64), (QueueKey, NetMsg)>,
    /// Manifest of this instance's most recent checkpoint (incremental
    /// checkpointing only) — the dedup baseline the next checkpoint
    /// plans against. Reset from the restored meta at recovery, so
    /// post-rollback checkpoints never reference discarded chunks.
    pub last_manifest: Option<SnapshotManifest>,
}

impl LocalInstance {
    /// Serialize the full recoverable state: operator + channel book +
    /// protocol state + source cursor.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::with_capacity(self.op.state_size() + 64);
        enc.bytes(&self.op.snapshot());
        self.book.encode(&mut enc);
        match &self.cic {
            Some(c) => {
                enc.bool(true);
                c.encode(&mut enc);
            }
            None => {
                enc.bool(false);
            }
        }
        match &self.cursor {
            Some(c) => {
                enc.bool(true);
                enc.u64(c.next_offset);
            }
            None => {
                enc.bool(false);
            }
        }
        enc.finish()
    }

    /// Exact byte length of [`Self::snapshot_bytes`]'s output, computed
    /// without encoding: the operator's exact `snapshot_len` behind its
    /// 4-byte length prefix, the channel book, the flagged CIC state and
    /// the flagged source cursor. Sized-only snapshot accounting prices
    /// checkpoints from this on failure-free runs; equality with the
    /// encoder is asserted in tests and (end-to-end, bit-for-bit)
    /// against the full-encode oracle in `session_equivalence.rs`.
    pub fn snapshot_len(&self) -> usize {
        4 + self.op.snapshot_len()
            + self.book.encoded_len()
            + 1
            + self.cic.as_ref().map_or(0, |c| c.encoded_len())
            + 1
            + if self.cursor.is_some() { 8 } else { 0 }
    }

    /// Return the instance to the state [`build_worker_instances`]
    /// creates, reusing the boxed operator (and whatever allocations its
    /// `Operator::reset` keeps) instead of rebuilding it from the
    /// factory. Run sessions call this between runs.
    pub fn reset(&mut self, pg: &PhysicalGraph, protocol: ProtocolKind) {
        self.op.reset();
        self.book.reset();
        let is_source = self.is_source();
        // Protocol state resets in place when last run's value has the
        // right shape (same pg + idx ⇒ same in-channels / same (me, n)),
        // and is rebuilt only across protocol switches — probe loops
        // then stop re-allocating the per-instance vectors each run.
        if protocol == ProtocolKind::Coordinated && !is_source {
            match self.aligner.as_mut() {
                Some(a) => a.reset(),
                None => self.aligner = Some(CoorAligner::new(pg.in_channels_of(self.idx).to_vec())),
            }
        } else {
            self.aligner = None;
        }
        match protocol {
            ProtocolKind::CommunicationInduced => {
                let (me, n) = (self.idx.0 as usize, pg.n_instances());
                if !self.cic.as_mut().is_some_and(|c| c.reset_hmnr(me, n)) {
                    self.cic = Some(CicState::hmnr(me, n));
                }
            }
            ProtocolKind::CommunicationInducedBcs => {
                if !self.cic.as_mut().is_some_and(|c| c.reset_bcs()) {
                    self.cic = Some(CicState::bcs());
                }
            }
            _ => self.cic = None,
        }
        self.ckpt_index = 0;
        self.cursor = is_source.then(SourceCursor::default);
        self.scheduled_timers.clear();
        self.det_replay.clear();
        self.det_parked.clear();
        self.last_manifest = None;
    }

    /// Restore from [`Self::snapshot_bytes`] output.
    pub fn restore_from(&mut self, bytes: &[u8]) {
        let mut dec = Dec::new(bytes);
        let op_bytes = dec.bytes().expect("snapshot: operator bytes");
        self.op.restore(op_bytes).expect("snapshot: operator state");
        self.book = ChannelBook::decode(&mut dec).expect("snapshot: channel book");
        if dec.bool().expect("snapshot: cic flag") {
            self.cic = Some(CicState::decode(&mut dec).expect("snapshot: cic state"));
        } else {
            self.cic = None;
        }
        if dec.bool().expect("snapshot: cursor flag") {
            self.cursor = Some(SourceCursor {
                next_offset: dec.u64().expect("snapshot: cursor"),
            });
        } else {
            self.cursor = None;
        }
        dec.finish().expect("snapshot: trailing bytes");
        self.scheduled_timers.clear();
        self.det_replay.clear();
        self.det_parked.clear();
    }

    pub fn is_source(&self) -> bool {
        self.stream.is_some()
    }
}

/// A queued message key: (arrival time, global arrival sequence) —
/// processing order within a worker.
pub type QueueKey = (SimTime, u64);

/// Which ordered structure indexes the per-worker [`ArrivalQueue`]s.
/// Selected by `EngineConfig::arrival_index`; both produce bit-identical
/// runs (property-tested in `engine/tests/arrival_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalIndex {
    /// Ladder/calendar index ([`CalendarIndex`]): O(1) amortized
    /// insert/pop on the arrival pattern, bucket scans on the cold
    /// ordered-scan and removal paths.
    #[default]
    Calendar,
    /// The original `BTreeMap` index, kept as the equivalence oracle.
    BTree,
}

/// Arrival-ordered inbound message queue.
///
/// An ordered index of small `(key → slot)` entries over a slab of
/// messages: the index then shifts 24-byte entries instead of whole
/// `NetMsg`s (~4× less memory traffic on the hottest per-record
/// structure), while keeping every ordered-scan operation the dispatch
/// and determinant-replay paths rely on. Two interchangeable index
/// structures implement that contract (see [`ArrivalIndex`]); the slab
/// and free list are shared, so switching the index preserves the slot
/// discipline bit for bit.
pub struct ArrivalQueue {
    index: Index,
    slots: Vec<Option<NetMsg>>,
    free: Vec<u32>,
    /// Scratch key buffer for the BTree index's purge sweeps. Rides the
    /// queue through `SimArena` / session pooling (workers keep their
    /// queues between runs), so sender-failure sweeps stay
    /// allocation-free in the steady state. The calendar index purges in
    /// place and never touches it.
    scratch: Vec<QueueKey>,
}

enum Index {
    Calendar(CalendarIndex),
    BTree(BTreeMap<QueueKey, u32>),
}

impl Default for ArrivalQueue {
    fn default() -> Self {
        Self::with_index(ArrivalIndex::default())
    }
}

impl ArrivalQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_index(kind: ArrivalIndex) -> Self {
        Self {
            index: match kind {
                ArrivalIndex::Calendar => Index::Calendar(CalendarIndex::new()),
                ArrivalIndex::BTree => Index::BTree(BTreeMap::new()),
            },
            slots: Vec::new(),
            free: Vec::new(),
            scratch: Vec::new(),
        }
    }

    pub fn index_kind(&self) -> ArrivalIndex {
        match self.index {
            Index::Calendar(_) => ArrivalIndex::Calendar,
            Index::BTree(_) => ArrivalIndex::BTree,
        }
    }

    pub fn insert(&mut self, key: QueueKey, msg: NetMsg) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(msg);
                s
            }
            None => {
                self.slots.push(Some(msg));
                (self.slots.len() - 1) as u32
            }
        };
        match &mut self.index {
            Index::Calendar(c) => c.insert(key, slot), // dup-checked in debug
            Index::BTree(t) => {
                let prev = t.insert(key, slot);
                debug_assert!(prev.is_none(), "duplicate queue key");
            }
        }
    }

    /// Earliest entry (key and message), without removing it. `&mut`
    /// because the calendar index restructures lazily on peeks.
    pub fn first(&mut self) -> Option<(QueueKey, &NetMsg)> {
        let (key, slot) = match &mut self.index {
            Index::Calendar(c) => c.first()?,
            Index::BTree(t) => t.first_key_value().map(|(&k, &s)| (k, s))?,
        };
        Some((key, self.slots[slot as usize].as_ref().expect("live slot")))
    }

    pub fn first_key(&mut self) -> Option<QueueKey> {
        match &mut self.index {
            Index::Calendar(c) => c.first_key(),
            Index::BTree(t) => t.first_key_value().map(|(&k, _)| k),
        }
    }

    pub fn pop_first(&mut self) -> Option<(QueueKey, NetMsg)> {
        let (key, slot) = match &mut self.index {
            Index::Calendar(c) => c.pop_first()?,
            Index::BTree(t) => t.pop_first()?,
        };
        self.free.push(slot);
        Some((key, self.slots[slot as usize].take().expect("live slot")))
    }

    /// Pop the earliest entry only if it has arrived by `now` — the
    /// dispatch fast path's peek-then-pop collapsed into one index
    /// descent and one slab access.
    pub fn pop_first_due(&mut self, now: SimTime) -> Option<(QueueKey, NetMsg)> {
        let (key, slot) = match &mut self.index {
            Index::Calendar(c) => c.pop_first_due(now)?,
            Index::BTree(t) => {
                let entry = t.first_entry()?;
                if entry.key().0 > now {
                    return None; // earliest message has not arrived yet
                }
                let key = *entry.key();
                (key, entry.remove())
            }
        };
        self.free.push(slot);
        Some((key, self.slots[slot as usize].take().expect("live slot")))
    }

    pub fn remove(&mut self, key: &QueueKey) -> Option<NetMsg> {
        let slot = match &mut self.index {
            Index::Calendar(c) => c.remove(key)?,
            Index::BTree(t) => t.remove(key)?,
        };
        self.free.push(slot);
        Some(self.slots[slot as usize].take().expect("live slot"))
    }

    pub fn get(&self, key: &QueueKey) -> Option<&NetMsg> {
        let slot = match &self.index {
            Index::Calendar(c) => c.get(key)?,
            Index::BTree(t) => *t.get(key)?,
        };
        Some(self.slots[slot as usize].as_ref().expect("live slot"))
    }

    /// The first key strictly after `prev` (ordered-scan cursor).
    pub fn next_key_after(&self, prev: QueueKey) -> Option<QueueKey> {
        match &self.index {
            Index::Calendar(c) => c.next_key_after(prev),
            Index::BTree(t) => t
                .range((std::ops::Bound::Excluded(prev), std::ops::Bound::Unbounded))
                .next()
                .map(|(&k, _)| k),
        }
    }

    /// Remove every entry whose arrival instant is at or after `now` and
    /// whose message matches `pred`. Batched ship events insert messages
    /// ahead of their arrival instants; when a sender fails, the entries
    /// it shipped that have not yet *arrived* must die exactly as their
    /// individual arrival events would have (the per-message plane drops
    /// them on the stale-incarnation check at each arrival).
    pub fn purge_not_arrived(&mut self, now: SimTime, mut pred: impl FnMut(&NetMsg) -> bool) {
        match &mut self.index {
            Index::Calendar(c) => {
                let slots = &mut self.slots;
                let free = &mut self.free;
                c.purge_from(now, |_, slot| {
                    let dead = pred(slots[slot as usize].as_ref().expect("live slot"));
                    if dead {
                        slots[slot as usize] = None;
                        free.push(slot);
                    }
                    dead
                });
            }
            Index::BTree(t) => {
                self.scratch.clear();
                self.scratch.extend(
                    t.range((now, 0)..)
                        .filter(|(_, &slot)| {
                            pred(self.slots[slot as usize].as_ref().expect("live slot"))
                        })
                        .map(|(&k, _)| k),
                );
                for i in 0..self.scratch.len() {
                    let k = self.scratch[i];
                    let slot = t.remove(&k).expect("collected above");
                    self.slots[slot as usize] = None;
                    self.free.push(slot);
                }
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        match &self.index {
            Index::Calendar(c) => c.is_empty(),
            Index::BTree(t) => t.is_empty(),
        }
    }

    pub fn clear(&mut self) {
        match &mut self.index {
            Index::Calendar(c) => c.clear(),
            Index::BTree(t) => t.clear(),
        }
        self.slots.clear();
        self.free.clear();
    }
}

/// One worker node.
pub struct Worker {
    pub id: u32,
    pub down: bool,
    pub paused: bool,
    /// Bumped on failure and restart; events carrying an older incarnation
    /// are stale and dropped.
    pub incarnation: u32,
    /// A task is currently executing (a TaskDone event is scheduled).
    pub running: bool,
    pub busy_until: SimTime,
    /// Arrival-ordered inbound messages.
    pub queue: ArrivalQueue,
    /// Messages of blocked channels (COOR alignment), keeping their
    /// original queue keys for order-preserving re-insertion.
    pub stash: BTreeMap<ChannelIdx, Vec<(QueueKey, NetMsg)>>,
    /// Channels currently blocked by alignment.
    pub blocked: BTreeSet<ChannelIdx>,
    /// COOR: source-trigger requests (instance op id, round).
    pub pending_triggers: VecDeque<(OpId, u64)>,
    /// UNC/CIC: instances whose local checkpoint timer fired.
    pub pending_ckpts: VecDeque<OpId>,
    /// Operator timers due (fire time, op).
    pub due_timers: BTreeSet<(SimTime, OpId)>,
    /// Round-robin cursor over source ops for fair polling.
    pub src_rr: usize,
    /// Ops hosting a source instance here (poll scans only these).
    pub src_ops: Vec<OpId>,
    /// Fair interleaving between source polls and inbound messages: the
    /// worker alternates one source read with one message. Without this,
    /// sources would yield completely to downstream traffic and queues
    /// would never build — real engines push from sources while buffers
    /// allow, which is exactly what makes markers wait under load.
    pub prefer_source: bool,
    /// Earliest wake-up already scheduled (dedup of Wake events).
    pub wake_at: Option<SimTime>,
    /// Instances hosted here, indexed by `OpId.0`.
    pub instances: Vec<LocalInstance>,
}

impl Worker {
    pub fn instance(&self, op: OpId) -> &LocalInstance {
        &self.instances[op.0 as usize]
    }

    pub fn instance_mut(&mut self, op: OpId) -> &mut LocalInstance {
        &mut self.instances[op.0 as usize]
    }

    /// Drop all volatile state (failure): queues, stashes, pending work.
    /// Operator state remains in memory but is dead — a restart replaces
    /// it from durable checkpoints.
    pub fn clear_volatile(&mut self) {
        self.queue.clear();
        self.stash.clear();
        self.blocked.clear();
        self.pending_triggers.clear();
        self.pending_ckpts.clear();
        self.due_timers.clear();
        self.wake_at = None;
        self.running = false;
        for inst in &mut self.instances {
            inst.det_replay.clear();
            inst.det_parked.clear();
        }
    }

    /// Return the worker to its birth state for a new run, keeping the
    /// arrival-queue slabs and every operator instance (reset in place)
    /// alive. After this the worker is indistinguishable from one built
    /// by a fresh [`build_worker_instances`] + `Engine` construction —
    /// the protocol may differ from the previous run's (aligner/CIC
    /// state is rebuilt from `protocol`), only the physical graph and
    /// parallelism must match.
    pub fn reset_for_run(&mut self, pg: &PhysicalGraph, protocol: ProtocolKind) {
        self.down = false;
        self.paused = false;
        self.incarnation = 0;
        self.running = false;
        self.busy_until = 0;
        self.queue.clear();
        self.stash.clear();
        self.blocked.clear();
        self.pending_triggers.clear();
        self.pending_ckpts.clear();
        self.due_timers.clear();
        self.src_rr = 0;
        self.prefer_source = false;
        self.wake_at = None;
        for inst in &mut self.instances {
            inst.reset(pg, protocol);
        }
    }

    /// Move stashed messages of `ch` back into the queue (alignment
    /// unblock); original keys restore original processing order.
    pub fn unstash(&mut self, ch: ChannelIdx) {
        self.blocked.remove(&ch);
        if let Some(items) = self.stash.remove(&ch) {
            for (key, msg) in items {
                self.queue.insert(key, msg);
            }
        }
    }
}

/// Coordinator-side run bookkeeping.
pub struct Coordinator {
    pub protocol: ProtocolKind,
    /// All durable checkpoint metadata, keyed by (instance, index).
    pub metas: BTreeMap<(InstanceIdx, u64), CheckpointMeta>,
    /// Last started coordinated round.
    pub round: u64,
    pub round_started_at: BTreeMap<u64, SimTime>,
    pub round_acks: BTreeMap<u64, BTreeSet<InstanceIdx>>,
    pub rounds_completed: u64,
    /// COOR: initiation → completion per round.
    pub round_durations: Vec<u64>,
    /// UNC/CIC: capture → durable per checkpoint.
    pub ckpt_durations: Vec<u64>,
    /// Most recently failed worker (reporting compatibility).
    pub failed_worker: Option<u32>,
    /// Workers currently down (killed, not yet restarted). Overlapping
    /// storm kills put several workers here at once; a restart clears
    /// the whole set.
    pub down_workers: BTreeSet<u32>,
    /// First failure detection (reporting compatibility: single-kill
    /// runs read restart/recovery spans from these).
    pub detected_at: Option<SimTime>,
    pub restart_done_at: Option<SimTime>,
    pub recovery_done_at: Option<SimTime>,
    /// Completed restart episodes (a restart covering N overlapping
    /// kills counts once).
    pub recoveries: u64,
    /// Start of the current outage episode: the first kill since the
    /// last completed restart. `None` while everything is up.
    pub episode_started_at: Option<SimTime>,
    /// Total virtual time any part of the job was down — sum over
    /// episodes of (restart done − first kill of the episode).
    pub unavailability_ns: u64,
    /// Records re-delivered from channel logs across all recoveries
    /// (wasted work: they were processed once already).
    pub replayed_records: u64,
    /// Checkpoints abandoned because the store was browned out at
    /// upload time (graceful degradation accounting).
    pub ckpts_deferred: u64,
    /// Minimum checkpoint index of each computed recovery line, in
    /// order. Monotonicity of this sequence is the multi-kill
    /// recovery-line property the proptests assert: a later recovery
    /// never rolls back behind an earlier recovery's line.
    pub recovery_line_mins: Vec<u64>,
    /// Steady-state source backlog (seconds of input) sampled before the
    /// failure; recovery completes when backlog returns near it.
    pub steady_lag_secs: f64,
    /// Backlog at the end of warmup — the baseline for the sustainability
    /// slope check (a sustained rate keeps backlog flat after warmup).
    pub lag_at_warmup_secs: Option<f64>,
    pub invalid_checkpoints: u64,
}

impl Coordinator {
    pub fn new(protocol: ProtocolKind) -> Self {
        Self {
            protocol,
            metas: BTreeMap::new(),
            round: 0,
            round_started_at: BTreeMap::new(),
            round_acks: BTreeMap::new(),
            rounds_completed: 0,
            round_durations: Vec::new(),
            ckpt_durations: Vec::new(),
            failed_worker: None,
            down_workers: BTreeSet::new(),
            detected_at: None,
            restart_done_at: None,
            recovery_done_at: None,
            recoveries: 0,
            episode_started_at: None,
            unavailability_ns: 0,
            replayed_records: 0,
            ckpts_deferred: 0,
            recovery_line_mins: Vec::new(),
            steady_lag_secs: 0.0,
            lag_at_warmup_secs: None,
            invalid_checkpoints: 0,
        }
    }
}

/// Helper: operator instances for a worker from the physical graph.
pub fn build_worker_instances(
    pg: &PhysicalGraph,
    worker: u32,
    protocol: ProtocolKind,
) -> Vec<LocalInstance> {
    use checkmate_dataflow::OpRole;
    let p = pg.parallelism();
    let n_inst = pg.n_instances();
    pg.logical()
        .ops()
        .iter()
        .map(|op| {
            let idx = InstanceIdx(op.id.0 * p + worker);
            let is_source = matches!(op.role, OpRole::Source { .. });
            let stream = match op.role {
                OpRole::Source { stream } => Some(stream),
                _ => None,
            };
            let aligner = (protocol == ProtocolKind::Coordinated && !is_source)
                .then(|| CoorAligner::new(pg.in_channels_of(idx).to_vec()));
            let cic = match protocol {
                ProtocolKind::CommunicationInduced => Some(CicState::hmnr(idx.0 as usize, n_inst)),
                ProtocolKind::CommunicationInducedBcs => Some(CicState::bcs()),
                _ => None,
            };
            LocalInstance {
                idx,
                op_id: op.id,
                op: (op.factory)(worker),
                book: ChannelBook::new(),
                aligner,
                cic,
                ckpt_index: 0,
                cursor: is_source.then(SourceCursor::default),
                stream,
                scheduled_timers: BTreeSet::new(),
                det_replay: VecDeque::new(),
                det_parked: BTreeMap::new(),
                last_manifest: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkmate_dataflow::ops::{DigestSinkOp, KeyedCounterOp, PassThroughOp};
    use checkmate_dataflow::{EdgeKind, GraphBuilder, PortId, Record, Value};
    use std::sync::Arc;

    fn graph() -> PhysicalGraph {
        let mut b = GraphBuilder::new();
        let src = b.source("src", 0, 100, Arc::new(|_| Box::new(PassThroughOp)));
        let cnt = b.op("count", 100, Arc::new(|_| Box::new(KeyedCounterOp::new())));
        let sink = b.sink("sink", 100, Arc::new(|_| Box::new(DigestSinkOp::new())));
        b.connect(src, cnt, EdgeKind::Shuffle);
        b.connect(cnt, sink, EdgeKind::Forward);
        b.build().unwrap().expand(3)
    }

    #[test]
    fn builds_instances_with_protocol_state() {
        let pg = graph();
        let insts = build_worker_instances(&pg, 1, ProtocolKind::Coordinated);
        assert_eq!(insts.len(), 3);
        assert!(insts[0].is_source());
        assert!(insts[0].aligner.is_none()); // sources are not aligned
        assert!(insts[1].aligner.is_some());
        assert!(insts[1].cic.is_none());

        let insts = build_worker_instances(&pg, 0, ProtocolKind::CommunicationInduced);
        assert!(insts[2].cic.is_some());
        assert!(insts[2].aligner.is_none());
    }

    #[test]
    fn snapshot_len_is_exact_across_protocols_and_state() {
        let pg = graph();
        for protocol in [
            ProtocolKind::None,
            ProtocolKind::Coordinated,
            ProtocolKind::Uncoordinated,
            ProtocolKind::CommunicationInduced,
            ProtocolKind::CommunicationInducedBcs,
        ] {
            let mut insts = build_worker_instances(&pg, 0, protocol);
            for inst in &mut insts {
                assert_eq!(
                    inst.snapshot_len(),
                    inst.snapshot_bytes().len(),
                    "fresh instance {:?} under {protocol}",
                    inst.idx
                );
            }
            // Drive some state into the counter and the books.
            let mut ctx = checkmate_dataflow::OpCtx::new(0);
            for k in 0..50 {
                insts[1]
                    .op
                    .on_record(PortId(0), Record::new(k, Value::str("abcdef"), 0), &mut ctx);
            }
            insts[1].book.next_send(ChannelIdx(2));
            insts[1].book.deliver(ChannelIdx(0), 1);
            if let Some(c) = insts[1].cic.as_mut() {
                c.on_send(1);
            }
            insts[0].cursor.as_mut().unwrap().seek(99);
            for inst in &insts {
                assert_eq!(
                    inst.snapshot_len(),
                    inst.snapshot_bytes().len(),
                    "stateful instance {:?} under {protocol}",
                    inst.idx
                );
            }
        }
    }

    #[test]
    fn reset_instance_matches_fresh_build() {
        let pg = graph();
        for protocol in [
            ProtocolKind::Coordinated,
            ProtocolKind::CommunicationInduced,
            ProtocolKind::None,
        ] {
            let fresh = build_worker_instances(&pg, 1, protocol);
            // Dirty a freshly built set, then reset it back.
            let mut used = build_worker_instances(&pg, 1, ProtocolKind::Uncoordinated);
            let mut ctx = checkmate_dataflow::OpCtx::new(0);
            used[1]
                .op
                .on_record(PortId(0), Record::new(7, Value::Unit, 0), &mut ctx);
            used[1].book.next_send(ChannelIdx(0));
            used[1].ckpt_index = 5;
            used[0].cursor.as_mut().unwrap().seek(42);
            used[1].scheduled_timers.insert(123);
            for inst in &mut used {
                inst.reset(&pg, protocol);
            }
            for (f, u) in fresh.iter().zip(&used) {
                assert_eq!(f.snapshot_bytes(), u.snapshot_bytes(), "under {protocol}");
                assert_eq!(f.ckpt_index, u.ckpt_index);
                assert_eq!(f.aligner.is_some(), u.aligner.is_some());
                assert_eq!(f.cic.is_some(), u.cic.is_some());
                assert!(u.scheduled_timers.is_empty());
                assert!(u.last_manifest.is_none());
            }
        }
    }

    #[test]
    fn snapshot_restore_roundtrip_with_cursor_and_book() {
        let pg = graph();
        let mut insts = build_worker_instances(&pg, 0, ProtocolKind::CommunicationInduced);
        let inst = &mut insts[0];
        inst.cursor.as_mut().unwrap().seek(42);
        inst.book.next_send(ChannelIdx(0));
        inst.book.next_send(ChannelIdx(0));
        let bytes = inst.snapshot_bytes();

        let mut fresh = build_worker_instances(&pg, 0, ProtocolKind::CommunicationInduced);
        fresh[0].restore_from(&bytes);
        assert_eq!(fresh[0].cursor.unwrap().next_offset, 42);
        assert_eq!(fresh[0].book.last_sent(ChannelIdx(0)), 2);
        assert!(fresh[0].cic.is_some());
    }

    #[test]
    fn stateful_operator_state_travels_in_snapshot() {
        let pg = graph();
        let mut insts = build_worker_instances(&pg, 2, ProtocolKind::Uncoordinated);
        let inst = &mut insts[1];
        // drive the counter
        let mut ctx = checkmate_dataflow::OpCtx::new(0);
        inst.op
            .on_record(PortId(0), Record::new(7, Value::Unit, 0), &mut ctx);
        let bytes = inst.snapshot_bytes();
        let mut fresh = build_worker_instances(&pg, 2, ProtocolKind::Uncoordinated);
        fresh[1].restore_from(&bytes);
        let mut ctx = checkmate_dataflow::OpCtx::new(0);
        fresh[1]
            .op
            .on_record(PortId(0), Record::new(7, Value::Unit, 0), &mut ctx);
        let (outs, _) = ctx.take();
        assert_eq!(outs[0].1.value.field(1).as_u64(), Some(2)); // count resumed
    }

    #[test]
    fn worker_unstash_restores_order() {
        let pg = graph();
        let mut w = Worker {
            id: 0,
            down: false,
            paused: false,
            incarnation: 0,
            running: false,
            busy_until: 0,
            queue: ArrivalQueue::new(),
            stash: BTreeMap::new(),
            blocked: BTreeSet::new(),
            pending_triggers: VecDeque::new(),
            pending_ckpts: VecDeque::new(),
            due_timers: BTreeSet::new(),
            src_rr: 0,
            src_ops: Vec::new(),
            prefer_source: false,
            wake_at: None,
            instances: build_worker_instances(&pg, 0, ProtocolKind::None),
        };
        let r = Record::new(1, Value::Unit, 0);
        w.queue
            .insert((10, 1), NetMsg::data(ChannelIdx(5), 1, r.clone()));
        w.blocked.insert(ChannelIdx(5));
        // engine stashes blocked head
        let (k, m) = w.queue.pop_first().unwrap();
        w.stash.entry(ChannelIdx(5)).or_default().push((k, m));
        w.queue.insert((20, 2), NetMsg::data(ChannelIdx(6), 1, r));
        w.unstash(ChannelIdx(5));
        let first = w.queue.pop_first().unwrap();
        assert_eq!(first.0, (10, 1)); // stashed message comes first again
    }
}
