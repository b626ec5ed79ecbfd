//! The worker thread: one OS thread hosting one instance of every
//! operator, driving the protocol state machines over real wires.
//!
//! Each loop iteration: drain control, retry backpressured sends,
//! consume a bounded batch of wires (stash-unblocked backlog first),
//! then — unless backpressured — poll a burst of source records merged
//! across streams in schedule order (rotation breaks ties), fire local
//! checkpoint timers (UNC/CIC), and flush every staged send. The
//! outbound buffer is always empty at loop top.
//!
//! **Backpressure.** Data wires go out with `Inbox::try_push`; a bounce
//! parks the wire in this worker's per-destination `out_pending` queue.
//! While anything is parked the worker admits no new source input and
//! retries the parked sends each iteration — so a full downstream inbox
//! transitively throttles the sources. It keeps draining its own inbox
//! (stalling consumption too would deadlock two mutually-full workers);
//! new sends queue behind the parked backlog, preserving per-channel
//! FIFO. Self-sends and feedback-cycle wires bypass the bound (see
//! `inbox.rs` for the deadlock argument).
//!
//! **Determinant logging.** Under message-logging protocols (UNC/CIC)
//! every fresh delivery appends `(channel, seq)` to the instance's
//! shared [`checkmate_wal::DeterminantLog`] at its absolute delivery
//! position — the receiver-side order log that makes replay reproduce
//! cross-channel interleaving. After a restore, the instance replays
//! against the logged suffix: a wire whose `(channel, seq)` is not the
//! next determinant parks in `det_parked` until its turn; once the
//! suffix drains, parked leftovers (fresh post-crash traffic) release in
//! channel/sequence order. Order-sensitive operators (the cyclic
//! reachability join with deletions) run live correctly because of this.
//!
//! **Staged appends.** With `buffered_logs` (the default) no shared-log
//! mutex is taken per append: determinants accumulate in a worker-local
//! [`checkmate_wal::RunStage`] arena and publish in bulk at every
//! `flush_sends` *before* the staged wires escape
//! (causal-logging order). Channel payloads are encoded — once, from
//! the record the wire still owns — into a per-channel
//! [`checkmate_wal::Segment`] of a [`checkmate_wal::SegmentStage`], and
//! a segment moves into the shared log whole at checkpoint boundaries
//! and whenever it passes 64 KiB (replay never reads past a
//! checkpointed sent watermark; entries lost with a crash are
//! regenerated deterministically and the overlap is trimmed on
//! re-publication). `buffered_logs = false` keeps the historical
//! one-lock-per-batch path as a correctness oracle.
//!
//! **Clock.** The loop reads the wall clock once per handled wire and
//! once per source burst into `tick`; operator contexts and sink
//! latencies take their time from it.

use crate::config::LiveConfig;
use crate::coordinator::{Ctrl, Note, WorkerEnd};
use crate::dispatch::SourceDispatcher;
use crate::inbox::Inbox;
use crate::uploader::{UploadJob, UploadMsg};
use crate::wire::{PendingBatch, Wire};
use crate::Shared;
use checkmate_core::{
    snapshot, ChannelBook, CheckpointId, CheckpointKind, CheckpointMeta, CicPiggyback, CicState,
    CoorAligner, DurableCheckpoints, MarkerAction, ProtocolKind, SnapshotManifest,
};
use checkmate_dataflow::graph::{ChannelIdx, EdgeKind, InstanceIdx};
use checkmate_dataflow::ops::Digest;
use checkmate_dataflow::{
    shuffle_target, Codec, Dec, Enc, OpCtx, OpRole, Operator, PortId, Record,
};
use checkmate_wal::{EventStream, RunStage, Schedule, SegmentStage, SourceCursor, SourceLog};
use crossbeam::channel::{Receiver, Sender};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One operator instance living on a worker thread.
pub(crate) struct LiveInstance {
    pub idx: InstanceIdx,
    pub op: Box<dyn Operator>,
    pub book: ChannelBook,
    pub aligner: Option<CoorAligner>,
    pub cic: Option<CicState>,
    pub ckpt_index: u64,
    pub cursor: Option<SourceCursor>,
    pub stream: Option<u32>,
    /// Manifest of the previous checkpoint (incremental mode): the
    /// dedup baseline for the next snapshot plan. Reset from the
    /// restored meta at recovery.
    pub last_manifest: Option<SnapshotManifest>,
    /// Logged delivery order still to be reproduced after a restore
    /// (message-logging protocols). Empty outside recovery replay.
    pub det_replay: VecDeque<(ChannelIdx, u64)>,
    /// Wires that arrived ahead of their determinant turn, parked once
    /// (keyed by `(channel, seq)`) instead of rescanned.
    pub det_parked: BTreeMap<(ChannelIdx, u64), (Record, Option<CicPiggyback>)>,
}

impl LiveInstance {
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
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

    pub(crate) fn restore_from(&mut self, bytes: &[u8]) {
        let mut dec = Dec::new(bytes);
        let op_bytes = dec.bytes().expect("op bytes");
        self.op.restore(op_bytes).expect("op restore");
        self.book = ChannelBook::decode(&mut dec).expect("book");
        if dec.bool().expect("cic flag") {
            self.cic = Some(CicState::decode(&mut dec).expect("cic"));
        }
        if dec.bool().expect("cursor flag") {
            self.cursor = Some(SourceCursor {
                next_offset: dec.u64().expect("cursor"),
            });
        }
        dec.finish().expect("snapshot fully consumed");
    }
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub(crate) fn worker_main(
    w: u32,
    shared: Arc<Shared>,
    cfg: LiveConfig,
    streams: Vec<Arc<dyn EventStream>>,
    inboxes: Arc<Vec<Inbox>>,
    crx: Receiver<Ctrl>,
    note: Sender<Note>,
    up_tx: Sender<UploadMsg>,
    start: Instant,
    quiet: Arc<AtomicU64>,
    hb: Arc<Vec<AtomicU64>>,
) {
    let pg = &shared.pg;
    let logs: Vec<SourceLog<Arc<dyn EventStream>>> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            SourceLog::new(
                Arc::clone(s),
                Schedule::new(cfg.stream_rate(i)).with_limit(cfg.records_per_partition),
            )
        })
        .collect();

    let build_instances = |protocol: ProtocolKind| -> Vec<LiveInstance> {
        pg.logical()
            .ops()
            .iter()
            .map(|op| {
                let idx = InstanceIdx(op.id.0 * cfg.parallelism + w);
                let is_source = matches!(op.role, OpRole::Source { .. });
                LiveInstance {
                    idx,
                    op: (op.factory)(w),
                    book: ChannelBook::new(),
                    aligner: (protocol == ProtocolKind::Coordinated && !is_source)
                        .then(|| CoorAligner::new(pg.in_channels_of(idx).to_vec())),
                    cic: match protocol {
                        ProtocolKind::CommunicationInduced => {
                            Some(CicState::hmnr(idx.0 as usize, pg.n_instances()))
                        }
                        ProtocolKind::CommunicationInducedBcs => Some(CicState::bcs()),
                        _ => None,
                    },
                    ckpt_index: 0,
                    cursor: is_source.then(SourceCursor::default),
                    stream: match op.role {
                        OpRole::Source { stream } => Some(stream),
                        _ => None,
                    },
                    last_manifest: None,
                    det_replay: VecDeque::new(),
                    det_parked: BTreeMap::new(),
                }
            })
            .collect()
    };

    let mut instances = build_instances(cfg.protocol);
    let source_slots: Vec<usize> = instances
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.stream.is_some())
        .map(|(i, _)| i)
        .collect();
    let mut dispatcher = SourceDispatcher::new(source_slots.clone());
    // Sender-local staging arenas (buffered mode): appends accumulate
    // lock-free here and publish to the shared logs in bulk — see the
    // module docs for the publication-order argument. Cleared on
    // kill/restore with the rest of the volatile state.
    let mut chan_stage = SegmentStage::new(shared.logs.len());
    let mut det_stage: RunStage<(ChannelIdx, u64)> = RunStage::new(shared.dets.len());
    let mut staged_appends = 0u64;
    let mut log_flushes = 0u64;
    let mut epoch: u32 = 0;
    let mut dead = false;
    let mut paused = false;
    let mut stopped = false;
    let mut blocked: BTreeSet<ChannelIdx> = BTreeSet::new();
    let mut stash: BTreeMap<ChannelIdx, VecDeque<Wire>> = BTreeMap::new();
    let mut digest_total = Digest::default();
    let mut sink_records = 0u64;
    let mut events = 0u64;
    let mut determinants = 0u64;
    let mut replayed = 0u64;
    let mut latencies: Vec<Duration> = Vec::new();
    let mut next_local_ckpt = start.elapsed() + cfg.checkpoint_interval;
    let quiet_bit = 1u64 << w;

    let now_ns = |start: &Instant| start.elapsed().as_nanos() as u64;
    // The loop's clock: read once per handled wire and once per source
    // burst, not per record (see the module docs).
    let mut tick = now_ns(&start);
    // One operator context for every invocation; its output buffer is
    // handed back after routing.
    let mut ctx = OpCtx::new(tick);

    // Outbound sends staged between flush points: consecutive sends on a
    // channel coalesce into one wire, and the channel-log appends of a
    // batch happen under a single lock acquisition.
    let mut out_buf: Vec<PendingBatch> = Vec::new();
    // Wires bounced by a full destination inbox, per destination, in
    // send order. Non-empty ⇒ this worker is backpressured.
    let mut out_pending: Vec<VecDeque<(Wire, bool)>> =
        (0..cfg.parallelism).map(|_| VecDeque::new()).collect();
    let mut out_pending_total: usize = 0;
    let mut max_out_pending: usize = 0;
    // Carry-over buffer for inbox drains (reused allocation): wires
    // popped from the inbox but not yet handled. Survives across loop
    // iterations so an exhausted budget never drops popped wires.
    let mut inbox_scratch: VecDeque<Wire> = VecDeque::new();

    // Hand a wire towards `dest`: behind any parked backlog for that
    // destination (per-channel FIFO must survive backpressure), else
    // pushed — forced past the bound for self-sends and feedback wires.
    macro_rules! push_wire {
        ($dest:expr, $wire:expr, $force:expr) => {{
            let dest: usize = $dest;
            let wire = $wire;
            let force: bool = $force;
            if !out_pending[dest].is_empty() {
                out_pending[dest].push_back((wire, force));
                out_pending_total += 1;
                max_out_pending = max_out_pending.max(out_pending_total);
            } else if force {
                inboxes[dest].force_push(wire);
            } else if let Err(wire) = inboxes[dest].try_push(wire) {
                out_pending[dest].push_back((wire, false));
                out_pending_total += 1;
                max_out_pending = max_out_pending.max(out_pending_total);
            }
        }};
    }

    // Publish staged determinants. Must run before any staged wire
    // escapes: a message's content depends on its sender's delivery
    // order so far, and the receiver may checkpoint state built on it
    // the moment it is delivered — the determinant logs make that state
    // reproducible only if they cover the send.
    macro_rules! publish_det_stage {
        () => {{
            if !det_stage.is_empty() {
                det_stage.publish_into(|inst, start, items| {
                    determinants += shared.dets[inst as usize].lock().append_run(start, items);
                });
                log_flushes += 1;
            }
        }};
    }

    // Publish the staged channel segments. Only needed at checkpoint
    // boundaries: replay reads a channel log no further than the
    // sender's checkpointed sent watermark, so entries staged since the
    // last checkpoint are never requested — if they die with a crash,
    // the rolled-back sender regenerates them (same seqs, same records)
    // and re-publication trims the overlap.
    macro_rules! publish_channel_stage {
        () => {{
            if !chan_stage.is_empty() {
                chan_stage.publish_into(|ch, seg| {
                    shared.logs[ch as usize].lock().publish(seg);
                });
                log_flushes += 1;
            }
        }};
    }

    macro_rules! flush_sends {
        () => {{
            if cfg.buffered_logs {
                publish_det_stage!();
            }
            for batch in out_buf.drain(..) {
                if cfg.protocol.logs_messages() {
                    let ch = batch.channel.0;
                    if cfg.buffered_logs {
                        let mut full = false;
                        for (i, (rec, _)) in batch.items.iter().enumerate() {
                            full = chan_stage.stage(ch, batch.start_seq + i as u64, rec);
                        }
                        staged_appends += batch.items.len() as u64;
                        if full {
                            // Bounds what a worker stages between
                            // checkpoints; safe for the reason above.
                            shared.logs[ch as usize].lock().publish(chan_stage.take(ch));
                            log_flushes += 1;
                        }
                    } else {
                        let mut log = shared.logs[ch as usize].lock();
                        for (i, (rec, _)) in batch.items.iter().enumerate() {
                            log.append_record(batch.start_seq + i as u64, rec);
                        }
                    }
                }
                let dest = batch.dest;
                let force =
                    dest == w as usize || pg.channel(batch.channel).kind == EdgeKind::Feedback;
                push_wire!(dest, batch.into_wire(), force);
            }
        }};
    }

    // Sending a record out of an instance, routing per edge kind.
    // Defined as a macro to borrow locals freely.
    macro_rules! route {
        ($inst_i:expr, $edge_i:expr, $rec:expr) => {{
            let inst_idx = instances[$inst_i].idx;
            let oe = &pg.out_edges_of(inst_idx)[$edge_i];
            let rec: Record = $rec;
            let targets = match oe.kind {
                EdgeKind::Forward => w..w + 1,
                EdgeKind::Broadcast => 0..cfg.parallelism,
                EdgeKind::Shuffle | EdgeKind::Feedback => {
                    let t = shuffle_target(rec.key, cfg.parallelism);
                    t..t + 1
                }
            };
            // Every target but the last gets a clone; the last takes the
            // record itself.
            let last = targets.end - 1;
            let mut rec = Some(rec);
            for j in targets {
                let item = if j == last { rec.take() } else { rec.clone() }
                    .expect("the record moves only into the last target");
                let ch = oe.targets[j as usize].expect("connected");
                let seq = instances[$inst_i].book.next_send(ch);
                let dest = pg.channel(ch).to.0 as usize;
                let pb = instances[$inst_i].cic.as_mut().map(|c| c.on_send(dest));
                let dest_worker = (pg.channel(ch).to.0 % cfg.parallelism) as usize;
                // Coalesce with the newest staged batch when this send
                // extends its channel run; never reach further back, so
                // the per-destination send order stays the route order.
                match out_buf.last_mut() {
                    Some(b)
                        if b.dest == dest_worker
                            && b.channel == ch
                            && b.epoch == epoch
                            && b.start_seq + b.items.len() as u64 == seq
                            && b.items.len() < cfg.batch_max =>
                    {
                        b.items.push((item, pb));
                    }
                    _ => {
                        let mut items = Vec::with_capacity(cfg.batch_max.min(64));
                        items.push((item, pb));
                        out_buf.push(PendingBatch {
                            dest: dest_worker,
                            channel: ch,
                            epoch,
                            start_seq: seq,
                            items,
                        });
                    }
                }
            }
        }};
    }

    macro_rules! run_and_route {
        ($inst_i:expr, $port:expr, $rec:expr) => {{
            ctx.now = tick;
            instances[$inst_i].op.on_record($port, $rec, &mut ctx);
            let (mut outputs, _timers) = ctx.take();
            for (edge_i, out) in outputs.drain(..) {
                route!($inst_i, edge_i, out);
            }
            ctx.put_back_outputs(outputs);
        }};
    }

    // Serialize the snapshot, plan what to upload (whole object, or only
    // the chunks that changed since the previous manifest), and hand the
    // objects to the background uploader — the worker resumes
    // immediately; the durable-checkpoint ack reaches the coordinator
    // from the uploader once the PUTs complete.
    //
    // Staged sends flush first — and the staged channel payloads publish
    // — so the snapshot's sent watermarks are covered by the shared
    // channel logs by the time the meta becomes restorable, or a
    // post-kill replay would come up short.
    macro_rules! take_checkpoint {
        ($inst_i:expr, $kind:expr) => {{
            flush_sends!();
            if cfg.buffered_logs {
                publish_channel_stage!();
            }
            instances[$inst_i].ckpt_index += 1;
            let index = instances[$inst_i].ckpt_index;
            let idx = instances[$inst_i].idx;
            let state = instances[$inst_i].snapshot_bytes();
            let state_len = state.len();
            let (recv_wm, sent_wm) = instances[$inst_i].book.watermarks();
            let (state_key, manifest, objects) = match &cfg.incremental {
                Some(policy) => {
                    let plan = snapshot::plan_snapshot(
                        idx,
                        index,
                        &state,
                        instances[$inst_i].last_manifest.as_ref(),
                        policy,
                    );
                    instances[$inst_i].last_manifest = Some(plan.manifest.clone());
                    (String::new(), Some(plan.manifest), plan.objects)
                }
                None => {
                    let key = snapshot::state_key(idx, index);
                    (key.clone(), None, vec![(key, state)])
                }
            };
            let meta = CheckpointMeta {
                id: CheckpointId::new(idx, index),
                kind: $kind,
                taken_at: now_ns(&start),
                durable_at: 0,
                recv_wm,
                sent_wm,
                source_offset: instances[$inst_i].cursor.map(|c| c.next_offset),
                state_key,
                state_bytes: state_len as u64,
                manifest,
            };
            if let Some(cic) = instances[$inst_i].cic.as_mut() {
                cic.on_checkpoint();
            }
            let _ = up_tx.send(UploadMsg::Job(UploadJob {
                epoch,
                meta,
                objects,
            }));
        }};
    }

    // Markers must never overtake staged data on their channel (the
    // alignment protocol relies on per-channel FIFO), so flush first.
    macro_rules! forward_markers {
        ($inst_i:expr, $round:expr) => {{
            flush_sends!();
            let inst_idx = instances[$inst_i].idx;
            let chans: Vec<ChannelIdx> = pg
                .out_edges_of(inst_idx)
                .iter()
                .flat_map(|oe| oe.targets.iter().flatten().copied())
                .collect();
            for ch in chans {
                let dest_worker = (pg.channel(ch).to.0 % cfg.parallelism) as usize;
                push_wire!(
                    dest_worker,
                    Wire::Marker {
                        epoch,
                        channel: ch,
                        round: $round,
                    },
                    false
                );
            }
        }};
    }

    // Wires unblocked by alignment completion get queued here and are
    // processed before anything new from the inbox.
    let mut pending: VecDeque<Wire> = VecDeque::new();

    // The actual delivery of one record into an operator: CIC
    // force/merge, bookkeeping, determinant append, operator run.
    // Callers have already done dedup and determinant-order gating.
    macro_rules! deliver_record {
        ($op_i:expr, $channel:expr, $seq:expr, $record:expr, $piggyback:expr) => {{
            let op_i = $op_i;
            let channel = $channel;
            let seq = $seq;
            let record = $record;
            let piggyback = $piggyback;
            let port = pg.channel(channel).port;
            if let Some(pb) = &piggyback {
                let force = instances[op_i]
                    .cic
                    .as_ref()
                    .expect("cic")
                    .should_force(pg.channel(channel).from.0 as usize, pb);
                if force {
                    take_checkpoint!(op_i, CheckpointKind::Forced);
                }
            }
            let fresh = instances[op_i].book.deliver(channel, seq);
            assert!(fresh);
            if cfg.protocol.logs_messages() {
                // Absolute delivery position = deliveries so far - 1;
                // checkpoints derive the same number from their recv
                // watermarks (`CheckpointMeta::det_pos`). Re-deliveries
                // during replay land below the log's end and are
                // idempotently ignored.
                let pos = instances[op_i].book.total_received() - 1;
                if cfg.buffered_logs {
                    // Staged now, published (and counted if fresh) at the
                    // next flush — always before the wires this delivery
                    // produces become visible.
                    det_stage.stage(instances[op_i].idx.0, pos, (channel, seq));
                    staged_appends += 1;
                } else {
                    let mut det = shared.dets[instances[op_i].idx.0 as usize].lock();
                    let before = det.end_pos();
                    det.append(pos, channel, seq);
                    if det.end_pos() > before {
                        determinants += 1;
                    }
                }
            }
            if let (Some(cic), Some(pb)) = (instances[op_i].cic.as_mut(), &piggyback) {
                cic.on_deliver(pg.channel(channel).from.0 as usize, pb);
            }
            let is_sink = matches!(pg.logical().ops()[op_i].role, OpRole::Sink);
            if is_sink {
                sink_records += 1;
                let lat = tick.saturating_sub(record.ingest_time);
                latencies.push(Duration::from_nanos(lat));
            }
            events += 1;
            run_and_route!(op_i, port, record);
        }};
    }

    // One data record's arrival: dedup, then the determinant-order gate
    // (park wires ahead of their logged turn during recovery replay),
    // then delivery.
    macro_rules! handle_data {
        ($channel:expr, $seq:expr, $record:expr, $piggyback:expr, $replayed:expr) => {{
            let channel = $channel;
            let seq = $seq;
            let to = pg.channel(channel).to;
            let op_i = pg.instance_id(to).op.0 as usize;
            let last = instances[op_i].book.last_received(channel);
            if seq <= last {
                assert!($replayed, "non-replay duplicate");
            } else if !instances[op_i].det_replay.is_empty() {
                if $replayed {
                    replayed += 1;
                }
                if instances[op_i].det_replay.front() == Some(&(channel, seq)) {
                    instances[op_i].det_replay.pop_front();
                    deliver_record!(op_i, channel, seq, $record, $piggyback);
                    // Deliveries already parked may now be due — drain
                    // the front of the determinant suffix as far as the
                    // parked set reaches.
                    loop {
                        let Some(&front) = instances[op_i].det_replay.front() else {
                            break;
                        };
                        let Some((rec, pb)) = instances[op_i].det_parked.remove(&front) else {
                            break;
                        };
                        instances[op_i].det_replay.pop_front();
                        deliver_record!(op_i, front.0, front.1, rec, pb);
                    }
                    if instances[op_i].det_replay.is_empty() {
                        // Replay complete: anything still parked is
                        // fresh post-crash traffic with no logged order;
                        // release it in channel/sequence order (per-
                        // channel FIFO is all that must hold).
                        while let Some(((ch2, s2), (rec, pb))) =
                            instances[op_i].det_parked.pop_first()
                        {
                            deliver_record!(op_i, ch2, s2, rec, pb);
                        }
                    }
                } else {
                    instances[op_i]
                        .det_parked
                        .insert((channel, seq), ($record, $piggyback));
                }
            } else {
                if $replayed {
                    replayed += 1;
                }
                deliver_record!(op_i, channel, seq, $record, $piggyback);
            }
        }};
    }

    macro_rules! handle_wire {
        ($wire:expr) => {{
            let wire = $wire;
            if wire.epoch() == epoch && !dead {
                let ch = wire.channel();
                if blocked.contains(&ch) {
                    stash.entry(ch).or_default().push_back(wire);
                } else {
                    match wire {
                        Wire::Marker { round, channel, .. } => {
                            let op_i = pg.instance_id(pg.channel(channel).to).op.0 as usize;
                            let action = instances[op_i]
                                .aligner
                                .as_mut()
                                .expect("aligned instance")
                                .on_marker(channel, round);
                            match action {
                                MarkerAction::Block => {
                                    blocked.insert(channel);
                                }
                                MarkerAction::Checkpoint { round, unblock } => {
                                    take_checkpoint!(op_i, CheckpointKind::Coordinated { round });
                                    forward_markers!(op_i, round);
                                    // Re-queue stashed wires (in original
                                    // order) ahead of new inbox traffic.
                                    let mut unstashed = VecDeque::new();
                                    for c in unblock {
                                        blocked.remove(&c);
                                        if let Some(q) = stash.remove(&c) {
                                            unstashed.extend(q);
                                        }
                                    }
                                    while let Some(wq) = unstashed.pop_back() {
                                        pending.push_front(wq);
                                    }
                                }
                            }
                        }
                        Wire::Data {
                            channel,
                            seq,
                            record,
                            piggyback,
                            replayed,
                            ..
                        } => {
                            handle_data!(channel, seq, record, piggyback, replayed);
                        }
                        Wire::DataBatch {
                            channel,
                            start_seq,
                            items,
                            replayed,
                            ..
                        } => {
                            for (i, (record, piggyback)) in items.into_iter().enumerate() {
                                handle_data!(
                                    channel,
                                    start_seq + i as u64,
                                    record,
                                    piggyback,
                                    replayed
                                );
                            }
                        }
                    }
                }
            }
        }};
    }

    loop {
        // Control first.
        while let Ok(ctrl) = crx.try_recv() {
            match ctrl {
                Ctrl::TriggerRound(round) => {
                    if !dead && !paused && cfg.protocol == ProtocolKind::Coordinated {
                        for op_i in 0..instances.len() {
                            if instances[op_i].stream.is_some() {
                                take_checkpoint!(op_i, CheckpointKind::Coordinated { round });
                                forward_markers!(op_i, round);
                            }
                        }
                    }
                }
                Ctrl::Kill => {
                    dead = true;
                    // crash: lose in-memory state, queued input and any
                    // staged or parked (not yet delivered) outbound
                    // records — exactly what dies with a real process.
                    instances = build_instances(cfg.protocol);
                    inboxes[w as usize].clear();
                    inbox_scratch.clear();
                    blocked.clear();
                    stash.clear();
                    pending.clear();
                    out_buf.clear();
                    chan_stage.clear();
                    det_stage.clear();
                    for q in out_pending.iter_mut() {
                        q.clear();
                    }
                    out_pending_total = 0;
                }
                Ctrl::Pause => {
                    paused = true;
                    let _ = note.send(Note::Paused(w));
                }
                Ctrl::Restore(line) => {
                    instances = build_instances(cfg.protocol);
                    let durable = DurableCheckpoints::new(Arc::clone(&shared.store));
                    for inst in instances.iter_mut() {
                        let meta = &line[&pg.instance_id(inst.idx).op];
                        if let Some(bytes) = durable.read_state(meta) {
                            inst.restore_from(&bytes);
                        }
                        inst.ckpt_index = meta.id.index;
                        inst.last_manifest = meta.manifest.clone();
                        if let Some(aligner) = inst.aligner.as_mut() {
                            aligner.reset_to_round(meta.kind.round().unwrap_or(0));
                        }
                        if cfg.protocol.logs_messages() {
                            // Arm determinant-ordered replay: reproduce
                            // the logged delivery order from the restored
                            // checkpoint's position onward.
                            inst.det_replay = shared.dets[inst.idx.0 as usize]
                                .lock()
                                .suffix_from(meta.det_pos());
                            inst.det_parked.clear();
                        }
                    }
                    blocked.clear();
                    stash.clear();
                    pending.clear();
                    out_buf.clear();
                    chan_stage.clear();
                    det_stage.clear();
                    for q in out_pending.iter_mut() {
                        q.clear();
                    }
                    out_pending_total = 0;
                    inboxes[w as usize].clear();
                    inbox_scratch.clear();
                    let _ = note.send(Note::Restored(w));
                }
                Ctrl::Resume(new_epoch) => {
                    epoch = new_epoch;
                    dead = false;
                    paused = false;
                    next_local_ckpt = start.elapsed() + cfg.checkpoint_interval;
                }
                Ctrl::Stop => {
                    stopped = true;
                }
            }
        }
        if stopped {
            break;
        }
        // Heartbeat: a live thread (paused or not) stamps every
        // iteration; a killed one goes silent, which is what the
        // coordinator's failure detector watches for. Real systems
        // detect crashes by missing heartbeats, not by being told.
        if !dead {
            hb[w as usize].store(now_ns(&start).max(1), Ordering::Relaxed);
        }
        if paused || dead {
            quiet.fetch_and(!quiet_bit, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }

        let mut any = false;

        // Retry backpressured sends first; while any remain the worker
        // admits no new source input (the backpressure contract).
        let mut backpressured = false;
        for dest in 0..cfg.parallelism as usize {
            while let Some((wire, force)) = out_pending[dest].pop_front() {
                if force {
                    inboxes[dest].force_push(wire);
                    out_pending_total -= 1;
                    any = true;
                } else {
                    match inboxes[dest].try_push(wire) {
                        Ok(()) => {
                            out_pending_total -= 1;
                            any = true;
                        }
                        Err(wire) => {
                            out_pending[dest].push_front((wire, false));
                            break;
                        }
                    }
                }
            }
            if !out_pending[dest].is_empty() {
                backpressured = true;
            }
        }

        // Unblocked backlog first, then the inbox (bounded batch to stay
        // responsive to control).
        // Drain admitted work even while backpressured: a worker that
        // stopped draining because its *sends* bounce can deadlock with
        // a peer in the same state (both inboxes full, nobody moving).
        // Draining always is what makes the system deadlock-free — the
        // throttle is on admission (source polls below), and new sends
        // queue behind the parked backlog so per-channel FIFO holds.
        //
        // One wire at a time, `pending` first: a marker that releases a
        // blocked channel's stash puts those (older) wires into
        // `pending`, and they must go before anything popped later —
        // interleaving any other way breaks per-channel FIFO and trips
        // the delivery-order assertion.
        let mut budget = 64usize;
        while budget > 0 {
            let wire = if let Some(wire) = pending.pop_front() {
                wire
            } else if let Some(wire) = inbox_scratch.pop_front() {
                wire
            } else {
                if inboxes[w as usize].pop_into(budget, &mut inbox_scratch) == 0 {
                    break;
                }
                continue;
            };
            any = true;
            budget -= 1;
            tick = now_ns(&start);
            handle_wire!(wire);
        }

        // Source polling by wall clock, merged across streams in
        // schedule order: each step delivers the pollable record with
        // the earliest availability time, so multi-stream interleaving
        // matches the virtual-time engine's (which delivers in modeled
        // time order) even when a backlog built up — e.g. right after a
        // recovery pause. The rotating dispatcher order only breaks
        // exact-tie availabilities. Skipped while backpressured or while
        // this worker's own inbox is over capacity (self-sends would
        // balloon it past the bound).
        let now = now_ns(&start);
        tick = now;
        // Strict sequential admission (oracle mode): nothing may be in
        // flight locally before the next record enters, and only one
        // enters per iteration — its cascade flushes and drains first.
        let strict_ok = !cfg.strict_source_order
            || (pending.is_empty()
                && inbox_scratch.is_empty()
                && out_pending_total == 0
                && inboxes[w as usize].is_empty());
        if !backpressured && strict_ok && inboxes[w as usize].len() < cfg.inbox_capacity {
            let mut budget = if cfg.strict_source_order {
                1
            } else {
                cfg.source_batch as u64 * source_slots.len() as u64
            };
            while budget > 0 {
                let mut best: Option<(u64, usize)> = None;
                for op_i in dispatcher.order() {
                    let stream = instances[op_i].stream.expect("source slot") as usize;
                    let cursor = instances[op_i].cursor.expect("source");
                    let Some(at) = logs[stream].available_at(cursor.next_offset) else {
                        continue; // exhausted
                    };
                    if at <= now && best.is_none_or(|(b, _)| at < b) {
                        best = Some((at, op_i));
                    }
                }
                let Some((_, op_i)) = best else {
                    break;
                };
                let stream = instances[op_i].stream.expect("source slot") as usize;
                let cursor = instances[op_i].cursor.expect("source");
                let Some(entry) = logs[stream].poll(w, cursor.next_offset, now) else {
                    break;
                };
                any = true;
                events += 1;
                budget -= 1;
                instances[op_i].cursor.as_mut().expect("source").advance();
                run_and_route!(op_i, PortId(0), entry.record);
            }
        }

        // Has every source partition been fully consumed?
        let drained = source_slots.iter().all(|&op_i| {
            let stream = instances[op_i].stream.expect("source slot") as usize;
            let cursor = instances[op_i].cursor.expect("source");
            logs[stream].exhausted(cursor.next_offset)
        });

        // Local checkpoint timers (UNC/CIC).
        if cfg.protocol.independent_checkpoints() && start.elapsed() >= next_local_ckpt {
            for op_i in 0..instances.len() {
                take_checkpoint!(op_i, CheckpointKind::Local);
            }
            next_local_ckpt = start.elapsed() + cfg.checkpoint_interval;
        }

        // Everything staged this iteration goes out before we sleep or
        // hand control back — the buffer is always empty at loop top.
        flush_sends!();

        // Straggler injection: inside a scheduled slowdown window this
        // worker pays extra wall-clock per productive iteration,
        // throttling its progress without changing what it computes.
        if let Some(plan) = &cfg.storm {
            if any && !plan.stragglers.is_empty() {
                let f = plan.slowdown_at(w, now_ns(&start));
                if f > 1.0 {
                    std::thread::sleep(Duration::from_micros(
                        (100.0 * (f - 1.0)).min(5_000.0) as u64
                    ));
                }
            }
        }

        let idle = drained
            && !any
            && pending.is_empty()
            && inbox_scratch.is_empty()
            && out_pending_total == 0
            && inboxes[w as usize].is_empty();
        if idle {
            // Input consumed, nothing queued anywhere we can see: report
            // quiescence (the coordinator ends the run once every worker
            // agrees for a grace window) and wait — peers may still send.
            quiet.fetch_or(quiet_bit, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
        } else {
            quiet.fetch_and(!quiet_bit, Ordering::Relaxed);
            if !any {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    // Final digest collection.
    for inst in &instances {
        if let Some(d) = inst.op.sink_digest() {
            digest_total.count = digest_total.count.wrapping_add(d.count);
            digest_total.acc = digest_total.acc.wrapping_add(d.acc);
        }
    }
    let _ = note.send(Note::Done(
        w,
        WorkerEnd {
            digest: digest_total,
            sink_records,
            latencies,
            events,
            max_out_pending,
            determinants,
            replayed,
            staged_appends,
            log_flushes,
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkmate_dataflow::ops::PassThroughOp;

    fn source_instance() -> LiveInstance {
        LiveInstance {
            idx: InstanceIdx(0),
            op: Box::new(PassThroughOp),
            book: ChannelBook::new(),
            aligner: None,
            cic: None,
            ckpt_index: 0,
            cursor: Some(SourceCursor::default()),
            stream: Some(0),
            last_manifest: None,
            det_replay: VecDeque::new(),
            det_parked: BTreeMap::new(),
        }
    }

    #[test]
    fn source_snapshot_round_trips_cursor() {
        let mut taken = source_instance();
        for _ in 0..42 {
            taken.cursor.as_mut().expect("source").advance();
        }
        let bytes = taken.snapshot_bytes();
        let mut restored = source_instance();
        restored.restore_from(&bytes);
        assert_eq!(restored.cursor.map(|c| c.next_offset), Some(42));
    }

    #[test]
    #[should_panic(expected = "snapshot fully consumed")]
    fn snapshot_with_trailing_bytes_is_rejected() {
        let mut bytes = source_instance().snapshot_bytes();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        source_instance().restore_from(&bytes);
    }
}
