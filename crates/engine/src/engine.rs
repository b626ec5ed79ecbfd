//! The virtual-time streaming engine.
//!
//! A deterministic discrete-event simulation of the paper's testbed:
//! workers with one CPU each hosting one instance of every operator,
//! FIFO channels with latency/bandwidth, a coordinator scheduling
//! checkpoints and orchestrating recovery, a replayable source, message
//! logs, and a durable checkpoint store. The checkpointing protocols from
//! `checkmate-core` run unmodified inside.

use crate::arena::SimArena;
use crate::config::EngineConfig;
use crate::msg::{hmnr_wire_bytes, MsgKind, NetMsg, BCS_WIRE_BYTES, MARKER_BYTES};
use crate::report::{LatencySeries, Outcome, RunReport};
use crate::state::{build_worker_instances, ArrivalQueue, Coordinator, QueueKey, Worker};
use crate::workload::Workload;
use bytes::Bytes;
use checkmate_core::snapshot::ZeroBytes;
use checkmate_core::{
    channel_triples, discard_after_line, recovery_line, replay_range, snapshot, CheckpointId,
    CheckpointKind, CheckpointMeta, CoorAligner, DurableCheckpoints, MarkerAction, ProtocolKind,
    RecoveryOutcome,
};
use checkmate_dataflow::graph::{ChannelIdx, EdgeKind, InstanceIdx};
use checkmate_dataflow::ops::Digest;
use checkmate_dataflow::{OpCtx, OpId, OpRole, PhysicalGraph, PortId, Record};
use checkmate_sim::{derive_seed, EventQueue, SimRng, SimTime, MILLIS};
use checkmate_storage::{MemBackend, ObjectStore, SharedStore, TRY_ATTEMPTS};
use checkmate_wal::{
    ChannelLog, DeterminantLog, EventStream, Schedule, SourceLog, DET_ENTRY_BYTES,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// One shipped message: its fixed queue position `(arrival time, ship
/// sequence)` plus the sender incarnation it left under. Queue keys are
/// assigned at ship time — the event queue pops ties in push order, so
/// this is the same total order the historical assign-at-arrival scheme
/// produced, and it lets one event carry many messages.
pub(crate) type ShipItem = (QueueKey, u32, NetMsg);

/// Per-channel routing facts, resolved once per run. The delivery and
/// fan-out hot paths used to re-walk `pg.channel(ch)` → instance table →
/// worker arithmetic for every record; a channel's endpoints are a pure
/// function of `(graph, parallelism)`, so the engine flattens them into
/// one cache-friendly row per channel at construction and the hot loops
/// do a single indexed copy instead.
#[derive(Clone, Copy)]
pub(crate) struct ChanRoute {
    /// Receiving operator (the channel's `to` instance's op).
    pub(crate) to_op: OpId,
    /// Input port at the receiver.
    pub(crate) port: PortId,
    /// Sending instance (CIC piggyback indexing, replay provenance).
    pub(crate) from: InstanceIdx,
    /// Receiving instance (CIC send-clock indexing).
    pub(crate) to: InstanceIdx,
    /// Worker hosting the sending instance.
    pub(crate) from_w: u32,
    /// Worker hosting the receiving instance.
    pub(crate) to_w: u32,
}

/// Simulation events. Events carry worker incarnations where staleness
/// after a failure must invalidate them; the whole tuple is additionally
/// guarded by a global epoch bumped at recovery.
pub(crate) enum Ev {
    /// All messages one task shipped to one destination worker, as one
    /// event fired at the earliest arrival (a lone message rides a
    /// pooled one-element batch, so this variant keeps the event enum
    /// pointer-sized instead of inlining a whole `NetMsg` — every
    /// event the queue moves would pay for the fattest variant). Later
    /// messages are already sitting in the worker's queue but stay
    /// invisible to dispatch until their own arrival instant (delivery
    /// is gated on the queue key's time), so the simulated timeline is
    /// identical to the one-event-per-message plane.
    ArriveBatch {
        dst_winc: u32,
        batch: Vec<ShipItem>,
    },
    TaskDone {
        worker: u32,
        winc: u32,
    },
    Wake {
        worker: u32,
    },
    CkptTimer {
        inst: InstanceIdx,
    },
    OpTimer {
        worker: u32,
        winc: u32,
        op: OpId,
    },
    RoundStart {
        round: u64,
    },
    TriggerArrive {
        worker: u32,
        winc: u32,
        op: OpId,
        round: u64,
    },
    DeadlockCheck {
        round: u64,
    },
    /// Boxed so the big checkpoint payload does not inflate every event
    /// moved through the queue.
    UploadDone {
        winc: u32,
        job: Box<UploadJob>,
    },
    /// Kill `worker` now. Carries its victim (storm plans schedule many
    /// kills) and deliberately ignores the epoch guard: kills are
    /// injected faults, not worker-owned work — a recovery in progress
    /// must not cancel a scheduled kill.
    Fail {
        worker: u32,
    },
    /// The coordinator noticed a failure. Epoch-guarded: a Detect
    /// scheduled before a newer recovery round started is stale — the
    /// newer round's line computation already covered every worker that
    /// was down when it ran.
    Detect,
    /// Epoch-guarded: a failure that lands mid-recovery re-enters
    /// [`Engine::on_detect`], bumps the epoch, and thereby discards the
    /// superseded restart — the recovery-line computation restarts
    /// cleanly instead of racing two restarts.
    RestartDone {
        line: BTreeMap<InstanceIdx, CheckpointId>,
    },
    LagProbe,
}

/// A captured checkpoint travelling to durability: metadata plus the
/// objects the upload ships (the whole snapshot, only the fresh chunks
/// of an incremental checkpoint, or — under sized-only accounting — a
/// zero placeholder of the exact encoded length).
pub(crate) struct UploadJob {
    meta: CheckpointMeta,
    objects: Vec<(String, Bytes)>,
}

#[derive(Default)]
struct Metrics {
    series: LatencySeries,
    sink_outputs_total: u64,
    sink_records_postwarmup: u64,
    payload_bytes: u64,
    protocol_bytes: u64,
    checkpoints_total: u64,
    checkpoints_forced: u64,
    replay_dedup_drops: u64,
}

/// The engine. Construct with [`Engine::new`], consume with
/// [`Engine::run`].
pub struct Engine {
    cfg: EngineConfig,
    pg: Arc<PhysicalGraph>,
    name: String,
    logs: Vec<SourceLog<Arc<dyn EventStream>>>,
    rates_pp: Vec<f64>,
    store: SharedStore,
    queue: EventQueue<(u32, Ev)>,
    now: SimTime,
    epoch: u32,
    arrival_seq: u64,
    arrivals_inflight: u64,
    /// Messages shipped by the currently executing task, grouped by
    /// destination worker, flushed as one arrival event per destination
    /// at `begin_task` (and after recovery replay).
    pending_ship: Vec<Vec<ShipItem>>,
    /// Destination workers touched by the current task, in first-touch
    /// order (deterministic flush order).
    pending_dsts: Vec<u32>,
    /// Recycled batch payload buffers: emptied `ArriveBatch` vectors come
    /// back here and the next multi-message flush draws from them, so the
    /// hottest event kind stops allocating in the steady state.
    batch_pool: Vec<Vec<ShipItem>>,
    /// Reusable operator invocation context (allocation-free hot path).
    ctx: OpCtx,
    /// Resolved snapshot mode for this run: checkpoints skip serializing
    /// operator state and upload exact-length zero placeholders
    /// (`SnapshotMode`, failure-free non-incremental runs only).
    snap_sized: bool,
    /// Cached `cfg.failure_injected()` — read on the per-delivery hot
    /// path to gate determinant-log materialization.
    fail_injected: bool,
    /// Zero buffer backing sized-only placeholders (arena-recycled).
    zeros: ZeroBytes,
    /// Flattened per-channel routing table (arena-recycled): endpoints,
    /// receiving op/port, hosting workers. Indexed by `ChannelIdx.0`.
    chan_route: Vec<ChanRoute>,
    chan_floor: Vec<SimTime>,
    chan_logs: Vec<ChannelLog>,
    /// Per-instance delivery-order logs (UNC/CIC); empty under COOR/None.
    det_logs: Vec<DeterminantLog>,
    workers: Vec<Worker>,
    coord: Coordinator,
    rng: SimRng,
    metrics: Metrics,
    halted: Option<Outcome>,
    events: u64,
    /// Checkpoint-GC bookkeeping: per instance, the lowest index whose
    /// durable objects have not been reclaimed yet.
    gc_low: BTreeMap<InstanceIdx, u64>,
    /// Uploads captured but not durable yet: per instance, checkpoint
    /// index → oldest chunk owner its manifest references. GC must not
    /// reclaim past these — a durable sibling's sweep cannot see an
    /// in-flight manifest's references. Entries clear when the upload
    /// lands; dropped uploads (worker death) clear at recovery.
    inflight_floors: BTreeMap<InstanceIdx, BTreeMap<u64, u64>>,
    /// Chunk objects whose owner checkpoint was reclaimed but which a
    /// retained manifest still referenced at sweep time (per instance,
    /// as `(owner, slot)`), reconsidered on later sweeps.
    gc_deferred: BTreeMap<InstanceIdx, BTreeSet<(u64, u32)>>,
    /// Cached recovery-line indices bounding what GC may delete, and
    /// when they were computed (refreshed at checkpoint-interval
    /// granularity; invalidated at recovery).
    safe_line: BTreeMap<InstanceIdx, u64>,
    safe_line_at: Option<SimTime>,
}

impl Engine {
    /// Build an engine with a fresh allocation footprint. Equivalent to
    /// [`Engine::new_in`] with an empty arena.
    pub fn new(workload: &Workload, cfg: EngineConfig) -> Self {
        Self::new_in(workload, cfg, &mut SimArena::new())
    }

    /// Build an engine, drawing its allocation footprint (event-queue
    /// slot slab, per-worker arrival-queue slabs, ship staging and
    /// scratch buffers) from `arena` instead of the allocator. Pair with
    /// [`Engine::run_into`] to hand the footprint back after the run —
    /// an MST bisection's probe loop then reuses one footprint across
    /// thousands of runs. Recycled storage is logically empty, so the
    /// run is bit-identical to one built with [`Engine::new`].
    pub fn new_in(workload: &Workload, cfg: EngineConfig, arena: &mut SimArena) -> Self {
        let pg = Arc::new(workload.graph.expand(cfg.parallelism));
        Self::new_shared(workload, cfg, pg, arena)
    }

    /// [`Engine::new_in`] with a pre-expanded physical graph. The graph
    /// is a pure function of `(workload, parallelism)` and read-only
    /// during a run, so a probe loop expands it once and shares one
    /// `Arc` across every probe instead of rebuilding (and dropping)
    /// it per run.
    pub fn new_shared(
        workload: &Workload,
        cfg: EngineConfig,
        pg: Arc<PhysicalGraph>,
        arena: &mut SimArena,
    ) -> Self {
        let mut workers = Vec::with_capacity(cfg.parallelism as usize);
        for w in 0..cfg.parallelism {
            let instances = build_worker_instances(&pg, w, cfg.protocol);
            let src_ops = instances
                .iter()
                .filter(|i| i.is_source())
                .map(|i| i.op_id)
                .collect();
            workers.push(Worker {
                id: w,
                down: false,
                paused: false,
                incarnation: 0,
                running: false,
                busy_until: 0,
                queue: arena.arrivals.pop().unwrap_or_default(),
                stash: BTreeMap::new(),
                blocked: BTreeSet::new(),
                pending_triggers: VecDeque::new(),
                pending_ckpts: VecDeque::new(),
                due_timers: BTreeSet::new(),
                src_rr: 0,
                src_ops,
                prefer_source: false,
                wake_at: None,
                instances,
            });
        }
        Self::new_with_workers(workload, cfg, pg, workers, arena)
    }

    /// Construction core shared by the fresh path ([`Engine::new_shared`]
    /// builds `workers` from the graph's factories) and the session path
    /// (`crate::session::RunSession` hands back last run's workers,
    /// reset in place). The workers must be exactly what
    /// [`build_worker_instances`] produces for `(pg, cfg.protocol)` —
    /// `Worker::reset_for_run` guarantees that for recycled ones.
    pub(crate) fn new_with_workers(
        workload: &Workload,
        cfg: EngineConfig,
        pg: Arc<PhysicalGraph>,
        mut workers: Vec<Worker>,
        arena: &mut SimArena,
    ) -> Self {
        cfg.validate();
        workload.validate(cfg.parallelism);
        assert_eq!(
            pg.parallelism(),
            cfg.parallelism,
            "shared physical graph expanded at a different parallelism"
        );
        assert_eq!(workers.len(), cfg.parallelism as usize);
        let mut logs = Vec::new();
        let mut rates_pp = Vec::new();
        for s in &workload.streams {
            let rate_pp = cfg.total_rate * s.rate_share / cfg.parallelism as f64;
            let mut sched = Schedule::new(rate_pp).with_batch(cfg.source_batch);
            if let Some(limit) = cfg.input_limit {
                sched = sched.with_limit(limit);
            }
            logs.push(SourceLog::new(Arc::clone(&s.stream), sched));
            rates_pp.push(rate_pp);
        }
        let n_channels = pg.n_channels();
        let n_instances = pg.n_instances();
        let parallelism = cfg.parallelism;
        let logging = cfg.protocol.logs_messages();
        let replayable = cfg.failure_injected();
        let rng = SimRng::new(derive_seed(cfg.seed, "engine"));
        let storage_profile = cfg.storage;
        let mut queue = std::mem::take(&mut arena.queue);
        if queue.backend() != cfg.event_queue {
            queue = EventQueue::with_backend(cfg.event_queue);
        }
        // Same normalization choke point for the per-worker arrival
        // queues: recycled workers (session path) and arena-pooled
        // queues (fresh path) may carry the previous run's index
        // backend; rebuild any that mismatch this run's config. The
        // queues are logically empty here either way.
        for wk in &mut workers {
            if wk.queue.index_kind() != cfg.arrival_index {
                wk.queue = ArrivalQueue::with_index(cfg.arrival_index);
            }
        }
        let mut pending_ship = std::mem::take(&mut arena.ship);
        let mut batch_pool = std::mem::take(&mut arena.batch_pool);
        // Surplus staging buffers (a previous run at higher parallelism)
        // are the same shape as batch payloads — keep them working.
        if pending_ship.len() > parallelism as usize {
            batch_pool.extend(pending_ship.drain(parallelism as usize..));
        }
        pending_ship.resize_with(parallelism as usize, Vec::new);
        let mut chan_floor = std::mem::take(&mut arena.chan_floor);
        chan_floor.clear();
        chan_floor.resize(n_channels, 0);
        let mut chan_route = std::mem::take(&mut arena.chan_route);
        chan_route.clear();
        chan_route.extend(pg.channels().iter().map(|ch| ChanRoute {
            to_op: pg.instance_id(ch.to).op,
            port: ch.port,
            from: ch.from,
            to: ch.to,
            from_w: ch.from.0 % parallelism,
            to_w: ch.to.0 % parallelism,
        }));
        let mut ctx = std::mem::replace(&mut arena.ctx, OpCtx::new(0));
        ctx.now = 0;
        // Recycle the previous run's store when its backend supports an
        // in-place reset (objects cleared, key allocations pooled, stats
        // zeroed, profile adopted); otherwise construct fresh. Either
        // way the run starts from an observationally empty store.
        let store = match arena.store.take() {
            Some(s) if s.reset(storage_profile) => s,
            _ => ObjectStore::shared_with(Arc::new(MemBackend::with_profile(storage_profile))),
        };
        let snap_sized = cfg
            .snapshot_mode
            .sized_for(replayable, cfg.incremental.is_some());
        Self {
            coord: Coordinator::new(cfg.protocol),
            cfg,
            pg,
            name: workload.name.clone(),
            logs,
            rates_pp,
            store,
            snap_sized,
            fail_injected: replayable,
            zeros: std::mem::take(&mut arena.zeros),
            queue,
            now: 0,
            epoch: 0,
            arrival_seq: 0,
            arrivals_inflight: 0,
            pending_ship,
            pending_dsts: Vec::new(),
            batch_pool,
            ctx,
            chan_route,
            chan_floor,
            // Replay only ever reads the logs after a failure; a run
            // with no failure injected keeps the logs' full cost and
            // byte accounting (append costs, GC, restart-fetch sizing
            // all behave identically) without materializing payloads
            // the host provably never reads back.
            chan_logs: if logging {
                (0..n_channels)
                    .map(|_| {
                        if replayable {
                            ChannelLog::new()
                        } else {
                            ChannelLog::sized_only()
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            },
            det_logs: if logging {
                (0..n_instances).map(|_| DeterminantLog::new()).collect()
            } else {
                Vec::new()
            },
            workers,
            rng,
            metrics: Metrics::default(),
            halted: None,
            events: 0,
            gc_low: BTreeMap::new(),
            inflight_floors: BTreeMap::new(),
            gc_deferred: BTreeMap::new(),
            safe_line: BTreeMap::new(),
            safe_line_at: None,
        }
    }

    // ------------------------------------------------------------------
    // bootstrap & main loop
    // ------------------------------------------------------------------

    fn bootstrap(&mut self) {
        // Implicit initial checkpoints (index 0) for every instance.
        for w in &self.workers {
            for inst in &w.instances {
                let meta = CheckpointMeta::initial(inst.idx, inst.is_source());
                self.coord.metas.insert((inst.idx, 0), meta);
            }
        }
        match self.cfg.protocol {
            ProtocolKind::Coordinated => {
                self.push_at(self.cfg.checkpoint_interval, Ev::RoundStart { round: 1 });
            }
            p if p.independent_checkpoints() => {
                let interval = self.cfg.checkpoint_interval;
                for w in 0..self.workers.len() {
                    for op in 0..self.workers[w].instances.len() {
                        let inst = self.workers[w].instances[op].idx;
                        // Random phase so operators checkpoint independently.
                        let first = interval / 2 + self.rng.below(interval);
                        self.push_at(first, Ev::CkptTimer { inst });
                    }
                }
            }
            _ => {}
        }
        // One Fail event per planned kill — the legacy `failure` spec
        // and every storm kill, in time order.
        for (at, worker) in self.cfg.planned_kills() {
            assert!(worker < self.cfg.parallelism, "failure worker out of range");
            self.push_at(at, Ev::Fail { worker });
        }
        for w in 0..self.workers.len() {
            self.push_at(0, Ev::Wake { worker: w as u32 });
        }
        self.push_at(250 * MILLIS, Ev::LagProbe);
    }

    /// Execute the run to completion and produce the report.
    pub fn run(self) -> RunReport {
        self.run_into(&mut SimArena::new())
    }

    /// Like [`Engine::run`], returning the engine's allocation footprint
    /// to `arena` (emptied, capacity intact) for the next run.
    pub fn run_into(mut self, arena: &mut SimArena) -> RunReport {
        self.drive();
        self.finish(arena, None)
    }

    /// [`Engine::run_into`] for session reuse: the workers — operator
    /// boxes, state maps, queue slabs — survive the run and land in
    /// `workers_out` for `crate::session::RunSession` to reset and
    /// reuse, instead of being torn down.
    pub(crate) fn run_into_keeping(
        mut self,
        arena: &mut SimArena,
        workers_out: &mut Vec<Worker>,
    ) -> RunReport {
        self.drive();
        self.finish(arena, Some(workers_out))
    }

    fn drive(&mut self) {
        self.bootstrap();
        while let Some((t, (epoch, ev))) = self.queue.pop() {
            if t > self.cfg.duration {
                self.now = self.cfg.duration;
                break;
            }
            self.now = t;
            self.events += 1;
            if self.events > self.cfg.max_events {
                self.halted = Some(Outcome::EventBudgetExhausted);
            }
            if self.halted.is_some() {
                break;
            }
            self.handle(epoch, ev);
        }
    }

    fn push_at(&mut self, t: SimTime, ev: Ev) {
        self.queue.push(t, (self.epoch, ev));
    }

    /// Insert shipped messages into their destination worker's queue,
    /// dropping any whose sender's incarnation went stale in flight.
    /// Blocked-channel messages are stashed lazily by the dispatch scan
    /// exactly when they become due, which observes the blocked set at
    /// the same instants the per-message plane did.
    fn enqueue_arrivals(&mut self, to_w: usize, batch: &mut Vec<ShipItem>) {
        for (key, src_winc, msg) in batch.drain(..) {
            let from_w = self.chan_route[msg.channel.0 as usize].from_w as usize;
            if self.workers[from_w].incarnation != src_winc {
                continue; // lost with the failed sender
            }
            self.workers[to_w].queue.insert(key, msg);
        }
    }

    fn worker_of_inst(&self, inst: InstanceIdx) -> usize {
        (inst.0 % self.cfg.parallelism) as usize
    }

    // ------------------------------------------------------------------
    // event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, epoch: u32, ev: Ev) {
        match ev {
            Ev::ArriveBatch {
                dst_winc,
                mut batch,
            } => {
                self.arrivals_inflight -= batch.len() as u64;
                // Count the whole batch against the event budget so the
                // safety valve keeps measuring logical message traffic.
                self.events += batch.len() as u64 - 1;
                if epoch == self.epoch {
                    let to_w = self.chan_route[batch[0].2.channel.0 as usize].to_w as usize;
                    if self.workers[to_w].incarnation == dst_winc && !self.workers[to_w].down {
                        self.enqueue_arrivals(to_w, &mut batch);
                        self.batch_pool.push(batch);
                        self.try_dispatch(to_w);
                        return;
                    }
                }
                // Stale epoch/incarnation: the messages die, the buffer
                // doesn't.
                batch.clear();
                self.batch_pool.push(batch);
            }
            Ev::TaskDone { worker, winc } => {
                if epoch != self.epoch || self.workers[worker as usize].incarnation != winc {
                    return;
                }
                self.workers[worker as usize].running = false;
                self.try_dispatch(worker as usize);
                self.maybe_drained();
            }
            Ev::Wake { worker } => {
                if epoch != self.epoch {
                    return;
                }
                let w = &mut self.workers[worker as usize];
                if w.wake_at == Some(self.now) {
                    w.wake_at = None;
                }
                self.try_dispatch(worker as usize);
                self.maybe_drained();
            }
            Ev::CkptTimer { inst } => {
                if epoch != self.epoch {
                    return;
                }
                let w = self.worker_of_inst(inst);
                let op = self.pg.instance_id(inst).op;
                // Re-arm first (jittered period), then queue the work.
                let next = self.now
                    + self
                        .rng
                        .jitter(self.cfg.checkpoint_interval, self.cfg.checkpoint_jitter);
                self.push_at(next, Ev::CkptTimer { inst });
                if self.workers[w].down || self.workers[w].paused {
                    return;
                }
                self.workers[w].pending_ckpts.push_back(op);
                self.try_dispatch(w);
            }
            Ev::OpTimer { worker, winc, op } => {
                if epoch != self.epoch || self.workers[worker as usize].incarnation != winc {
                    return;
                }
                let w = worker as usize;
                self.workers[w]
                    .instance_mut(op)
                    .scheduled_timers
                    .remove(&self.now);
                self.workers[w].due_timers.insert((self.now, op));
                self.try_dispatch(w);
            }
            Ev::RoundStart { round } => {
                // Rounds are coordinator-driven and survive epochs; skip
                // while recovering.
                self.push_at(
                    self.now + self.cfg.checkpoint_interval,
                    Ev::RoundStart { round: round + 1 },
                );
                if self.workers.iter().any(|w| w.paused) {
                    return;
                }
                self.coord.round = round;
                self.coord.round_started_at.insert(round, self.now);
                let sources: Vec<OpId> = self.pg.logical().sources().map(|o| o.id).collect();
                for w in 0..self.workers.len() {
                    for &op in &sources {
                        let winc = self.workers[w].incarnation;
                        self.push_at(
                            self.now + self.cfg.cost.control_latency_ns,
                            Ev::TriggerArrive {
                                worker: w as u32,
                                winc,
                                op,
                                round,
                            },
                        );
                    }
                }
                self.push_at(
                    self.now + self.cfg.deadlock_timeout,
                    Ev::DeadlockCheck { round },
                );
            }
            Ev::TriggerArrive {
                worker,
                winc,
                op,
                round,
            } => {
                if epoch != self.epoch || self.workers[worker as usize].incarnation != winc {
                    return;
                }
                let w = worker as usize;
                if self.workers[w].down || self.workers[w].paused {
                    return;
                }
                self.workers[w].pending_triggers.push_back((op, round));
                self.try_dispatch(w);
            }
            Ev::DeadlockCheck { round } => {
                if epoch != self.epoch {
                    return;
                }
                self.check_deadlock(round);
            }
            Ev::UploadDone { winc, job } => {
                if epoch != self.epoch {
                    return;
                }
                let w = self.worker_of_inst(job.meta.id.instance);
                if self.workers[w].incarnation != winc {
                    return; // upload died with the worker
                }
                self.finish_upload(job.meta, job.objects);
            }
            Ev::Fail { worker } => self.on_fail(worker as usize),
            Ev::Detect => {
                if epoch != self.epoch {
                    return; // superseded by a newer recovery round
                }
                self.on_detect();
            }
            Ev::RestartDone { line } => {
                if epoch != self.epoch {
                    return; // a mid-recovery failure restarted the line
                }
                self.on_restart(line);
            }
            Ev::LagProbe => self.on_lag_probe(),
        }
    }

    // ------------------------------------------------------------------
    // worker scheduling
    // ------------------------------------------------------------------

    fn try_dispatch(&mut self, w: usize) {
        {
            let worker = &self.workers[w];
            if worker.down || worker.paused || worker.running {
                return;
            }
        }
        // 1) COOR source triggers.
        if let Some((op, round)) = self.workers[w].pending_triggers.pop_front() {
            self.exec_source_trigger(w, op, round);
            return;
        }
        // 2) UNC/CIC local checkpoints.
        if let Some(op) = self.workers[w].pending_ckpts.pop_front() {
            self.exec_local_checkpoint(w, op);
            return;
        }
        // 3) Due operator timers.
        if let Some(&(at, op)) = self.workers[w].due_timers.iter().next() {
            if at <= self.now {
                self.workers[w].due_timers.remove(&(at, op));
                self.exec_op_timer(w, op, at);
                return;
            }
        }
        // 4/5) Fair interleave: alternate one source poll with one inbound
        // message so that sources keep pushing while downstream is busy
        // (bounded only by readability) — queues then reflect real load.
        let prefer_source = self.workers[w].prefer_source;
        self.workers[w].prefer_source = !prefer_source;
        if prefer_source {
            if self.try_source_poll(w) || self.try_message(w) {
                return;
            }
        } else if self.try_message(w) || self.try_source_poll(w) {
            return;
        }
        // 6) Idle: wake at the next source availability, or when the
        // earliest future-gated queued message arrives (batched ship
        // events insert messages ahead of their arrival instants).
        let mut next: Option<SimTime> = None;
        if let Some((at, _)) = self.workers[w].queue.first_key() {
            if at > self.now {
                next = Some(at);
            }
        }
        for k in 0..self.workers[w].src_ops.len() {
            let op = self.workers[w].src_ops[k];
            let inst = self.workers[w].instance(op);
            let stream = inst.stream.expect("src_ops holds sources");
            let offset = inst.cursor.expect("source has cursor").next_offset;
            if let Some(at) = self.logs[stream as usize].available_at(offset) {
                next = Some(next.map_or(at, |n: SimTime| n.min(at)));
            }
        }
        if let Some(at) = next {
            let at = at.max(self.now + 1);
            let need = match self.workers[w].wake_at {
                None => true,
                Some(cur) => at < cur,
            };
            if need {
                self.workers[w].wake_at = Some(at);
                self.push_at(at, Ev::Wake { worker: w as u32 });
            }
        }
    }

    /// Process the oldest deliverable inbound message (stashing blocked
    /// channels on the way). Returns true when a task was started.
    ///
    /// During determinant replay an instance must consume messages in
    /// its recorded pre-failure order. A message that arrives ahead of
    /// its turn is moved to the instance's parking map the first time
    /// the scan meets it, so each backlog message is skipped at most
    /// once instead of rescanned per delivery; parked messages come
    /// back when they reach the determinant front (or when replay
    /// drains).
    fn try_message(&mut self, w: usize) -> bool {
        // Fast path: no determinant replay in progress on this worker
        // (always the case under COOR/None, and under UNC/CIC outside
        // the recovery window) — deliver strictly in arrival order.
        let det_active = !self.det_logs.is_empty()
            && self.workers[w]
                .instances
                .iter()
                .any(|i| !i.det_replay.is_empty() || !i.det_parked.is_empty());
        if !det_active {
            loop {
                let Some((key, msg)) = self.workers[w].queue.pop_first_due(self.now) else {
                    return false; // empty, or earliest not arrived yet
                };
                let ch = msg.channel;
                if self.workers[w].blocked.contains(&ch) {
                    self.workers[w]
                        .stash
                        .entry(ch)
                        .or_default()
                        .push((key, msg));
                    continue;
                }
                self.exec_deliver(w, msg);
                return true;
            }
        }
        // Candidate parked messages: for each replaying instance, the
        // message matching its determinant front (if it already
        // arrived). An instance whose replay just drained returns its
        // whole parking map to the queue.
        let mut best_parked: Option<(QueueKey, usize, (ChannelIdx, u64))> = None;
        for op_i in 0..self.workers[w].instances.len() {
            if self.workers[w].instances[op_i].det_parked.is_empty() {
                continue;
            }
            match self.workers[w].instances[op_i].det_replay.front().copied() {
                None => {
                    let parked = std::mem::take(&mut self.workers[w].instances[op_i].det_parked);
                    for (_, (key, msg)) in parked {
                        self.workers[w].queue.insert(key, msg);
                    }
                }
                Some(front) => {
                    if let Some(entry) = self.workers[w].instances[op_i].det_parked.get(&front) {
                        let key = entry.0;
                        if best_parked.is_none_or(|(bk, _, _)| key < bk) {
                            best_parked = Some((key, op_i, front));
                        }
                    }
                }
            }
        }
        // First deliverable message still in the arrival queue.
        let replaying = self.workers[w]
            .instances
            .iter()
            .any(|i| !i.det_replay.is_empty());
        let mut queue_candidate: Option<QueueKey> = None;
        let mut cursor: Option<QueueKey> = None;
        loop {
            let key = match cursor {
                None => self.workers[w].queue.first_key(),
                Some(prev) => self.workers[w].queue.next_key_after(prev),
            };
            let Some(key) = key else { break };
            if key.0 > self.now {
                break; // everything further is future-gated
            }
            let ch = self.workers[w].queue.get(&key).expect("cursor key").channel;
            if self.workers[w].blocked.contains(&ch) {
                let m = self.workers[w].queue.remove(&key).expect("checked");
                self.workers[w].stash.entry(ch).or_default().push((key, m));
                cursor = Some(key);
                continue;
            }
            if replaying {
                if let Some(held) = self.det_held_as(w, key) {
                    let msg = self.workers[w].queue.remove(&key).expect("checked");
                    let op = self.chan_route[msg.channel.0 as usize].to_op;
                    self.workers[w]
                        .instance_mut(op)
                        .det_parked
                        .insert(held, (key, msg));
                    cursor = Some(key);
                    continue;
                }
            }
            queue_candidate = Some(key);
            break;
        }
        // Deliver whichever candidate arrived first.
        let msg = match (best_parked, queue_candidate) {
            (Some((pk, op_i, front)), qc) if qc.is_none_or(|qk| pk < qk) => {
                let (_, msg) = self.workers[w].instances[op_i]
                    .det_parked
                    .remove(&front)
                    .expect("candidate parked");
                msg
            }
            (_, Some(qk)) => self.workers[w].queue.remove(&qk).expect("checked"),
            (None, None) => return false,
            (Some(_), None) => unreachable!("guard holds when queue has no candidate"),
        };
        self.exec_deliver(w, msg);
        true
    }

    /// Under determinant replay, the `(channel, seq)` identity of the
    /// queued message at `key` if it must be held for a later turn, or
    /// `None` when it may be delivered now. Duplicates at or below the
    /// restored receive watermark pass (they dedup-drop without
    /// touching state), and markers are unaffected (COOR never logs
    /// determinants).
    fn det_held_as(&self, w: usize, key: QueueKey) -> Option<(ChannelIdx, u64)> {
        let msg = self.workers[w].queue.get(&key).expect("held key");
        let MsgKind::Data { seq, .. } = &msg.kind else {
            return None;
        };
        let op = self.chan_route[msg.channel.0 as usize].to_op;
        let inst = self.workers[w].instance(op);
        match inst.det_replay.front() {
            None => None,
            Some(&(next_ch, next_seq)) => {
                let deliverable = *seq <= inst.book.last_received(msg.channel)
                    || (msg.channel == next_ch && *seq == next_seq);
                (!deliverable).then_some((msg.channel, *seq))
            }
        }
    }

    /// Poll one readable source record (round-robin across this
    /// worker's source instances). Returns true when a task was started.
    fn try_source_poll(&mut self, w: usize) -> bool {
        let n_src = self.workers[w].src_ops.len();
        for step in 0..n_src {
            let k = (self.workers[w].src_rr + step) % n_src;
            let op = self.workers[w].src_ops[k];
            let (stream, offset) = {
                let inst = self.workers[w].instance(op);
                (
                    inst.stream.expect("src_ops holds sources") as usize,
                    inst.cursor.expect("source has cursor").next_offset,
                )
            };
            if self.logs[stream].readable(offset, self.now) {
                self.workers[w].src_rr = (k + 1) % n_src;
                self.exec_source_poll(w, op);
                return true;
            }
        }
        false
    }

    /// Begin a task on worker `w`: occupy the CPU for `service` ns and
    /// schedule completion. Flushes the task's shipped messages first —
    /// one arrival event per destination worker.
    fn begin_task(&mut self, w: usize, service: SimTime) -> SimTime {
        self.flush_ship();
        let service = self.straggled(w, service);
        let t_done = self.now + service.max(1);
        let worker = &mut self.workers[w];
        worker.running = true;
        worker.busy_until = t_done;
        let winc = worker.incarnation;
        self.push_at(
            t_done,
            Ev::TaskDone {
                worker: w as u32,
                winc,
            },
        );
        t_done
    }

    /// Service time for worker `w` after applying any storm straggler
    /// window active right now (modeled slowdown: the same task costs
    /// `slowdown ×` as much CPU on a straggling worker).
    fn straggled(&self, w: usize, service: SimTime) -> SimTime {
        match &self.cfg.storm {
            Some(plan) if !plan.stragglers.is_empty() => {
                let f = plan.slowdown_at(w as u32, self.now);
                if f > 1.0 {
                    (service as f64 * f) as SimTime
                } else {
                    service
                }
            }
            _ => service,
        }
    }

    // ------------------------------------------------------------------
    // task execution
    // ------------------------------------------------------------------

    fn exec_deliver(&mut self, w: usize, msg: NetMsg) {
        let route = self.chan_route[msg.channel.0 as usize];
        let (op, port, from_inst) = (route.to_op, route.port, route.from);
        let wire = msg.payload_bytes() + msg.wire_overhead;
        match msg.kind {
            MsgKind::Marker { round } => self.exec_marker(w, op, msg.channel, round),
            MsgKind::Data { seq, record } => {
                let mut service = self.cfg.cost.deser_ns(wire);
                // One read-only instance borrow decides both pre-delivery
                // questions: duplicate? (replayed message already
                // reflected in the restored receiver state) and CIC
                // forced checkpoint before delivery?
                let (dup, force) = {
                    let inst = self.workers[w].instance(op);
                    let last = inst.book.last_received(msg.channel);
                    if seq <= last {
                        assert!(
                            msg.replayed,
                            "non-replay duplicate on {:?}: seq {seq} ≤ wm {last}",
                            msg.channel
                        );
                        (true, false)
                    } else {
                        let force = msg.piggyback.as_ref().is_some_and(|pb| {
                            inst.cic
                                .as_ref()
                                .expect("piggyback implies CIC")
                                .should_force(from_inst.0 as usize, pb)
                        });
                        (false, force)
                    }
                };
                if dup {
                    self.metrics.replay_dedup_drops += 1;
                    self.begin_task(w, service);
                    return;
                }
                if force {
                    service += self.take_checkpoint(w, op, CheckpointKind::Forced);
                }
                // One mutating borrow applies the delivery and carries
                // the determinant coordinates out, so the log append
                // below needs no re-resolution.
                let (det_pos, inst_idx) = {
                    let inst = self.workers[w].instance_mut(op);
                    let fresh = inst.book.deliver(msg.channel, seq);
                    assert!(fresh, "post-dedup delivery must be fresh");
                    if let Some(&(next_ch, next_seq)) = inst.det_replay.front() {
                        assert_eq!(
                            (next_ch, next_seq),
                            (msg.channel, seq),
                            "delivery out of determinant order at {:?}",
                            inst.idx
                        );
                        inst.det_replay.pop_front();
                    }
                    if let (Some(cic), Some(pb)) = (inst.cic.as_mut(), &msg.piggyback) {
                        cic.on_deliver(from_inst.0 as usize, pb);
                    }
                    (inst.book.total_received() - 1, inst.idx)
                };
                if !self.det_logs.is_empty() {
                    // Persist the delivery determinant (receiver-side
                    // message-logging requirement for deterministic
                    // replay); re-deliveries during replay are no-ops.
                    // The append cost is always charged, but the entry
                    // is materialized only when a failure is scheduled —
                    // determinant replay is the log's only reader, and
                    // it can never run in a failure-free run (same
                    // reasoning as the sized-only channel logs).
                    if self.fail_injected {
                        self.det_logs[inst_idx.0 as usize].append(det_pos, msg.channel, seq);
                    }
                    service += self.cfg.cost.log_append_ns(DET_ENTRY_BYTES);
                }
                service += self.pg.logical().op(op).work_ns;
                let is_sink = matches!(self.pg.logical().op(op).role, OpRole::Sink);
                let ingest_time = record.ingest_time;
                let (outputs, timers) = self.run_operator(w, op, port, record);
                service += self.route_outputs(w, op, outputs);
                let t_done = self.begin_task(w, service);
                self.schedule_op_timers(w, op, timers);
                if is_sink {
                    self.metrics.sink_outputs_total += 1;
                    let latency = t_done.saturating_sub(ingest_time);
                    self.metrics.series.record(t_done, latency);
                    if t_done >= self.cfg.warmup {
                        self.metrics.sink_records_postwarmup += 1;
                    }
                }
            }
        }
    }

    fn exec_marker(&mut self, w: usize, op: OpId, ch: ChannelIdx, round: u64) {
        let mut service = self.cfg.cost.marker_handle_ns;
        let action = self.workers[w]
            .instance_mut(op)
            .aligner
            .as_mut()
            .expect("marker at aligned instance")
            .on_marker(ch, round);
        match action {
            MarkerAction::Block => {
                self.workers[w].blocked.insert(ch);
                self.begin_task(w, service);
            }
            MarkerAction::Checkpoint { round, unblock } => {
                service += self.take_checkpoint(w, op, CheckpointKind::Coordinated { round });
                service += self.forward_markers(w, op, round);
                for c in unblock {
                    self.workers[w].unstash(c);
                }
                self.begin_task(w, service);
            }
        }
    }

    fn exec_source_trigger(&mut self, w: usize, op: OpId, round: u64) {
        let mut service = self.take_checkpoint(w, op, CheckpointKind::Coordinated { round });
        service += self.forward_markers(w, op, round);
        self.begin_task(w, service);
    }

    fn exec_local_checkpoint(&mut self, w: usize, op: OpId) {
        let service = self.take_checkpoint(w, op, CheckpointKind::Local);
        self.begin_task(w, service);
    }

    fn exec_op_timer(&mut self, w: usize, op: OpId, at: SimTime) {
        self.ctx.now = at;
        self.workers[w]
            .instance_mut(op)
            .op
            .on_timer(at, &mut self.ctx);
        let (outputs, timers) = self.ctx.take();
        let mut service = self.cfg.cost.marker_handle_ns; // timer bookkeeping cost
        service += self.route_outputs(w, op, outputs);
        self.begin_task(w, service);
        self.schedule_op_timers(w, op, timers);
    }

    fn exec_source_poll(&mut self, w: usize, op: OpId) {
        let (stream, offset) = {
            let inst = self.workers[w].instance(op);
            (
                inst.stream.expect("source") as usize,
                inst.cursor.expect("source").next_offset,
            )
        };
        let entry = self.logs[stream]
            .poll(w as u32, offset, self.now)
            .expect("picked because available");
        self.workers[w]
            .instance_mut(op)
            .cursor
            .as_mut()
            .expect("source")
            .advance();
        let mut service = self.pg.logical().op(op).work_ns;
        let (outputs, timers) = self.run_operator(w, op, PortId(0), entry.record);
        service += self.route_outputs(w, op, outputs);
        self.begin_task(w, service);
        self.schedule_op_timers(w, op, timers);
    }

    /// Run the operator body; returns (outputs, timer requests). The
    /// invocation context is engine-owned so its output buffer's
    /// capacity is reused across records.
    fn run_operator(
        &mut self,
        w: usize,
        op: OpId,
        port: PortId,
        record: Record,
    ) -> (Vec<(usize, Record)>, Vec<SimTime>) {
        self.ctx.now = self.now;
        self.workers[w]
            .instance_mut(op)
            .op
            .on_record(port, record, &mut self.ctx);
        self.ctx.take()
    }

    fn schedule_op_timers(&mut self, w: usize, op: OpId, timers: Vec<SimTime>) {
        let winc = self.workers[w].incarnation;
        let mut to_schedule = Vec::new();
        {
            let inst = self.workers[w].instance_mut(op);
            for t in timers {
                let t = t.max(self.now + 1);
                if inst.scheduled_timers.insert(t) {
                    to_schedule.push(t);
                }
            }
        }
        for t in to_schedule {
            self.push_at(
                t,
                Ev::OpTimer {
                    worker: w as u32,
                    winc,
                    op,
                },
            );
        }
    }

    /// Route operator outputs to their target instances; returns the CPU
    /// cost of serializing (and logging) them. The drained buffer is
    /// handed back to the engine context so its capacity is reused.
    fn route_outputs(&mut self, w: usize, op: OpId, mut outputs: Vec<(usize, Record)>) -> SimTime {
        let mut service = 0;
        let p = self.cfg.parallelism;
        let inst_idx = self.workers[w].instance(op).idx;
        // Resolve the instance's edge table once for the whole fan-out.
        // Borrowing through a local `Arc` clone (graph is read-only and
        // shared) keeps `self` free for the `&mut` sends, so the inner
        // loops index a live slice instead of re-walking
        // `pg.out_edges_of` per edge per record.
        let pg = Arc::clone(&self.pg);
        let edges = pg.out_edges_of(inst_idx);
        for (edge_i, rec) in outputs.drain(..) {
            let edge = &edges[edge_i];
            match edge.kind {
                EdgeKind::Forward => {
                    let ch = edge.targets[w].expect("edge connects target");
                    service += self.send_data(w, op, ch, rec);
                }
                EdgeKind::Shuffle | EdgeKind::Feedback => {
                    let j = checkmate_dataflow::shuffle_target(rec.key, p) as usize;
                    let ch = edge.targets[j].expect("edge connects target");
                    service += self.send_data(w, op, ch, rec);
                }
                EdgeKind::Broadcast => {
                    for j in 0..p as usize {
                        let ch = edge.targets[j].expect("edge connects target");
                        service += self.send_data(w, op, ch, rec.clone());
                    }
                }
            }
        }
        self.ctx.put_back_outputs(outputs);
        service
    }

    /// Send one data record on `ch`; returns the sender CPU cost.
    fn send_data(&mut self, w: usize, op: OpId, ch: ChannelIdx, rec: Record) -> SimTime {
        let route = self.chan_route[ch.0 as usize];
        debug_assert_eq!(route.from_w as usize, w); // from == our inst
        let (seq, pb) = {
            let inst = self.workers[w].instance_mut(op);
            let seq = inst.book.next_send(ch);
            let pb = inst.cic.as_mut().map(|c| c.on_send(route.to.0 as usize));
            (seq, pb)
        };
        // A log that materializes payloads (a failure is scheduled, so
        // replay can happen) encodes the record before the message takes
        // it; sized-only logs take accounting only, below.
        let materialized =
            !self.chan_logs.is_empty() && self.chan_logs[ch.0 as usize].is_materialized();
        if materialized {
            self.chan_logs[ch.0 as usize].append_record(seq, &rec);
        }
        let mut msg = NetMsg::data(ch, seq, rec);
        if let Some(pb) = pb {
            let wire = match self.cfg.protocol {
                ProtocolKind::CommunicationInduced => hmnr_wire_bytes(self.cfg.parallelism),
                ProtocolKind::CommunicationInducedBcs => BCS_WIRE_BYTES,
                _ => unreachable!("piggyback without CIC"),
            };
            msg = msg.with_piggyback(pb, wire);
        }
        let mut service = self.cfg.cost.ser_ns(msg.wire_bytes());
        if !self.chan_logs.is_empty() {
            if !materialized {
                self.chan_logs[ch.0 as usize].append_size_only(seq, msg.payload_bytes() - 8);
            }
            service += self.cfg.cost.log_append_ns(msg.payload_bytes());
        }
        self.metrics.payload_bytes += msg.payload_bytes() as u64;
        self.metrics.protocol_bytes += msg.overhead_bytes() as u64;
        self.ship(msg);
        service
    }

    /// Stage the network arrival of `msg`, enforcing per-channel FIFO.
    /// The message's queue position `(arrival, ship seq)` is fixed here;
    /// delivery happens via the per-destination batch flushed at
    /// `begin_task` (or immediately, with batching disabled).
    fn ship(&mut self, msg: NetMsg) {
        // Tasks call route/send during dispatch, before begin_task fixes
        // busy_until; use `now` + a conservative bound: the arrival floor
        // guarantees FIFO regardless, and service times dominate.
        let route = self.chan_route[msg.channel.0 as usize];
        let (from_w, to_w) = (route.from_w as usize, route.to_w as usize);
        let local = from_w == to_w;
        let xfer = if local {
            self.cfg.cost.local_xfer_ns
        } else {
            self.cfg.cost.xfer_ns(msg.wire_bytes())
        };
        let floor = self.chan_floor[msg.channel.0 as usize];
        let arrival = (self.now + xfer).max(floor + 1);
        self.chan_floor[msg.channel.0 as usize] = arrival;
        let key = (arrival, self.arrival_seq);
        self.arrival_seq += 1;
        let src_winc = self.workers[from_w].incarnation;
        self.arrivals_inflight += 1;
        if self.pending_ship[to_w].is_empty() {
            self.pending_dsts.push(to_w as u32);
        }
        self.pending_ship[to_w].push((key, src_winc, msg));
        if !self.cfg.data_batching {
            self.flush_ship();
        }
    }

    /// Emit the staged messages: one event per destination worker, fired
    /// at that destination's earliest arrival. Singleton groups reuse
    /// the staging buffer (no allocation).
    fn flush_ship(&mut self) {
        if self.pending_dsts.is_empty() {
            return;
        }
        for i in 0..self.pending_dsts.len() {
            let dst = self.pending_dsts[i] as usize;
            let dst_winc = self.workers[dst].incarnation;
            // Fire at the group's earliest arrival: push order is not
            // arrival order across channels (transfer times are
            // size-dependent and each channel carries its own FIFO
            // floor), and every message must be in the destination's
            // queue by its own arrival instant.
            let first_at = self.pending_ship[dst]
                .iter()
                .map(|(k, _, _)| k.0)
                .min()
                .expect("non-empty ship group");
            // Swap in a recycled payload buffer so the staging slot
            // keeps a capacity and the batch rides a pooled one.
            let batch = std::mem::replace(
                &mut self.pending_ship[dst],
                self.batch_pool.pop().unwrap_or_default(),
            );
            let ev = Ev::ArriveBatch { dst_winc, batch };
            self.push_at(first_at, ev);
        }
        self.pending_dsts.clear();
    }

    /// Forward COOR markers on every outgoing channel; returns CPU cost.
    fn forward_markers(&mut self, w: usize, op: OpId, round: u64) -> SimTime {
        let inst_idx = self.workers[w].instance(op).idx;
        let mut service = 0;
        let channels: Vec<ChannelIdx> = self
            .pg
            .out_edges_of(inst_idx)
            .iter()
            .flat_map(|oe| oe.targets.iter().flatten().copied())
            .collect();
        for ch in channels {
            service += self.cfg.cost.ser_ns(MARKER_BYTES);
            let msg = NetMsg::marker(ch, round);
            self.metrics.protocol_bytes += msg.overhead_bytes() as u64;
            self.ship(msg);
        }
        service
    }

    /// Capture a checkpoint of instance `(w, op)`; returns the CPU cost of
    /// serializing the snapshot. The upload completes asynchronously, its
    /// duration priced from the store backend's declared profile: one
    /// pipelined PUT of the uploaded bytes (whole snapshot, or only the
    /// fresh chunks of an incremental checkpoint).
    fn take_checkpoint(&mut self, w: usize, op: OpId, kind: CheckpointKind) -> SimTime {
        // Storage brownout degradation: the live path bounds checkpoint
        // PUTs at `TRY_ATTEMPTS` tries and defers the checkpoint when
        // all of them fail, so the model defers with the matching
        // probability `put_fail_p ^ TRY_ATTEMPTS`. A deferred attempt
        // mints no checkpoint id (indices stay contiguous — the next
        // successful attempt takes the next index) and registers no GC
        // floor, but still pays the snapshot CPU: the state was
        // serialized before the store refused it. Only whole-snapshot
        // runs may defer — skipping an incremental upload would leave
        // later manifests referencing chunks that never landed.
        let brownout = self
            .cfg
            .storm
            .as_ref()
            .and_then(|p| p.brownout_at(self.now))
            .copied();
        if let Some(b) = brownout {
            let p_defer = b.put_fail_p.powi(TRY_ATTEMPTS as i32);
            if self.cfg.incremental.is_none() && p_defer > 0.0 && self.rng.chance(p_defer) {
                self.coord.ckpts_deferred += 1;
                let len = self.workers[w].instance_mut(op).snapshot_len();
                return self.cfg.cost.snapshot_ns(len);
            }
        }
        let winc = self.workers[w].incarnation;
        let incremental = self.cfg.incremental;
        let snap_sized = self.snap_sized;
        let zeros = &mut self.zeros;
        let (meta, objects, state_len) = {
            let inst = self.workers[w].instance_mut(op);
            inst.ckpt_index += 1;
            let (recv_wm, sent_wm) = inst.book.watermarks();
            // Sized-only accounting: recovery provably never reads this
            // state back (mode resolution requires a failure-free,
            // non-incremental run), so charge the exact encoded length
            // and upload a same-length zero placeholder instead of
            // serializing operator state. Every modeled quantity —
            // snapshot CPU, upload duration, `state_bytes`, store
            // PUT/GC byte accounting — is identical to a full encode.
            let (state_len, state_key, manifest, objects): (
                usize,
                String,
                Option<checkmate_core::SnapshotManifest>,
                Vec<(String, Bytes)>,
            ) = if snap_sized {
                let len = inst.snapshot_len();
                let key = snapshot::state_key(inst.idx, inst.ckpt_index);
                (len, key.clone(), None, vec![(key, zeros.slice(len))])
            } else {
                let state = inst.snapshot_bytes();
                let state_len = state.len();
                match &incremental {
                    Some(policy) => {
                        let plan = snapshot::plan_snapshot(
                            inst.idx,
                            inst.ckpt_index,
                            &state,
                            inst.last_manifest.as_ref(),
                            policy,
                        );
                        inst.last_manifest = Some(plan.manifest.clone());
                        let objects = plan
                            .objects
                            .into_iter()
                            .map(|(k, v)| (k, Bytes::from(v)))
                            .collect();
                        (state_len, String::new(), Some(plan.manifest), objects)
                    }
                    None => {
                        let key = snapshot::state_key(inst.idx, inst.ckpt_index);
                        (
                            state_len,
                            key.clone(),
                            None,
                            vec![(key, Bytes::from(state))],
                        )
                    }
                }
            };
            let meta = CheckpointMeta {
                id: CheckpointId::new(inst.idx, inst.ckpt_index),
                kind,
                taken_at: self.now,
                durable_at: 0,
                recv_wm,
                sent_wm,
                source_offset: inst.cursor.map(|c| c.next_offset),
                state_key,
                state_bytes: state_len as u64,
                manifest,
            };
            if let Some(cic) = inst.cic.as_mut() {
                cic.on_checkpoint();
            }
            (meta, objects, state_len)
        };
        let service = self.cfg.cost.snapshot_ns(state_len);
        // Until this upload lands, GC must not reclaim past the oldest
        // chunk owner its manifest references (the manifest is invisible
        // to the liveness scan, which only sees durable metas).
        let needs_floor = meta
            .manifest
            .as_ref()
            .and_then(|m| m.oldest_owner())
            .unwrap_or(meta.id.index);
        self.inflight_floors
            .entry(meta.id.instance)
            .or_default()
            .insert(meta.id.index, needs_floor);
        let uploaded: usize = objects.iter().map(|(_, b)| b.len()).sum();
        let profile = self.store.profile();
        let durable = self.now
            + service
            + profile.put_many_ns(objects.len().max(1), uploaded)
            + self.cfg.cost.control_latency_ns
            + brownout.map_or(0, |b| b.extra_latency_ns);
        // Metadata traffic to the coordinator is protocol overhead.
        self.metrics.protocol_bytes += 64;
        self.push_at(
            durable,
            Ev::UploadDone {
                winc,
                job: Box::new(UploadJob { meta, objects }),
            },
        );
        service
    }

    fn finish_upload(&mut self, mut meta: CheckpointMeta, objects: Vec<(String, Bytes)>) {
        meta.durable_at = self.now;
        for (key, bytes) in objects {
            self.store.put(key, bytes);
        }
        let inst = meta.id.instance;
        if let Some(pending) = self.inflight_floors.get_mut(&inst) {
            pending.remove(&meta.id.index);
        }
        let round = match meta.kind {
            CheckpointKind::Coordinated { round } => Some(round),
            _ => None,
        };
        if meta.id.index > 0 {
            match self.cfg.protocol {
                ProtocolKind::Coordinated => {} // counted at round completion
                _ => {
                    self.metrics.checkpoints_total += 1;
                    if meta.kind.is_forced() {
                        self.metrics.checkpoints_forced += 1;
                    }
                    self.coord.ckpt_durations.push(self.now - meta.taken_at);
                }
            }
        }
        self.coord.metas.insert((inst, meta.id.index), meta.clone());
        self.gc_after(&meta);
        if let Some(r) = round {
            let acks = self.coord.round_acks.entry(r).or_default();
            acks.insert(inst);
            if acks.len() == self.pg.n_instances() {
                self.coord.rounds_completed += 1;
                let started = self.coord.round_started_at[&r];
                self.coord.round_durations.push(self.now - started);
                self.metrics.checkpoints_total += self.pg.n_instances() as u64;
            }
        }
    }

    /// Checkpoint space reclamation: drop state objects beyond the
    /// retention window and truncate channel logs below what retained
    /// checkpoints can still need.
    ///
    /// Reclamation is bounded by the *current recovery line*: a
    /// checkpoint is deleted only once it is both outside the retention
    /// window and strictly older than what the protocol's recovery-line
    /// computation would pick today. Lines are monotone — a line member
    /// stays consistent with every other member forever, and rollback
    /// propagation returns the maximal consistent line — so nothing a
    /// *future* failure needs is ever deleted (property-tested in
    /// `checkmate-core`). Incremental checkpoints add chunk liveness on
    /// top: a reclaimed checkpoint's chunk objects survive as long as
    /// any retained manifest still references them, and are reconsidered
    /// on later sweeps (compaction).
    fn gc_after(&mut self, meta: &CheckpointMeta) {
        let retention = self.cfg.checkpoint_retention;
        if meta.id.index <= retention {
            return;
        }
        let inst = meta.id.instance;
        let window_floor = meta.id.index - retention;
        let low = self.gc_low.get(&inst).copied().unwrap_or(0);
        if low >= window_floor {
            return;
        }
        // Never reclaim past the oldest chunk owner an in-flight upload
        // of this instance still references: its manifest is not in
        // `coord.metas` yet, so the liveness scan below cannot see it.
        let inflight_floor = self
            .inflight_floors
            .get(&inst)
            .and_then(|pending| pending.values().min().copied())
            .unwrap_or(u64::MAX);
        let floor = window_floor.min(self.safe_floor(inst)).min(inflight_floor);
        if floor <= low {
            return;
        }
        // Chunks owned by reclaimed checkpoints but still referenced by
        // a retained manifest of this instance.
        let live: BTreeSet<(u64, u32)> = self
            .coord
            .metas
            .range((inst, floor)..=(inst, u64::MAX))
            .filter_map(|(_, m)| m.manifest.as_ref())
            .flat_map(|man| {
                man.chunks
                    .iter()
                    .filter(|c| c.owner < floor)
                    .map(|c| (c.owner, c.slot))
            })
            .collect();
        let deferred = self.gc_deferred.entry(inst).or_default();
        for idx in low..floor {
            let Some(old) = self.coord.metas.get(&(inst, idx)) else {
                continue;
            };
            if !old.state_key.is_empty() {
                // Whole snapshots are never referenced by other
                // checkpoints; delete immediately.
                self.store.delete(&old.state_key);
            }
            if let Some(man) = &old.manifest {
                deferred.extend(
                    man.chunks
                        .iter()
                        .filter(|c| c.owner == idx)
                        .map(|c| (c.owner, c.slot)),
                );
            }
        }
        let dead: Vec<(u64, u32)> = deferred
            .iter()
            .filter(|p| !live.contains(p))
            .copied()
            .collect();
        for (owner, slot) in dead {
            deferred.remove(&(owner, slot));
            self.store.delete(&snapshot::chunk_key(inst, owner, slot));
        }
        self.gc_low.insert(inst, floor);
        // Truncate in-channel logs below the oldest retained receive
        // watermark of this instance.
        if self.chan_logs.is_empty() {
            return;
        }
        if let Some(oldest) = self.coord.metas.get(&(inst, floor)) {
            let det_floor = oldest.det_pos();
            let in_channels: Vec<ChannelIdx> = self.pg.in_channels_of(inst).to_vec();
            for ch in in_channels {
                let wm = oldest.received_on(ch);
                if wm > 0 {
                    self.chan_logs[ch.0 as usize].truncate_below(wm + 1);
                }
            }
            if !self.det_logs.is_empty() {
                self.det_logs[inst.0 as usize].truncate_below(det_floor);
            }
        }
    }

    /// Per-instance index of the current recovery line, cached and
    /// refreshed at checkpoint-interval granularity — the floor below
    /// which checkpoint GC may reclaim.
    fn safe_floor(&mut self, inst: InstanceIdx) -> u64 {
        let stale = match self.safe_line_at {
            None => true,
            Some(at) => self.now.saturating_sub(at) >= self.cfg.checkpoint_interval,
        };
        if stale {
            self.safe_line = self
                .current_line()
                .line
                .into_iter()
                .map(|(i, id)| (i, id.index))
                .collect();
            self.safe_line_at = Some(self.now);
        }
        self.safe_line.get(&inst).copied().unwrap_or(0)
    }

    /// The recovery line a failure *right now* would roll back to.
    fn current_line(&self) -> RecoveryOutcome {
        recovery_line(
            self.cfg.protocol,
            &self.coord.metas,
            &channel_triples(&self.pg),
        )
    }

    /// Modeled cost of fetching one checkpoint's state at recovery: a
    /// single pipelined GET at the store profile.
    fn state_fetch_ns(&self, meta: &CheckpointMeta) -> u64 {
        self.store
            .profile()
            .get_many_ns(meta.fetch_objects(), meta.state_bytes as usize)
    }

    // ------------------------------------------------------------------
    // failure & recovery
    // ------------------------------------------------------------------

    fn on_fail(&mut self, w: usize) {
        if self.workers[w].down {
            // Correlated storm kill on a worker that is already down:
            // there is nothing left to kill, and its Detect is already
            // in flight.
            return;
        }
        // Unavailability accounting: a kill opens an outage episode if
        // none is open (overlapping kills extend the same episode).
        if self.coord.episode_started_at.is_none() {
            self.coord.episode_started_at = Some(self.now);
        }
        self.coord.down_workers.insert(w as u32);
        let worker = &mut self.workers[w];
        worker.down = true;
        worker.incarnation += 1;
        worker.clear_volatile();
        // Messages this worker shipped that have not yet arrived die with
        // it. Batched ship events pre-inserted them into healthy workers'
        // queues after validating the sender incarnation at the batch's
        // first arrival; entries gated to at-or-after this instant must
        // be dropped now, exactly as their individual arrival events
        // would have dropped them on the stale-incarnation check. (The
        // Fail event was pushed at bootstrap, so among same-instant
        // events it pops first — an entry due exactly now has not been
        // delivered yet.)
        let routes = &self.chan_route;
        let now = self.now;
        for (dst, dw) in self.workers.iter_mut().enumerate() {
            if dst == w {
                continue; // cleared wholesale above
            }
            dw.queue
                .purge_not_arrived(now, |msg| routes[msg.channel.0 as usize].from_w == w as u32);
        }
        self.coord.failed_worker = Some(w as u32);
        self.push_at(self.now + self.cfg.cost.failure_detect_ns, Ev::Detect);
    }

    fn on_detect(&mut self) {
        if self.coord.down_workers.is_empty() {
            // Spurious: every kill this Detect could be reporting was
            // already covered by a completed restart (the restart
            // revives all workers and restores a consistent line).
            return;
        }
        if self.coord.detected_at.is_none() {
            self.coord.detected_at = Some(self.now);
        }
        self.epoch += 1;
        for w in &mut self.workers {
            w.paused = true;
            w.running = false;
        }
        // --- recovery line ---
        let out = self.current_line();
        self.coord.invalid_checkpoints = out.invalid_count() as u64;
        let line = out.line;
        let triples = channel_triples(&self.pg);
        // --- restart cost per worker ---
        let profile = self.store.profile();
        // A storage brownout active during recovery slows every durable
        // fetch; model it as extra per-worker latency plus the bounded
        // retry backoff the live store facade pays.
        let brownout_extra = self
            .cfg
            .storm
            .as_ref()
            .and_then(|p| p.brownout_at(self.now))
            .map_or(0, |b| b.extra_latency_ns);
        let mut restart_done = self.now;
        for w in 0..self.workers.len() {
            let mut ready = self.now + self.cfg.cost.control_latency_ns + brownout_extra;
            if self.coord.down_workers.contains(&(w as u32)) {
                ready += self.cfg.cost.worker_respawn_ns;
            }
            // State fetches per instance: one GET for a whole snapshot,
            // a pipelined chunk fetch for an incremental one.
            for inst in &self.workers[w].instances {
                let id = line[&inst.idx];
                let meta = &self.coord.metas[&(inst.idx, id.index)];
                if meta.has_state() {
                    ready += self.state_fetch_ns(meta);
                }
            }
            // Replay preparation: fetch the in-flight log ranges this
            // worker's instances must resend (one bulk GET per worker plus
            // transfer time for the bytes).
            if !self.chan_logs.is_empty() {
                let mut bytes = 0usize;
                for c in &triples {
                    if self.worker_of_inst(c.from) != w {
                        continue;
                    }
                    let (lo, hi) = replay_range(&line, &self.coord.metas, c);
                    if hi > lo {
                        bytes += self.chan_logs[c.ch.0 as usize].range_bytes(lo, hi);
                    }
                }
                // Determinant suffixes this worker's instances replay.
                for inst in &self.workers[w].instances {
                    let meta = &self.coord.metas[&(inst.idx, line[&inst.idx].index)];
                    bytes += self.det_logs[inst.idx.0 as usize].suffix_bytes(meta.det_pos());
                }
                if bytes > 0 {
                    ready += profile.get_ns(bytes);
                }
            }
            restart_done = restart_done.max(ready);
        }
        self.queue
            .push(restart_done, (self.epoch, Ev::RestartDone { line }));
    }

    fn on_restart(&mut self, line: BTreeMap<InstanceIdx, CheckpointId>) {
        self.coord.restart_done_at = Some(self.now);
        // Close the outage episode: everything that was down restarts
        // now. Record the line's minimum index — the monotonicity
        // witness for repeated-kill runs.
        self.coord.recoveries += 1;
        if let Some(started) = self.coord.episode_started_at.take() {
            self.coord.unavailability_ns += self.now - started;
        }
        self.coord.down_workers.clear();
        if let Some(min) = line.values().map(|id| id.index).min() {
            self.coord.recovery_line_mins.push(min);
        }
        // Discard post-line checkpoints (the "invalid" ones): whole
        // snapshots and any chunk objects they own. Sound because chunk
        // references only point backward — nothing at or below the line
        // can reference a discarded checkpoint's chunks.
        let durable = DurableCheckpoints::new(Arc::clone(&self.store));
        for stale in discard_after_line(&mut self.coord.metas, &line) {
            durable.delete_checkpoint(&stale);
        }
        // The cached GC floor may now be ahead of reality; recompute on
        // next use. In-flight uploads died with the epoch bump.
        self.safe_line_at = None;
        self.safe_line.clear();
        self.inflight_floors.clear();
        // Reset all workers & instances to the line.
        for w in 0..self.workers.len() {
            self.workers[w].down = false;
            self.workers[w].paused = false;
            self.workers[w].incarnation += 1;
            self.workers[w].busy_until = self.now;
            self.workers[w].clear_volatile();
            let ops: Vec<usize> = (0..self.workers[w].instances.len()).collect();
            for op_i in ops {
                let (idx, index) = {
                    let inst = &self.workers[w].instances[op_i];
                    (inst.idx, line[&inst.idx].index)
                };
                let meta = self.coord.metas[&(idx, index)].clone();
                self.restore_instance(w, op_i, &meta);
            }
        }
        // Arm determinant replay: each instance must re-consume the
        // deliveries recorded past its restored checkpoint in their
        // original cross-channel order, so post-rollback re-execution
        // reproduces the pre-failure computation exactly even for
        // operators sensitive to arrival interleaving.
        if !self.det_logs.is_empty() {
            for w in 0..self.workers.len() {
                for op_i in 0..self.workers[w].instances.len() {
                    let inst = &mut self.workers[w].instances[op_i];
                    let pos = inst.book.total_received();
                    inst.det_replay = self.det_logs[inst.idx.0 as usize].suffix_from(pos);
                }
            }
        }
        // Replay in-flight messages from the channel logs (UNC/CIC).
        if !self.chan_logs.is_empty() {
            for c in channel_triples(&self.pg) {
                let ch = c.ch;
                let (lo, hi) = replay_range(&line, &self.coord.metas, &c);
                if hi <= lo {
                    continue;
                }
                // The engine materializes channel logs whenever the run
                // config injects a failure, so sized-only logs can only
                // be met here through a host misconfiguration — surface
                // it as a structured outcome instead of unwinding.
                let entries: Vec<(u64, Record)> = match self.chan_logs[ch.0 as usize].range(lo, hi)
                {
                    Ok(entries) => entries.into_iter().map(|e| (e.seq, e.record)).collect(),
                    Err(err) => {
                        self.halted = Some(Outcome::ReplayUnavailable {
                            channel: ch.0,
                            lo: err.lo,
                            hi: err.hi,
                        });
                        return;
                    }
                };
                self.coord.replayed_records += entries.len() as u64;
                for (seq, rec) in entries {
                    let msg = NetMsg::data(ch, seq, rec).replay();
                    self.ship(msg);
                }
            }
            // Replayed in-flight messages go out as batched arrivals too
            // (their queue keys already carry per-message arrivals).
            self.flush_ship();
        }
        // Clear acks of rounds that died with the failure.
        let completed: Vec<u64> = self
            .coord
            .round_acks
            .iter()
            .filter(|(_, a)| a.len() == self.pg.n_instances())
            .map(|(r, _)| *r)
            .collect();
        self.coord.round_acks.retain(|r, _| completed.contains(r));
        // Re-arm UNC/CIC timers.
        if self.cfg.protocol.independent_checkpoints() {
            for w in 0..self.workers.len() {
                for op_i in 0..self.workers[w].instances.len() {
                    let inst = self.workers[w].instances[op_i].idx;
                    let next = self.now
                        + self.cfg.checkpoint_interval / 2
                        + self.rng.below(self.cfg.checkpoint_interval);
                    self.push_at(next, Ev::CkptTimer { inst });
                }
            }
        }
        for w in 0..self.workers.len() {
            self.push_at(self.now, Ev::Wake { worker: w as u32 });
        }
    }

    fn restore_instance(&mut self, w: usize, op_i: usize, meta: &CheckpointMeta) {
        let protocol = self.cfg.protocol;
        let n_inst = self.pg.n_instances();
        let state = DurableCheckpoints::new(Arc::clone(&self.store)).read_state(meta);
        let (in_channels, factory, role) = {
            let inst = &self.workers[w].instances[op_i];
            let lop = self.pg.logical().op(inst.op_id);
            (
                self.pg.in_channels_of(inst.idx).to_vec(),
                Arc::clone(&lop.factory),
                lop.role,
            )
        };
        let inst = &mut self.workers[w].instances[op_i];
        match state {
            Some(bytes) => inst.restore_from(&bytes),
            None => {
                // Initial checkpoint: fresh everything.
                inst.op = (factory)(w as u32);
                inst.book = checkmate_core::ChannelBook::new();
                inst.cursor = matches!(role, OpRole::Source { .. })
                    .then(checkmate_wal::SourceCursor::default);
                inst.cic = match protocol {
                    ProtocolKind::CommunicationInduced => {
                        Some(checkmate_core::CicState::hmnr(inst.idx.0 as usize, n_inst))
                    }
                    ProtocolKind::CommunicationInducedBcs => Some(checkmate_core::CicState::bcs()),
                    _ => None,
                };
                inst.scheduled_timers.clear();
            }
        }
        inst.ckpt_index = meta.id.index;
        inst.last_manifest = meta.manifest.clone();
        // Rebuild alignment state at the line's round.
        if protocol == ProtocolKind::Coordinated && !matches!(role, OpRole::Source { .. }) {
            let mut aligner = CoorAligner::new(in_channels);
            aligner.reset_to_round(meta.kind.round().expect("COOR line is per-round"));
            inst.aligner = Some(aligner);
        }
    }

    // ------------------------------------------------------------------
    // probes, deadlock, drain, report
    // ------------------------------------------------------------------

    fn current_lag_secs(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for w in &self.workers {
            for inst in &w.instances {
                let Some(stream) = inst.stream else { continue };
                let cursor = inst.cursor.expect("source").next_offset;
                let lag = self.logs[stream as usize].lag(cursor, self.now);
                worst = worst.max(lag as f64 / self.rates_pp[stream as usize]);
            }
        }
        worst
    }

    fn on_lag_probe(&mut self) {
        let lag = self.current_lag_secs();
        if self.now >= self.cfg.warmup && self.coord.lag_at_warmup_secs.is_none() {
            self.coord.lag_at_warmup_secs = Some(lag);
        }
        if self.coord.detected_at.is_none() {
            self.coord.steady_lag_secs = lag;
        } else if self.coord.restart_done_at.is_some() && self.coord.recovery_done_at.is_none() {
            let threshold = self.coord.steady_lag_secs * self.cfg.recovery_lag_factor + 0.25;
            if lag <= threshold {
                self.coord.recovery_done_at = Some(self.now);
            }
        }
        self.maybe_drained();
        if self.now + 250 * MILLIS <= self.cfg.duration {
            self.push_at(self.now + 250 * MILLIS, Ev::LagProbe);
        }
    }

    fn check_deadlock(&mut self, round: u64) {
        let complete = self
            .coord
            .round_acks
            .get(&round)
            .is_some_and(|a| a.len() == self.pg.n_instances());
        if complete {
            return;
        }
        for w in &self.workers {
            for inst in &w.instances {
                let Some(aligner) = &inst.aligner else {
                    continue;
                };
                if aligner.aligning_round() != Some(round) {
                    continue;
                }
                let awaiting_feedback = aligner
                    .awaited_channels()
                    .iter()
                    .any(|ch| self.pg.channel(*ch).kind.is_feedback());
                if awaiting_feedback {
                    self.halted = Some(Outcome::CoordinatedDeadlock { at: self.now });
                    return;
                }
            }
        }
    }

    fn maybe_drained(&mut self) {
        if self.cfg.input_limit.is_none() || self.halted.is_some() {
            return;
        }
        if self.arrivals_inflight > 0 {
            return;
        }
        // A failure in progress is not a drain: the dead worker's backlog
        // only reappears after recovery replays/reprocesses it.
        if self.workers.iter().any(|w| w.down || w.paused) {
            return;
        }
        let all_idle = self.workers.iter().all(|w| {
            !w.running
                && w.queue.is_empty()
                && w.stash.is_empty()
                && w.pending_triggers.is_empty()
                && w.pending_ckpts.is_empty()
                && w.instances
                    .iter()
                    .all(|i| i.det_parked.is_empty() && i.det_replay.is_empty())
                && w.instances.iter().all(|i| {
                    i.stream.is_none()
                        || self.logs[i.stream.unwrap() as usize]
                            .exhausted(i.cursor.expect("source").next_offset)
                })
        });
        if all_idle {
            self.halted = Some(Outcome::Drained);
        }
    }

    fn finish(mut self, arena: &mut SimArena, workers_out: Option<&mut Vec<Worker>>) -> RunReport {
        let outcome = self.halted.clone().unwrap_or(Outcome::Completed);
        let warmup_sec = self.cfg.warmup / 1_000_000_000;
        let p50 = self.metrics.series.percentile_from(warmup_sec, 0.50);
        let p99 = self.metrics.series.percentile_from(warmup_sec, 0.99);
        let final_lag = self.current_lag_secs();
        // Sustainability (paper §V): the rate is sustained iff neither the
        // source backlog nor the end-to-end latency diverges. Backlog
        // catches source starvation; the latency slope catches queue
        // growth inside the pipeline (sources keep reading eagerly, so
        // overload shows up as per-second p50 climbing, not as lag).
        let latency_ok = {
            let series = self.metrics.series.clone_series_after(warmup_sec);
            match (series.first(), series.last()) {
                (Some(first), Some(last)) if series.len() >= 2 => {
                    let early = first.1 as f64 / 1e9;
                    let late = last.1 as f64 / 1e9;
                    late <= 1.0 && late <= early + 0.15
                }
                _ => true,
            }
        };
        let mut digest = Digest::default();
        for w in &self.workers {
            for inst in &w.instances {
                if let Some(d) = inst.op.sink_digest() {
                    digest.count = digest.count.wrapping_add(d.count);
                    digest.acc = digest.acc.wrapping_add(d.acc);
                }
            }
        }
        let durations = match self.cfg.protocol {
            ProtocolKind::Coordinated => &self.coord.round_durations,
            _ => &self.coord.ckpt_durations,
        };
        let avg_ct = if durations.is_empty() {
            0
        } else {
            durations.iter().sum::<u64>() / durations.len() as u64
        };
        // An outage still open at run end (kill scheduled too late for
        // its recovery to complete) counts as unavailable to the end.
        if let Some(started) = self.coord.episode_started_at.take() {
            self.coord.unavailability_ns += self.now.saturating_sub(started);
        }
        let report = RunReport {
            workload: self.name.clone(),
            protocol: self.cfg.protocol,
            parallelism: self.cfg.parallelism,
            total_rate: self.cfg.total_rate,
            outcome,
            end_time: self.now,
            latency_series: self.metrics.series.build(),
            p50_ns: p50,
            p99_ns: p99,
            sink_records: self.metrics.sink_records_postwarmup,
            // Sustained = bounded backlog (≤ 300 ms of input, a few
            // consumer batches), no post-warmup backlog growth, and no
            // latency divergence.
            sustainable: final_lag <= 0.3
                && self
                    .coord
                    .lag_at_warmup_secs
                    .is_none_or(|w| final_lag - w <= 0.15)
                && latency_ok,
            final_lag_secs: final_lag,
            checkpoints_total: self.metrics.checkpoints_total,
            checkpoints_forced: self.metrics.checkpoints_forced,
            checkpoints_invalid: self.coord.invalid_checkpoints,
            avg_checkpoint_time_ns: avg_ct,
            rounds_completed: self.coord.rounds_completed,
            detected_at: self.coord.detected_at,
            restart_time_ns: match (self.coord.detected_at, self.coord.restart_done_at) {
                (Some(d), Some(r)) => Some(r - d),
                _ => None,
            },
            recovery_time_ns: match (self.coord.detected_at, self.coord.recovery_done_at) {
                (Some(d), Some(r)) => Some(r - d),
                _ => None,
            },
            recoveries: self.coord.recoveries,
            unavailability_ns: self.coord.unavailability_ns,
            replayed_records: self.coord.replayed_records,
            ckpts_deferred: self.coord.ckpts_deferred,
            recovery_line_mins: std::mem::take(&mut self.coord.recovery_line_mins),
            payload_bytes: self.metrics.payload_bytes,
            protocol_bytes: self.metrics.protocol_bytes,
            store: self.store.stats(),
            store_profile: self.store.profile().name,
            store_objects_live: self.store.object_count() as u64,
            store_bytes_live: self.store.total_bytes(),
            sink_digest: digest,
            output_duplicates: self.metrics.sink_outputs_total.saturating_sub(digest.count),
            events: self.events,
        };
        // Hand the allocation footprint back for the next run: every
        // container emptied, every capacity kept.
        self.queue.clear();
        arena.queue = self.queue;
        match workers_out {
            // Session reuse: workers survive whole (operator instances,
            // state maps, queue slabs); residual in-flight payloads —
            // queued, stashed (a run cut off mid-alignment), or parked
            // for determinant replay — are dropped now so no record
            // memory lingers between runs.
            Some(out) => {
                for mut w in self.workers {
                    w.clear_volatile();
                    out.push(w);
                }
            }
            None => {
                for w in &mut self.workers {
                    let mut q = std::mem::take(&mut w.queue);
                    q.clear();
                    arena.arrivals.push(q);
                }
            }
        }
        for mut v in self.pending_ship {
            v.clear();
            arena.ship.push(v);
        }
        arena.batch_pool.append(&mut self.batch_pool);
        self.chan_floor.clear();
        arena.chan_floor = self.chan_floor;
        self.chan_route.clear();
        arena.chan_route = self.chan_route;
        self.ctx.now = 0;
        arena.ctx = self.ctx;
        arena.store = Some(self.store);
        arena.zeros = self.zeros;
        report
    }
}
