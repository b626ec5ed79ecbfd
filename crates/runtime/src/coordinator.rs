//! The coordinator thread: run lifecycle, checkpoint bookkeeping,
//! scripted failure injection, and recovery.
//!
//! The coordinator owns the control channels ([`Ctrl`] out, [`Note`]
//! back), triggers COOR rounds, records durable-checkpoint acks from the
//! uploader, kills the scripted victim and drives the recovery
//! choreography: pause all → quiesce uploads → compute the protocol's
//! recovery line → discard post-line checkpoints → restore every worker
//! → replay logged in-flight messages → resume under a fresh epoch.
//! Between failures it is also the reclamation service of the
//! message-logging protocols: every poll that folded in a durable ack
//! recomputes the line and frees what lies below it (see [`Reclaimer`]).
//! Replay is force-pushed into the receivers' inboxes while every worker
//! is paused, so replayed wires always precede regenerated traffic on
//! their channel; receivers re-establish cross-channel order against
//! their determinant logs (see `worker.rs`).
//!
//! The run ends when every worker reports quiescence (input exhausted,
//! inboxes empty, nothing parked) for a grace window — not on a fixed
//! drain timer — so throughput figures measure processing, not sleep.

use crate::config::LiveConfig;
use crate::inbox::Inbox;
use crate::uploader::{uploader_main, UploadMsg, UploaderStats};
use crate::wire::Wire;
use crate::worker::worker_main;
use crate::{report::LiveReport, Shared};
use checkmate_core::{
    channel_triples, discard_after_line, reclaim_floors, recovery_line, replay_range,
    ChannelTriple, CheckpointId, CheckpointMeta, CicPiggyback, DurableCheckpoints, FaultPlan,
    HmnrPiggyback, KillEvent, Metas, ProtocolKind,
};
use checkmate_dataflow::graph::InstanceIdx;
use checkmate_dataflow::ops::Digest;
use checkmate_dataflow::{LogicalGraph, OpId, OpRole, Record};
use checkmate_storage::{Brownout, MemBackend, ObjectStore, Perturbation, PerturbedBackend};
use checkmate_wal::{ChannelLog, DeterminantLog, EventStream};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a killed worker's heartbeat must be silent before the
/// coordinator declares it failed and starts recovery. Live workers
/// stamp their heartbeat every loop iteration (sub-millisecond when
/// idle, a few milliseconds under load), so 15 ms of silence is
/// unambiguous — and only workers the fault plan actually killed can go
/// silent at all.
const DETECT_SILENCE_NS: u64 = 15_000_000;

/// Coordinator → worker control messages.
pub(crate) enum Ctrl {
    TriggerRound(u64),
    Kill,
    Pause,
    Restore(BTreeMap<OpId, CheckpointMeta>),
    Resume(u32),
    Stop,
}

/// Worker → coordinator notifications. Worker ids travel with the acks
/// for debuggability even where the coordinator only counts them.
#[allow(dead_code)]
pub(crate) enum Note {
    /// A checkpoint became durable (sent by the uploader thread). The
    /// epoch is the one the snapshot was captured in, so the coordinator
    /// can discard acks of checkpoints that raced a recovery.
    Meta(u32, CheckpointMeta),
    Paused(u32),
    Restored(u32),
    Done(u32, WorkerEnd),
}

/// A worker's final accounting, sent with its `Note::Done`.
pub(crate) struct WorkerEnd {
    pub digest: Digest,
    pub sink_records: u64,
    pub latencies: Vec<Duration>,
    pub events: u64,
    pub max_out_pending: usize,
    pub determinants: u64,
    pub replayed: u64,
    pub staged_appends: u64,
    pub log_flushes: u64,
}

/// Run a workload on real threads. `streams[i]` backs source stream `i`.
pub fn run_live(
    graph: &LogicalGraph,
    streams: Vec<Arc<dyn EventStream>>,
    cfg: LiveConfig,
) -> LiveReport {
    assert!(
        !graph.is_cyclic() || cfg.protocol.supports_cycles(),
        "the aligned coordinated protocol deadlocks on cyclic graphs"
    );
    assert!(
        cfg.parallelism >= 1 && cfg.parallelism <= 64,
        "live parallelism must be in 1..=64 (quiescence mask is a u64)"
    );
    assert!(
        cfg.storm.is_none() || cfg.kill_worker.is_none(),
        "LiveConfig::storm generalizes kill_worker; set at most one"
    );
    if let Some(plan) = &cfg.storm {
        plan.validate(cfg.parallelism);
        assert!(
            plan.brownouts.is_empty() || cfg.store.is_none(),
            "storm brownouts wrap the default in-memory store and are \
             incompatible with a caller-supplied store"
        );
    }
    let pg = graph.expand(cfg.parallelism);
    let n_channels = pg.n_channels();
    let n_instances = pg.n_instances();
    let start = Instant::now();
    // Brownout windows from the fault plan wrap the store in a
    // perturbation decorator whose clock is anchored at run start —
    // the same timeline the plan's kills and stragglers are scheduled
    // on — so window membership, kill instants and slowdowns all read
    // one clock.
    let storm_store = cfg
        .storm
        .as_ref()
        .filter(|p| !p.brownouts.is_empty())
        .map(|p| {
            let brownouts: Vec<Brownout> = p
                .brownouts
                .iter()
                .map(|b| Brownout {
                    from_ns: b.from_ns,
                    until_ns: b.until_ns,
                    put_fail_p: b.put_fail_p,
                    get_fail_p: b.get_fail_p,
                    extra_latency_ns: b.extra_latency_ns,
                })
                .collect();
            ObjectStore::shared_with(Arc::new(PerturbedBackend::with_clock(
                Arc::new(MemBackend::new()),
                Perturbation {
                    brownouts,
                    seed: p.seed ^ 0x5EED,
                    ..Perturbation::default()
                },
                Box::new(move || start.elapsed().as_nanos() as u64),
            )))
        });
    let shared = Arc::new(Shared {
        store: storm_store
            .or_else(|| cfg.store.clone())
            .unwrap_or_else(ObjectStore::shared),
        logs: (0..n_channels)
            .map(|_| Mutex::new(ChannelLog::new()))
            .collect(),
        dets: (0..n_instances)
            .map(|_| Mutex::new(DeterminantLog::new()))
            .collect(),
        pg,
    });

    // Wiring: one bounded data inbox + one control channel per worker;
    // one note channel back to the coordinator.
    let inboxes: Arc<Vec<Inbox>> = Arc::new(
        (0..cfg.parallelism)
            .map(|_| Inbox::new(cfg.inbox_capacity))
            .collect(),
    );
    let mut ctrl_tx = Vec::new();
    let mut ctrl_rx = Vec::new();
    for _ in 0..cfg.parallelism {
        let (tx, rx) = unbounded::<Ctrl>();
        ctrl_tx.push(tx);
        ctrl_rx.push(rx);
    }
    let (note_tx, note_rx) = unbounded::<Note>();
    let (up_tx, up_rx) = unbounded::<UploadMsg>();
    let quiet = Arc::new(AtomicU64::new(0));
    // Per-worker heartbeats (ns since run start of the last stamp):
    // live workers stamp every loop iteration; a killed one goes
    // silent, which is what the coordinator's failure detector watches.
    let hb: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.parallelism).map(|_| AtomicU64::new(0)).collect());
    let up_stats = Arc::new(UploaderStats::default());

    let uploader = {
        let store = Arc::clone(&shared.store);
        let note = note_tx.clone();
        let stats = Arc::clone(&up_stats);
        std::thread::spawn(move || uploader_main(store, up_rx, note, start, stats))
    };
    let mut handles = Vec::new();
    for w in 0..cfg.parallelism {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        let inboxes = Arc::clone(&inboxes);
        let crx = ctrl_rx[w as usize].clone();
        let note = note_tx.clone();
        let up = up_tx.clone();
        let streams = streams.clone();
        let quiet = Arc::clone(&quiet);
        let hb = Arc::clone(&hb);
        handles.push(std::thread::spawn(move || {
            worker_main(
                w, shared, cfg, streams, inboxes, crx, note, up, start, quiet, hb,
            )
        }));
    }

    let report = coordinate(
        &cfg, &shared, &ctrl_tx, &inboxes, &note_rx, &up_tx, &quiet, &hb, start, &up_stats,
    );
    for h in handles {
        h.join().expect("worker thread");
    }
    drop(up_tx); // last sender gone → uploader drains its queue and exits
    uploader.join().expect("uploader thread");
    report
}

/// Recovery-line-driven reclamation for the message-logging protocols
/// (paper §III-B: logs are "truncated once checkpoint retention
/// allows"). Nothing below the current line is ever read again — lines
/// are monotone over a growing set of durable checkpoints — so the
/// coordinator frees it as the line advances instead of at teardown.
/// Also the run's tally of what was freed.
#[derive(Default)]
struct Reclaimer {
    log_entries: u64,
    determinants: u64,
    ckpt_objects: u64,
    /// High-water of the entries retained across all channel logs,
    /// sampled as each reclamation begins.
    max_log_entries_retained: u64,
    /// Per instance: checkpoints below this index were already visited,
    /// so each object is deleted once.
    gc_low: BTreeMap<InstanceIdx, u64>,
}

impl Reclaimer {
    /// Free what `line` makes garbage: channel-log entries at or below
    /// each receiver's line watermark, determinants below each line
    /// member's position, and the whole-snapshot objects of checkpoints
    /// older than the line member. The `metas` themselves (and their
    /// `ckptmeta/` objects) stay: the checkpoint graph needs indices
    /// contiguous from 0, and a restart from the store recomputes the
    /// line from all of them. Chunked checkpoints stay too — chunks are
    /// shared between manifests, and that liveness rule lives in the
    /// engine's `gc_after`.
    fn reclaim(
        &mut self,
        shared: &Shared,
        triples: &[ChannelTriple],
        line: &BTreeMap<InstanceIdx, CheckpointId>,
        metas: &Metas,
    ) {
        let floors = reclaim_floors(line, metas, triples);
        let mut retained = 0;
        for (ch, seq) in &floors.channel_seq {
            // Moves the floor by arithmetic and frees the few segments
            // wholly below it.
            let mut log = shared.logs[ch.0 as usize].lock();
            let before = log.retained_len() as u64;
            log.truncate_below(seq + 1);
            retained += before;
            self.log_entries += before - log.retained_len() as u64;
        }
        self.max_log_entries_retained = self.max_log_entries_retained.max(retained);
        for (inst, pos) in &floors.det_pos {
            self.determinants += shared.dets[inst.0 as usize].lock().truncate_below(*pos) as u64;
        }
        for (&inst, &floor) in &floors.ckpt_index {
            let low = self.gc_low.entry(inst).or_insert(0);
            if floor <= *low {
                continue;
            }
            for (_, old) in metas.range((inst, *low)..(inst, floor)) {
                if !old.state_key.is_empty() && shared.store.delete(&old.state_key) {
                    self.ckpt_objects += 1;
                }
            }
            *low = floor;
        }
    }
}

#[allow(clippy::too_many_arguments)] // the run's full wiring
fn coordinate(
    cfg: &LiveConfig,
    shared: &Arc<Shared>,
    ctrl_tx: &[Sender<Ctrl>],
    inboxes: &Arc<Vec<Inbox>>,
    note_rx: &Receiver<Note>,
    up_tx: &Sender<UploadMsg>,
    quiet: &Arc<AtomicU64>,
    hb: &Arc<Vec<AtomicU64>>,
    start: Instant,
    up_stats: &Arc<UploaderStats>,
) -> LiveReport {
    let pg = &shared.pg;
    let triples = channel_triples(pg);
    let mut reclaimer = Reclaimer::default();
    let reclaims = cfg.protocol.logs_messages();
    let mut metas = Metas::new();
    for op in pg.logical().ops() {
        for i in 0..cfg.parallelism {
            let idx = InstanceIdx(op.id.0 * cfg.parallelism + i);
            let is_source = matches!(op.role, OpRole::Source { .. });
            metas.insert((idx, 0), CheckpointMeta::initial(idx, is_source));
        }
    }
    let mut round = 0u64;
    let mut next_round = start.elapsed() + cfg.checkpoint_interval;
    let mut checkpoints = 0u64;
    let mut recovered = false;
    let mut cur_epoch = 0u32;
    // The unified fault schedule: an explicit storm plan, or the legacy
    // single-kill knob expressed as a one-kill plan landing roughly
    // 40 % into the expected input window.
    let expected = cfg.expected_input_window();
    let plan = cfg.storm.clone().or_else(|| {
        cfg.kill_worker
            .map(|v| FaultPlan::single_kill(expected.mul_f64(0.4).as_nanos() as u64, v))
    });
    let mut plan_kills: VecDeque<KillEvent> = plan
        .map(|p| p.kills.into_iter().collect())
        .unwrap_or_default();
    // Workers killed but not yet recovered.
    let mut down: Vec<u32> = Vec::new();
    let mut recoveries = 0u64;
    let run_deadline = start + cfg.timeout;
    let all_quiet = (1u64 << cfg.parallelism) - 1;
    let mut quiet_since: Option<Instant> = None;

    // Run phase: wait for global quiescence (every worker idle with an
    // exhausted input for a grace window), handling kill/recovery in the
    // middle. The hard timeout stays as the safety net.
    loop {
        let mut metas_dirty = false;
        while let Ok(n) = note_rx.try_recv() {
            if let Note::Meta(epoch, m) = n {
                // A checkpoint captured before a recovery but durable
                // only after it lost the race: its index may already be
                // reused post-rollback. Drop the stale ack.
                if epoch != cur_epoch {
                    continue;
                }
                if m.id.index > 0 {
                    checkpoints += 1;
                }
                metas.insert((m.id.instance, m.id.index), m);
                metas_dirty = true;
            }
        }
        // The recovery line only moves when a checkpoint lands, so it is
        // computed then, once. Not throttled further: reclaiming an
        // interval late doubles the retained window.
        if metas_dirty && reclaims {
            let line = recovery_line(cfg.protocol, &metas, &triples).line;
            reclaimer.reclaim(shared, &triples, &line, &metas);
        }
        if cfg.protocol == ProtocolKind::Coordinated && start.elapsed() >= next_round {
            round += 1;
            for tx in ctrl_tx {
                let _ = tx.send(Ctrl::TriggerRound(round));
            }
            next_round = start.elapsed() + cfg.checkpoint_interval;
        }
        // Inject kills that have come due. The coordinator does not act
        // on the injection itself — failure *detection* below goes by
        // heartbeat silence, paying a realistic detection delay.
        inject_due(ctrl_tx, start, &mut plan_kills, &mut down);
        // Failure detection: a worker is declared failed once its
        // heartbeat has been silent past the timeout. One recovery
        // episode covers every down worker; kills landing *during* the
        // recovery restart its line computation (see `recover`).
        if !down.is_empty() {
            let now = start.elapsed().as_nanos() as u64;
            let detected = down.iter().any(|&v| {
                now.saturating_sub(hb[v as usize].load(Ordering::Relaxed)) > DETECT_SILENCE_NS
            });
            if detected {
                cur_epoch = recover(
                    cfg,
                    shared,
                    &triples,
                    ctrl_tx,
                    inboxes,
                    note_rx,
                    up_tx,
                    &mut metas,
                    cur_epoch,
                    start,
                    &mut plan_kills,
                    &mut down,
                );
                recoveries += 1;
                recovered = true;
                quiet_since = None;
            }
        }
        // Quiescence: all workers idle, nothing in any inbox, and every
        // scheduled failure already played out and recovered.
        let quiesced = quiet.load(Ordering::Relaxed) == all_quiet
            && inboxes.iter().all(|ib| ib.is_empty())
            && plan_kills.is_empty()
            && down.is_empty();
        if quiesced {
            let since = *quiet_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= Duration::from_millis(50) {
                break;
            }
        } else {
            quiet_since = None;
        }
        if Instant::now() >= run_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    for tx in ctrl_tx {
        let _ = tx.send(Ctrl::Stop);
    }
    let mut digest = Digest::default();
    let mut sink_records = 0u64;
    let mut events = 0u64;
    let mut determinants = 0u64;
    let mut replayed = 0u64;
    let mut staged_appends = 0u64;
    let mut log_flushes = 0u64;
    let mut max_out_pending = 0usize;
    let mut latencies = Vec::new();
    let mut done = 0;
    while done < cfg.parallelism {
        match note_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Note::Done(_, end)) => {
                done += 1;
                digest.count = digest.count.wrapping_add(end.digest.count);
                digest.acc = digest.acc.wrapping_add(end.digest.acc);
                sink_records += end.sink_records;
                events += end.events;
                determinants += end.determinants;
                replayed += end.replayed;
                staged_appends += end.staged_appends;
                log_flushes += end.log_flushes;
                max_out_pending = max_out_pending.max(end.max_out_pending);
                latencies.extend(end.latencies);
            }
            Ok(Note::Meta(epoch, m)) => {
                // Late uploads racing Stop still count: they are durable
                // checkpoints of the current epoch.
                if epoch == cur_epoch && m.id.index > 0 {
                    checkpoints += 1;
                }
            }
            Ok(_) => {}
            Err(_) => panic!("worker did not stop in time"),
        }
    }
    let p50 = if latencies.is_empty() {
        Duration::default()
    } else {
        let mid = latencies.len() / 2;
        *latencies.select_nth_unstable(mid).1
    };
    let elapsed = start.elapsed();
    LiveReport {
        sink_digest: digest,
        sink_records,
        checkpoints,
        recovered,
        p50_latency: p50,
        elapsed,
        events,
        throughput: events as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        max_inbox_depth: inboxes.iter().map(|ib| ib.high_water()).max().unwrap_or(0),
        max_out_pending,
        determinants,
        replayed,
        staged_appends,
        log_flushes,
        recoveries,
        log_entries_reclaimed: reclaimer.log_entries,
        determinants_reclaimed: reclaimer.determinants,
        ckpt_objects_reclaimed: reclaimer.ckpt_objects,
        max_log_entries_retained: reclaimer.max_log_entries_retained,
        ckpts_deferred: up_stats.ckpts_deferred.load(Ordering::Relaxed),
        store: shared.store.stats(),
    }
}

/// Send `Ctrl::Kill` for every scheduled kill due by now, recording the
/// victims as down (idempotently). Returns how many were injected.
fn inject_due(
    ctrl_tx: &[Sender<Ctrl>],
    start: Instant,
    plan_kills: &mut VecDeque<KillEvent>,
    down: &mut Vec<u32>,
) -> usize {
    let now = start.elapsed().as_nanos() as u64;
    let mut n = 0;
    while plan_kills.front().is_some_and(|k| k.at_ns <= now) {
        let k = plan_kills.pop_front().expect("nonempty");
        let _ = ctrl_tx[k.worker as usize].send(Ctrl::Kill);
        if !down.contains(&k.worker) {
            down.push(k.worker);
        }
        n += 1;
    }
    n
}

/// Pause, compute the recovery line, restore, replay, resume — and
/// *restart cleanly* when another scheduled kill lands mid-recovery: a
/// kill arriving while workers restore wipes its victim's freshly
/// restored state, so the pause → flush → line → restore sequence runs
/// again from the top (per-worker control FIFO orders the queued Kill
/// before the next pass's Restore). Returns the post-recovery epoch;
/// every down worker has been restored and resumed on return.
#[allow(clippy::too_many_arguments)] // the coordinator's full wiring
fn recover(
    cfg: &LiveConfig,
    shared: &Arc<Shared>,
    triples: &[ChannelTriple],
    ctrl_tx: &[Sender<Ctrl>],
    inboxes: &Arc<Vec<Inbox>>,
    note_rx: &Receiver<Note>,
    up_tx: &Sender<UploadMsg>,
    metas: &mut Metas,
    cur_epoch: u32,
    start: Instant,
    plan_kills: &mut VecDeque<KillEvent>,
    down: &mut Vec<u32>,
) -> u32 {
    let pg = &shared.pg;
    let line = loop {
        // Pause everyone and wait for acks (idempotent: on a restarted
        // pass already-paused workers simply ack again). Uploads already
        // handed to the uploader keep draining meanwhile; their acks
        // still count (they are durable checkpoints of the current
        // epoch).
        for tx in ctrl_tx {
            let _ = tx.send(Ctrl::Pause);
        }
        let mut paused = 0;
        while paused < cfg.parallelism {
            match note_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Note::Paused(_)) => paused += 1,
                Ok(Note::Meta(epoch, m)) => {
                    if epoch == cur_epoch {
                        metas.insert((m.id.instance, m.id.index), m);
                    }
                }
                Ok(_) => {}
                Err(_) => panic!("pause ack timeout"),
            }
        }
        // Quiesce the upload pipeline: workers are paused (no new jobs),
        // so after this barrier nothing is in flight. Checkpoints that
        // were mid-upload at the failure are now durable — fold their
        // acks in before computing the line; they are legitimate restore
        // points.
        {
            let (ack_tx, ack_rx) = unbounded::<()>();
            let _ = up_tx.send(UploadMsg::Flush(ack_tx));
            let _ = ack_rx.recv_timeout(Duration::from_secs(10));
            while let Ok(n) = note_rx.try_recv() {
                if let Note::Meta(epoch, m) = n {
                    if epoch == cur_epoch {
                        metas.insert((m.id.instance, m.id.index), m);
                    }
                }
            }
        }

        // Kills due by now land before the line computation: each
        // victim's Kill precedes the Restore below in its control
        // queue, so this pass recovers them too.
        inject_due(ctrl_tx, start, plan_kills, down);

        // Recovery line.
        let line = recovery_line(cfg.protocol, metas, triples).line;
        // Discard post-line metadata and the durable objects it owns.
        let durable = DurableCheckpoints::new(Arc::clone(&shared.store));
        for m in discard_after_line(metas, &line) {
            durable.delete_checkpoint(&m);
        }
        // Restore every worker. Workers arm their determinant-ordered
        // replay themselves from the shared logs (`meta.det_pos()`
        // onward).
        for w in 0..cfg.parallelism {
            let mut per_op = BTreeMap::new();
            for op in pg.logical().ops() {
                let idx = InstanceIdx(op.id.0 * cfg.parallelism + w);
                let id = line[&idx];
                per_op.insert(op.id, metas[&(idx, id.index)].clone());
            }
            let _ = ctrl_tx[w as usize].send(Ctrl::Restore(per_op));
        }
        let mut restored = 0;
        while restored < cfg.parallelism {
            match note_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Note::Restored(_)) => restored += 1,
                Ok(Note::Meta(..)) => {}
                Ok(_) => {}
                Err(_) => panic!("restore ack timeout"),
            }
        }

        // A kill that came due while we restored invalidated this pass —
        // its victim's restored state is gone again. Go around: the line
        // is recomputed and everyone restores against it cleanly.
        if inject_due(ctrl_tx, start, plan_kills, down) == 0 {
            break line;
        }
    };
    down.clear();

    // Replay logged in-flight messages with the fresh epoch, then resume.
    // Inboxes dequeue in push order and workers are still paused while we
    // push, so every replay precedes any regenerated message on the same
    // channel — the receivers' in-order dedup relies on that. Pushes are
    // forced: nobody is draining yet, a bounded push would wedge here.
    let new_epoch =
        (metas.values().map(|m| m.id.index as u32).max().unwrap_or(0) + 1).max(cur_epoch + 1);
    if cfg.protocol.logs_messages() {
        for c in triples {
            let (lo, hi) = replay_range(&line, metas, c);
            if hi <= lo {
                continue;
            }
            // The coordinator replays from the durable logs directly into
            // the receiver's inbox (acting as the log service), as one
            // batch per channel. Replayed messages carry a neutral
            // piggyback (one shared allocation): old news never forces.
            let piggyback = match cfg.protocol {
                ProtocolKind::CommunicationInduced => {
                    Some(CicPiggyback::Hmnr(std::sync::Arc::new(HmnrPiggyback {
                        lc: 0,
                        ckpt: vec![0; pg.n_instances()],
                        taken: vec![false; pg.n_instances()],
                        greater: vec![false; pg.n_instances()],
                    })))
                }
                ProtocolKind::CommunicationInducedBcs => Some(CicPiggyback::Bcs { lc: 0 }),
                _ => None,
            };
            let items: Vec<(Record, Option<CicPiggyback>)> = shared.logs[c.ch.0 as usize]
                .lock()
                .range(lo, hi)
                .expect("live runtime always materializes its channel logs")
                .into_iter()
                .map(|e| (e.record, piggyback.clone()))
                .collect();
            let dest_worker = (c.to.0 % cfg.parallelism) as usize;
            inboxes[dest_worker].force_push(Wire::DataBatch {
                epoch: new_epoch,
                channel: c.ch,
                start_seq: lo + 1,
                items,
                replayed: true,
            });
        }
    }
    for tx in ctrl_tx {
        let _ = tx.send(Ctrl::Resume(new_epoch));
    }
    new_epoch
}
