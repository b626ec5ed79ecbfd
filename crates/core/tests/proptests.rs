//! Property tests for the protocol/recovery machinery.
//!
//! Random abstract executions (sends, FIFO deliveries, checkpoints) are
//! run under each protocol; the recovery-line algorithm operating on the
//! *watermark/checkpoint-graph* view is validated against the *trace/
//! Z-path* ground truth. This is the core scientific claim of the
//! reproduction: the machinery the engine uses at failure time always
//! produces a consistent, maximal recovery line.

use checkmate_core::exec::{AbstractExec, AbstractProtocol};
use checkmate_core::recovery::{
    discard_after_line, reclaim_floors, recovery_line, rollback_propagation, Metas, ReclaimFloors,
};
use checkmate_core::zpath;
use checkmate_core::{
    CheckpointGraph, CheckpointMeta, CicPiggyback, CicState, HmnrPiggyback, ProtocolKind,
};
use checkmate_dataflow::graph::InstanceIdx;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One step of a random execution.
#[derive(Debug, Clone, Copy)]
enum Op {
    Send { from: u8, to: u8 },
    Deliver { from: u8, to: u8 },
    Checkpoint { p: u8 },
}

fn op_strategy(n: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..n, 0..n).prop_map(|(a, b)| Op::Send { from: a, to: b }),
        3 => (0..n, 0..n).prop_map(|(a, b)| Op::Deliver { from: a, to: b }),
        1 => (0..n).prop_map(|p| Op::Checkpoint { p }),
    ]
}

fn apply(e: &mut AbstractExec, op: Op) {
    let n = e.n();
    match op {
        Op::Send { from, to } => {
            let (f, t) = (from as usize % n, to as usize % n);
            if f != t {
                e.send(f, t);
            }
        }
        Op::Deliver { from, to } => {
            let (f, t) = (from as usize % n, to as usize % n);
            if f != t {
                e.deliver(f, t);
            }
        }
        Op::Checkpoint { p } => e.checkpoint(p as usize % n),
    }
}

fn run(n: usize, ops: &[Op], protocol: AbstractProtocol) -> AbstractExec {
    let mut e = AbstractExec::new(n, protocol);
    for &op in ops {
        apply(&mut e, op);
    }
    e
}

fn line_vec(e: &AbstractExec) -> Vec<u64> {
    let out = rollback_propagation(&e.graph());
    (0..e.n())
        .map(|p| out.line[&InstanceIdx(p as u32)].index)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The recovery line found on the checkpoint graph is consistent in
    /// the ground-truth trace semantics (no orphan messages), for every
    /// protocol.
    #[test]
    fn recovery_line_is_consistent(
        ops in proptest::collection::vec(op_strategy(4), 0..120),
        proto in prop_oneof![
            Just(AbstractProtocol::Uncoordinated),
            Just(AbstractProtocol::CicHmnr),
            Just(AbstractProtocol::CicBcs),
        ],
    ) {
        let e = run(4, &ops, proto);
        let line = line_vec(&e);
        prop_assert!(
            zpath::is_consistent(e.trace(), &line),
            "line {line:?} has orphans: {:?}",
            zpath::orphans(e.trace(), &line)
        );
    }

    /// Maximality (paper's "most recent recovery line"): on small cases,
    /// the returned line componentwise-dominates every consistent line.
    #[test]
    fn recovery_line_is_maximal(
        ops in proptest::collection::vec(op_strategy(3), 0..60),
    ) {
        let e = run(3, &ops, AbstractProtocol::Uncoordinated);
        let line = line_vec(&e);
        let counts = e.counts();
        // Enumerate all candidate lines (counts are small by construction).
        let mut cand = vec![0u64; 3];
        let mut exhausted = false;
        while !exhausted {
            if zpath::is_consistent(e.trace(), &cand) {
                for p in 0..3 {
                    prop_assert!(
                        line[p] >= cand[p],
                        "algorithm line {line:?} dominated by {cand:?}"
                    );
                }
            }
            // odometer increment
            let mut k = 0;
            loop {
                if k == 3 {
                    exhausted = true;
                    break;
                }
                cand[k] += 1;
                if cand[k] <= counts[k] {
                    break;
                }
                cand[k] = 0;
                k += 1;
            }
        }
    }

    /// A checkpoint the rollback propagation keeps in the line is, by the
    /// Netzer–Xu theorem, never on a Z-cycle.
    #[test]
    fn line_members_are_never_useless(
        ops in proptest::collection::vec(op_strategy(4), 0..120),
    ) {
        let e = run(4, &ops, AbstractProtocol::Uncoordinated);
        let line = line_vec(&e);
        for (p, &idx) in line.iter().enumerate() {
            prop_assert!(
                !zpath::on_z_cycle(e.trace(), (p, idx)),
                "line member ({p},{idx}) is on a Z-cycle"
            );
        }
    }

    /// Both CIC variants prevent useless checkpoints on random executions
    /// (their purpose: no checkpoint ends up on a Z-cycle). This is the
    /// "no domino effect" guarantee the paper leans on.
    #[test]
    fn cic_prevents_useless_checkpoints(
        ops in proptest::collection::vec(op_strategy(4), 0..150),
        proto in prop_oneof![
            Just(AbstractProtocol::CicHmnr),
            Just(AbstractProtocol::CicBcs),
        ],
    ) {
        let e = run(4, &ops, proto);
        let useless = zpath::useless_checkpoints(e.trace(), e.counts());
        prop_assert!(
            useless.is_empty(),
            "useless checkpoints under {proto:?}: {useless:?} (forced={})",
            e.forced_count()
        );
    }

    /// The uncoordinated protocol *can* produce useless checkpoints, and
    /// when it does, rollback propagation still terminates with a
    /// consistent line that excludes them.
    #[test]
    fn unc_useless_checkpoints_are_rolled_past(
        ops in proptest::collection::vec(op_strategy(3), 0..100),
    ) {
        let e = run(3, &ops, AbstractProtocol::Uncoordinated);
        let useless = zpath::useless_checkpoints(e.trace(), e.counts());
        let line = line_vec(&e);
        for (p, idx) in useless {
            prop_assert!(
                line[p] != idx,
                "useless checkpoint ({p},{idx}) appears in the line {line:?}"
            );
        }
    }

    /// GC safety: the engine reclaims a checkpoint only when it is both
    /// outside the retention window and strictly older than the current
    /// recovery line (`Engine::gc_after`). This property is what makes
    /// that sound: recovery lines are monotone — a line member remains
    /// pairwise-consistent with every other member forever, and rollback
    /// propagation returns the maximal consistent line — so the line
    /// computed at *any* later failure point never needs a checkpoint the
    /// policy already reclaimed. The test replays the engine's GC
    /// decisions over random executions and checks every subsequent
    /// step's line against the reclaimed floor (every step is a possible
    /// failure point).
    #[test]
    fn gc_never_deletes_checkpoints_a_later_line_needs(
        ops in proptest::collection::vec(op_strategy(3), 0..150),
        retention in 1u64..4,
        proto in prop_oneof![
            Just(AbstractProtocol::Uncoordinated),
            Just(AbstractProtocol::CicHmnr),
        ],
    ) {
        let mut e = AbstractExec::new(3, proto);
        // Per instance: lowest checkpoint index NOT reclaimed yet.
        let mut gc_floor = [0u64; 3];
        for op in ops {
            let ckpt_step = matches!(op, Op::Checkpoint { .. });
            match op {
                Op::Send { from, to } => {
                    let (f, t) = (from as usize % 3, to as usize % 3);
                    if f != t {
                        e.send(f, t);
                    }
                }
                Op::Deliver { from, to } => {
                    let (f, t) = (from as usize % 3, to as usize % 3);
                    if f != t {
                        e.deliver(f, t);
                    }
                }
                Op::Checkpoint { p } => e.checkpoint(p as usize % 3),
            }
            let line = line_vec(&e);
            // Every step is a potential failure point: the line must
            // never reach below what GC already reclaimed.
            for p in 0..3 {
                prop_assert!(
                    line[p] >= gc_floor[p],
                    "line {line:?} needs instance {p} index {} but GC reclaimed below {}",
                    line[p],
                    gc_floor[p]
                );
            }
            // After a checkpoint, run the engine's GC policy: reclaim
            // up to min(retention window, current line).
            if ckpt_step {
                for p in 0..3 {
                    let latest = e.counts()[p];
                    if latest > retention {
                        let floor = (latest - retention).min(line[p]);
                        gc_floor[p] = gc_floor[p].max(floor);
                    }
                }
            }
        }
    }

    /// Reclamation safety for the live coordinator, which truncates the
    /// channel and determinant logs below [`reclaim_floors`] of the
    /// current line every time a checkpoint becomes durable. Over a
    /// growing set of checkpoints the floors never decrease, and what
    /// the line of any superset makes recovery read — per channel the
    /// replay range `(recv_wm, sent_wm]` of its members, per instance
    /// the determinant suffix from its member's `det_pos()` — lies at or
    /// above the floors of the subset. Each step is checked against the
    /// step before it; every step's set contains all earlier ones, so
    /// the floors being monotone carries the bound to every pair.
    #[test]
    fn reclaim_floors_only_rise_and_stay_below_what_later_lines_read(
        ops in proptest::collection::vec(op_strategy(3), 0..150),
        proto in prop_oneof![
            Just(AbstractProtocol::Uncoordinated),
            Just(AbstractProtocol::CicHmnr),
        ],
    ) {
        let mut e = AbstractExec::new(3, proto);
        let channels = e.channel_triples();
        let mut prev = ReclaimFloors::default();
        for op in ops {
            apply(&mut e, op);
            let metas: BTreeMap<(InstanceIdx, u64), CheckpointMeta> = e
                .metas()
                .iter()
                .map(|m| ((m.id.instance, m.id.index), m.clone()))
                .collect();
            let line = rollback_propagation(&e.graph()).line;
            let member = |inst: InstanceIdx| &metas[&(inst, line[&inst].index)];
            for c in &channels {
                let (lo, hi) = (member(c.to).received_on(c.ch), member(c.from).sent_on(c.ch));
                prop_assert!(lo <= hi, "orphans on {:?}: replay range ({lo}, {hi}]", c.ch);
                let floor = prev.channel_seq.get(&c.ch).copied().unwrap_or(0);
                prop_assert!(
                    lo >= floor,
                    "replay range ({lo}, {hi}] on {:?} reaches below the reclaimed seq {floor}",
                    c.ch
                );
            }
            for &inst in line.keys() {
                let floor = prev.det_pos.get(&inst).copied().unwrap_or(0);
                prop_assert!(
                    member(inst).det_pos() >= floor,
                    "{inst:?} replays determinants from {} but they are reclaimed below {floor}",
                    member(inst).det_pos()
                );
            }
            let floors = reclaim_floors(&line, &metas, &channels);
            for (ch, seq) in &prev.channel_seq {
                prop_assert!(floors.channel_seq[ch] >= *seq, "log floor of {ch:?} fell");
            }
            for (inst, pos) in &prev.det_pos {
                prop_assert!(floors.det_pos[inst] >= *pos, "determinant floor of {inst:?} fell");
            }
            for (inst, index) in &prev.ckpt_index {
                prop_assert!(floors.ckpt_index[inst] >= *index, "checkpoint floor of {inst:?} fell");
            }
            prev = floors;
        }
    }

    /// The one recovery-line rule both planes call, over metadata with
    /// deferral holes (a non-initial checkpoint that never became
    /// durable, as the live uploader leaves mid-brownout): the line is
    /// rollback propagation over each instance's dense prefix and is
    /// orphan-free in the trace; `discard_after_line` leaves nothing
    /// above it; and recomputing over the remainder returns the same
    /// line — the live `recover` loop's second pass after a
    /// mid-recovery kill relies on that.
    #[test]
    fn recovery_line_over_deferral_holes_is_the_dense_prefix_line_and_idempotent(
        ops in proptest::collection::vec(op_strategy(4), 0..120),
        proto in prop_oneof![
            Just(AbstractProtocol::Uncoordinated),
            Just(AbstractProtocol::CicHmnr),
            Just(AbstractProtocol::CicBcs),
        ],
        deferred in proptest::collection::vec(0u8..4, 0..64),
    ) {
        let e = run(4, &ops, proto);
        let kind = match proto {
            AbstractProtocol::Uncoordinated => ProtocolKind::Uncoordinated,
            AbstractProtocol::CicHmnr => ProtocolKind::CommunicationInduced,
            AbstractProtocol::CicBcs => ProtocolKind::CommunicationInducedBcs,
        };
        let channels = e.channel_triples();
        // Defer roughly a quarter of the non-initial checkpoints.
        let metas: Metas = e
            .metas()
            .iter()
            .enumerate()
            .filter(|(k, m)| m.id.index == 0 || deferred.get(*k) != Some(&0))
            .map(|(_, m)| ((m.id.instance, m.id.index), m.clone()))
            .collect();
        let dense: Vec<CheckpointMeta> = metas
            .values()
            .filter(|m| (0..m.id.index).all(|i| metas.contains_key(&(m.id.instance, i))))
            .cloned()
            .collect();
        let out = recovery_line(kind, &metas, &channels);
        prop_assert_eq!(&out, &rollback_propagation(&CheckpointGraph::build(dense, &channels)));
        let line: Vec<u64> = (0..4u32).map(|p| out.line[&InstanceIdx(p)].index).collect();
        prop_assert!(
            zpath::is_consistent(e.trace(), &line),
            "line {line:?} has orphans: {:?}",
            zpath::orphans(e.trace(), &line)
        );

        let mut rest = metas.clone();
        let discarded = discard_after_line(&mut rest, &out.line);
        prop_assert_eq!(discarded.len() + rest.len(), metas.len());
        for (inst, idx) in rest.keys() {
            prop_assert!(*idx <= out.line[inst].index, "{inst:?}/{idx} survived above the line");
        }
        prop_assert_eq!(recovery_line(kind, &rest, &channels).line, out.line);
    }

    /// Abstract executions are deterministic: same ops → same trace,
    /// same checkpoint metadata, same recovery line.
    #[test]
    fn abstract_execution_is_deterministic(
        ops in proptest::collection::vec(op_strategy(4), 0..100),
    ) {
        let a = run(4, &ops, AbstractProtocol::CicHmnr);
        let b = run(4, &ops, AbstractProtocol::CicHmnr);
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert_eq!(a.metas(), b.metas());
        prop_assert_eq!(a.forced_count(), b.forced_count());
        prop_assert_eq!(line_vec(&a), line_vec(&b));
    }

    /// HMNR keeps its cached piggyback across deliveries that carry no
    /// news. Whatever the script, the piggyback `on_send` hands out
    /// equals a snapshot built from the live fields at that moment.
    #[test]
    fn hmnr_cached_piggyback_equals_a_fresh_snapshot(
        ops in proptest::collection::vec(op_strategy(4), 1..200)
    ) {
        let n = 4usize;
        let mut states: Vec<CicState> = (0..n).map(|i| CicState::hmnr(i, n)).collect();
        let mut in_flight: BTreeMap<(usize, usize), VecDeque<CicPiggyback>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Send { from, to } => {
                    let (f, t) = (from as usize % n, to as usize % n);
                    let pb = states[f].on_send(t);
                    let CicState::Hmnr(s) = &states[f] else { unreachable!() };
                    let fresh = HmnrPiggyback {
                        lc: s.lc,
                        ckpt: s.ckpt.clone(),
                        taken: s.taken.clone(),
                        greater: s.greater.clone(),
                    };
                    prop_assert_eq!(&pb, &CicPiggyback::Hmnr(Arc::new(fresh)));
                    in_flight.entry((f, t)).or_default().push_back(pb);
                }
                Op::Deliver { from, to } => {
                    let (f, t) = (from as usize % n, to as usize % n);
                    if let Some(pb) = in_flight.get_mut(&(f, t)).and_then(VecDeque::pop_front) {
                        if states[t].should_force(f, &pb) {
                            states[t].on_checkpoint();
                        }
                        states[t].on_deliver(f, &pb);
                    }
                }
                Op::Checkpoint { p } => states[p as usize % n].on_checkpoint(),
            }
        }
    }

}

/// HMNR's richer vectors exist to avoid BCS's spurious forced checkpoints.
/// Pointwise comparison on one execution is not a theorem (a forced
/// checkpoint changes all later clock dynamics), but in aggregate over many
/// random executions HMNR must force noticeably less. This mirrors the
/// paper's remark that "initial tests indicate that HMNR has better
/// performance than BCS" (§III-C).
#[test]
fn hmnr_forces_fewer_checkpoints_than_bcs_in_aggregate() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut rng = SmallRng::seed_from_u64(0xC1C);
    let ops_for = |n: u8, len: usize, rng: &mut SmallRng| {
        (0..len)
            .map(|_| match rng.gen_range(0..7u8) {
                0..=2 => Op::Send {
                    from: rng.gen_range(0..n),
                    to: rng.gen_range(0..n),
                },
                3..=5 => Op::Deliver {
                    from: rng.gen_range(0..n),
                    to: rng.gen_range(0..n),
                },
                _ => Op::Checkpoint {
                    p: rng.gen_range(0..n),
                },
            })
            .collect::<Vec<_>>()
    };
    let (mut hmnr_total, mut bcs_total) = (0u64, 0u64);
    for _ in 0..300 {
        let ops = ops_for(5, 150, &mut rng);
        hmnr_total += run(5, &ops, AbstractProtocol::CicHmnr).forced_count();
        bcs_total += run(5, &ops, AbstractProtocol::CicBcs).forced_count();
    }
    assert!(
        hmnr_total < bcs_total,
        "expected HMNR to force fewer checkpoints in aggregate: HMNR={hmnr_total}, BCS={bcs_total}"
    );
}
