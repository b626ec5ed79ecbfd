//! Recovery-line computation — the one home of the recovery-line rule
//! for both execution planes (the virtual-time engine and the live
//! runtime call these and keep no copy of their own).
//!
//! - [`recovery_line`] — the line a failure right now rolls back to,
//!   per protocol family, over the durable [`Metas`];
//! - [`rollback_propagation`] — the paper's Algorithm 1 over the
//!   checkpoint graph, used by the uncoordinated and communication-induced
//!   protocols;
//! - [`coordinated_line`] — the trivial recovery line of the coordinated
//!   protocol: the latest round completed by every instance;
//! - [`replay_range`], [`discard_after_line`] — what a line replays
//!   from the channel logs and invalidates;
//! - [`reclaim_floors`] — what a recovery line makes garbage: the
//!   channel-log entries, determinants and checkpoints below it.

use crate::ckpt_graph::{ChannelTriple, CheckpointGraph};
use crate::meta::{CheckpointId, CheckpointMeta};
use crate::protocol::ProtocolKind;
use checkmate_dataflow::graph::{ChannelIdx, InstanceIdx, PhysicalGraph};
use std::collections::{BTreeMap, BTreeSet};

/// Durable checkpoint metadata keyed by `(instance, index)` — the map
/// both planes' coordinators keep.
pub type Metas = BTreeMap<(InstanceIdx, u64), CheckpointMeta>;

/// A recovery line: one checkpoint per instance.
type Line = BTreeMap<InstanceIdx, CheckpointId>;

/// The physical channels' endpoints, in the form the checkpoint graph,
/// [`replay_range`] and [`reclaim_floors`] take them.
pub fn channel_triples(pg: &PhysicalGraph) -> Vec<ChannelTriple> {
    pg.channels()
        .iter()
        .map(|c| ChannelTriple {
            ch: c.idx,
            from: c.from,
            to: c.to,
        })
        .collect()
}

/// The recovery line a failure right now rolls back to — the rule
/// behind restore, pinning and reclamation alike, so eviction protects
/// and reclamation spares exactly what a recovery would read.
///
/// - COOR / NONE: [`coordinated_line`] over the round checkpoints; the
///   outcome rolls past nothing.
/// - UNC / CIC: [`rollback_propagation`] over each instance's *dense
///   prefix*. A checkpoint the live uploader deferred (bounded retries
///   exhausted mid-brownout) is never acked durable, so an index
///   sequence may have holes; the checkpoint graph needs per-instance
///   contiguity from 0. Recovery discards post-line metadata
///   ([`discard_after_line`]) and instances re-mint indices from the
///   line, so holes never accumulate across episodes.
pub fn recovery_line(
    protocol: ProtocolKind,
    metas: &Metas,
    channels: &[ChannelTriple],
) -> RecoveryOutcome {
    if !protocol.independent_checkpoints() {
        let rounds: Vec<CheckpointMeta> = metas
            .values()
            .filter(|m| m.kind.round().is_some())
            .cloned()
            .collect();
        return RecoveryOutcome {
            line: coordinated_line(&rounds),
            rolled_past: Vec::new(),
            iterations: 1,
        };
    }
    let mut next: BTreeMap<InstanceIdx, u64> = BTreeMap::new();
    let dense: Vec<CheckpointMeta> = metas
        .iter()
        .filter(|((inst, idx), _)| {
            let e = next.entry(*inst).or_insert(0);
            if *idx != *e {
                return false;
            }
            *e += 1;
            true
        })
        .map(|(_, m)| m.clone())
        .collect();
    rollback_propagation(&CheckpointGraph::build(dense, channels))
}

/// The in-flight range `(lo, hi]` recovery to `line` replays on channel
/// `c`: what the receiver's member had not yet received of what the
/// sender's member had sent. Empty (`hi ≤ lo`) when nothing is in
/// flight.
pub fn replay_range(line: &Line, metas: &Metas, c: &ChannelTriple) -> (u64, u64) {
    (
        member(line, metas, c.to).received_on(c.ch),
        member(line, metas, c.from).sent_on(c.ch),
    )
}

/// Remove the metadata recovery to `line` invalidates — every checkpoint
/// newer than its instance's member, and any of an instance the line
/// does not cover — and return it, in key order, so the caller can
/// delete the durable objects (the indices are re-minted after the
/// rollback; stale objects must not linger under the same keys).
pub fn discard_after_line(metas: &mut Metas, line: &Line) -> Vec<CheckpointMeta> {
    let (kept, discarded): (Metas, Metas) = std::mem::take(metas)
        .into_iter()
        .partition(|((inst, idx), _)| line.get(inst).is_some_and(|l| *idx <= l.index));
    *metas = kept;
    discarded.into_values().collect()
}

fn member<'a>(line: &Line, metas: &'a Metas, inst: InstanceIdx) -> &'a CheckpointMeta {
    &metas[&(inst, line[&inst].index)]
}

/// The outcome of a recovery-line search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// One checkpoint per instance forming a consistent global state.
    pub line: BTreeMap<InstanceIdx, CheckpointId>,
    /// Checkpoints newer than the line that the search rolled past. These
    /// are the "invalid checkpoints" reported in the paper's Table III:
    /// durable state that cannot be used for this recovery.
    pub rolled_past: Vec<CheckpointId>,
    /// Number of marking iterations the algorithm needed (≥ 1).
    pub iterations: usize,
}

impl RecoveryOutcome {
    pub fn invalid_count(&self) -> usize {
        self.rolled_past.len()
    }
}

/// The rollback propagation algorithm (paper Algorithm 1, after Wang et
/// al. 1995).
///
/// Starting from the root set (each instance's latest checkpoint), mark
/// every root-set member strictly reachable — through any path in the
/// checkpoint graph — from another root-set member; replace marked members
/// with their predecessor checkpoints; repeat until no member is marked.
/// The returned root set is the most recent consistent recovery line.
///
/// Termination: initial checkpoints (index 0) have no incoming edges
/// (their receive watermarks are all zero and they are first in their
/// consecutive chains), so they are never marked.
pub fn rollback_propagation(graph: &CheckpointGraph) -> RecoveryOutcome {
    let mut root: BTreeMap<InstanceIdx, CheckpointId> =
        graph.instances().map(|i| (i, graph.latest(i))).collect();
    let mut rolled_past: Vec<CheckpointId> = Vec::new();
    let mut iterations = 0;

    loop {
        iterations += 1;
        // Union of reachable sets from all root members.
        let mut reachable: BTreeSet<CheckpointId> = BTreeSet::new();
        for &cp in root.values() {
            reachable.extend(graph.reachable_from(cp));
        }
        // A member is marked if some *other* member reaches it (or a cycle
        // reaches it back — `reachable_from` is strict, so a self-loop
        // through the graph also marks).
        let marked: Vec<InstanceIdx> = root
            .iter()
            .filter(|(_, cp)| reachable.contains(cp))
            .map(|(inst, _)| *inst)
            .collect();
        if marked.is_empty() {
            debug_assert!(graph.line_is_consistent(&root));
            return RecoveryOutcome {
                line: root,
                rolled_past,
                iterations,
            };
        }
        for inst in marked {
            let cur = root[&inst];
            let prev = graph
                .prev(cur)
                .expect("initial checkpoints are unreachable and never marked");
            rolled_past.push(cur);
            root.insert(inst, prev);
        }
    }
}

/// The coordinated protocol's recovery line: checkpoints of the most
/// recent round completed (made durable) by *every* instance. Metas must
/// contain, for each instance, its coordinated checkpoints (kind
/// `Initial` counts as round 0).
pub fn coordinated_line(metas: &[CheckpointMeta]) -> BTreeMap<InstanceIdx, CheckpointId> {
    // Per instance: the set of completed rounds.
    let mut per_inst: BTreeMap<InstanceIdx, BTreeMap<u64, CheckpointId>> = BTreeMap::new();
    for m in metas {
        let round = m
            .kind
            .round()
            .expect("coordinated_line expects coordinated/initial checkpoints only");
        per_inst
            .entry(m.id.instance)
            .or_default()
            .insert(round, m.id);
    }
    // Highest round present for all instances.
    let mut common: Option<BTreeSet<u64>> = None;
    for rounds in per_inst.values() {
        let set: BTreeSet<u64> = rounds.keys().copied().collect();
        common = Some(match common {
            None => set,
            Some(c) => c.intersection(&set).copied().collect(),
        });
    }
    let round = common
        .and_then(|c| c.last().copied())
        .expect("round 0 (initial checkpoints) is always complete");
    per_inst
        .into_iter()
        .map(|(inst, rounds)| (inst, rounds[&round]))
        .collect()
}

/// Everything at or below these marks is unreachable by the recovery
/// line they were computed from — and, lines being monotone (a superset
/// of durable checkpoints never yields an earlier line), by every later
/// line too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReclaimFloors {
    /// Per channel `a → b`: the receive watermark of `b`'s line member.
    /// Replay reads `(this, sent_wm_a(line)]`, so log entries with
    /// `seq ≤ this` are garbage.
    pub channel_seq: BTreeMap<ChannelIdx, u64>,
    /// Per instance: its line member's determinant-log position.
    /// Determinants below it are garbage.
    pub det_pos: BTreeMap<InstanceIdx, u64>,
    /// Per instance: its line member's index. Checkpoints with a lower
    /// index are garbage.
    pub ckpt_index: BTreeMap<InstanceIdx, u64>,
}

/// What the recovery line `line` over `metas` lets a log-based protocol
/// reclaim (checkpoint space reclamation, Wang et al. 1995). Pure: the
/// caller owns the logs and the store, and decides which checkpoint
/// objects below `ckpt_index` it can actually delete.
pub fn reclaim_floors(line: &Line, metas: &Metas, channels: &[ChannelTriple]) -> ReclaimFloors {
    ReclaimFloors {
        channel_seq: channels
            .iter()
            .map(|c| (c.ch, member(line, metas, c.to).received_on(c.ch)))
            .collect(),
        det_pos: line
            .keys()
            .map(|&i| (i, member(line, metas, i).det_pos()))
            .collect(),
        ckpt_index: line.iter().map(|(&i, id)| (i, id.index)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::CheckpointKind;

    fn meta(inst: u32, index: u64, sent: &[(u32, u64)], recv: &[(u32, u64)]) -> CheckpointMeta {
        let mut m = CheckpointMeta::initial(InstanceIdx(inst), false);
        m.id = CheckpointId::new(InstanceIdx(inst), index);
        m.sent_wm = sent.iter().map(|(c, s)| (ChannelIdx(*c), *s)).collect();
        m.recv_wm = recv.iter().map(|(c, s)| (ChannelIdx(*c), *s)).collect();
        m
    }

    fn ch(c: u32, from: u32, to: u32) -> ChannelTriple {
        ChannelTriple {
            ch: ChannelIdx(c),
            from: InstanceIdx(from),
            to: InstanceIdx(to),
        }
    }

    #[test]
    fn aligned_checkpoints_need_no_rollback() {
        let metas = vec![
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 4)], &[]),
            meta(1, 0, &[], &[]),
            meta(1, 1, &[], &[(0, 4)]),
        ];
        let g = CheckpointGraph::build(metas, &[ch(0, 0, 1)]);
        let out = rollback_propagation(&g);
        assert_eq!(out.invalid_count(), 0);
        assert_eq!(out.line[&InstanceIdx(0)].index, 1);
        assert_eq!(out.line[&InstanceIdx(1)].index, 1);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn orphan_rolls_receiver_back() {
        // Receiver's latest checkpoint saw 5 messages; sender's latest had
        // sent only 3 → receiver's checkpoint is invalid (paper Fig. 2b).
        let metas = vec![
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 3)], &[]),
            meta(1, 0, &[], &[]),
            meta(1, 1, &[], &[(0, 5)]),
        ];
        let g = CheckpointGraph::build(metas, &[ch(0, 0, 1)]);
        let out = rollback_propagation(&g);
        assert_eq!(out.line[&InstanceIdx(0)].index, 1);
        assert_eq!(out.line[&InstanceIdx(1)].index, 0);
        assert_eq!(out.rolled_past, vec![CheckpointId::new(InstanceIdx(1), 1)]);
    }

    #[test]
    fn cascading_rollback_two_hops() {
        // 0 → 1 → 2 chain of orphans: rolling 2 back forces nothing more,
        // but 1's latest is also orphaned by 0.
        let metas = vec![
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 2)], &[]),
            meta(1, 0, &[], &[]),
            meta(1, 1, &[(1, 1)], &[(0, 4)]), // saw 4 from 0 (orphan), had sent 1 to 2
            meta(2, 0, &[], &[]),
            meta(2, 1, &[], &[(1, 3)]), // saw 3 from 1 (orphan w.r.t. both of 1's ckpts)
        ];
        let g = CheckpointGraph::build(metas, &[ch(0, 0, 1), ch(1, 1, 2)]);
        let out = rollback_propagation(&g);
        assert_eq!(out.line[&InstanceIdx(0)].index, 1);
        assert_eq!(out.line[&InstanceIdx(1)].index, 0);
        assert_eq!(out.line[&InstanceIdx(2)].index, 0);
        assert_eq!(out.invalid_count(), 2);
    }

    #[test]
    fn domino_to_initial_state() {
        // Mutual orphans at every level: both instances roll to initial.
        let metas = vec![
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 1)], &[(1, 2)]), // saw 2 from peer, sent 1
            meta(1, 0, &[], &[]),
            meta(1, 1, &[(1, 1)], &[(0, 2)]), // saw 2 from peer, sent 1
        ];
        let g = CheckpointGraph::build(metas, &[ch(0, 0, 1), ch(1, 1, 0)]);
        let out = rollback_propagation(&g);
        assert_eq!(out.line[&InstanceIdx(0)].index, 0);
        assert_eq!(out.line[&InstanceIdx(1)].index, 0);
        assert_eq!(out.invalid_count(), 2);
        assert!(out.iterations >= 2);
    }

    #[test]
    fn line_is_maximal_among_enumerated_consistent_lines() {
        // Small case: enumerate all candidate lines, assert the algorithm's
        // line dominates every consistent one componentwise.
        let metas = vec![
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 3)], &[]),
            meta(0, 2, &[(0, 6)], &[]),
            meta(1, 0, &[], &[]),
            meta(1, 1, &[], &[(0, 4)]),
            meta(1, 2, &[], &[(0, 8)]),
        ];
        let g = CheckpointGraph::build(metas.clone(), &[ch(0, 0, 1)]);
        let out = rollback_propagation(&g);
        for x in 0..=2u64 {
            for y in 0..=2u64 {
                let line: BTreeMap<_, _> = [
                    (InstanceIdx(0), CheckpointId::new(InstanceIdx(0), x)),
                    (InstanceIdx(1), CheckpointId::new(InstanceIdx(1), y)),
                ]
                .into();
                if g.line_is_consistent(&line) {
                    assert!(
                        out.line[&InstanceIdx(0)].index >= x
                            && out.line[&InstanceIdx(1)].index >= y,
                        "algorithm line {:?} dominated by consistent ({x},{y})",
                        out.line
                    );
                }
            }
        }
        // sanity: (2, 1) is consistent (sent 6 ≥ recv 4): expect exactly it
        assert_eq!(out.line[&InstanceIdx(0)].index, 2);
        assert_eq!(out.line[&InstanceIdx(1)].index, 1);
    }

    #[test]
    fn reclaim_floors_follow_the_receivers_line_members() {
        // 5 and 6 are the replay range, 1..=4 are garbage, as is
        // everything of either instance below its member.
        let (metas, channels) = (sender_ahead(), [ch(0, 0, 1)]);
        let out = recovery_line(ProtocolKind::Uncoordinated, &metas, &channels);
        assert_eq!(out.line, line(&[(0, 2), (1, 1)]));
        let floors = reclaim_floors(&out.line, &metas, &channels);
        assert_eq!(floors.channel_seq, [(ChannelIdx(0), 4)].into());
        assert_eq!(
            floors.det_pos,
            [(InstanceIdx(0), 0), (InstanceIdx(1), 4)].into()
        );
        assert_eq!(
            floors.ckpt_index,
            [(InstanceIdx(0), 2), (InstanceIdx(1), 1)].into()
        );
    }

    fn coor_meta(inst: u32, index: u64, round: u64) -> CheckpointMeta {
        let mut m = CheckpointMeta::initial(InstanceIdx(inst), false);
        m.id = CheckpointId::new(InstanceIdx(inst), index);
        m.kind = if round == 0 {
            CheckpointKind::Initial
        } else {
            CheckpointKind::Coordinated { round }
        };
        m
    }

    fn round_behind() -> Vec<CheckpointMeta> {
        vec![
            coor_meta(0, 0, 0),
            coor_meta(0, 1, 1),
            coor_meta(0, 2, 2),
            coor_meta(1, 0, 0),
            coor_meta(1, 1, 1), // instance 1 hasn't completed round 2
        ]
    }

    #[test]
    fn coordinated_line_takes_last_common_round() {
        let line = coordinated_line(&round_behind());
        assert_eq!(line[&InstanceIdx(0)].index, 1);
        assert_eq!(line[&InstanceIdx(1)].index, 1);
    }

    #[test]
    fn coordinated_line_falls_back_to_initial() {
        let metas = vec![coor_meta(0, 0, 0), coor_meta(1, 0, 0)];
        let line = coordinated_line(&metas);
        assert_eq!(line[&InstanceIdx(0)].index, 0);
        assert_eq!(line[&InstanceIdx(1)].index, 0);
    }

    fn keyed(metas: impl IntoIterator<Item = CheckpointMeta>) -> Metas {
        metas
            .into_iter()
            .map(|m| ((m.id.instance, m.id.index), m))
            .collect()
    }

    fn line(members: &[(u32, u64)]) -> Line {
        members
            .iter()
            .map(|&(i, x)| (InstanceIdx(i), CheckpointId::new(InstanceIdx(i), x)))
            .collect()
    }

    /// Line (2, 1): the receiver's member saw 4 of the 6 messages the
    /// sender's member had sent.
    fn sender_ahead() -> Metas {
        keyed([
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 3)], &[]),
            meta(0, 2, &[(0, 6)], &[]),
            meta(1, 0, &[], &[]),
            meta(1, 1, &[], &[(0, 4)]),
            meta(1, 2, &[], &[(0, 8)]),
        ])
    }

    #[test]
    fn replay_range_reads_receiver_received_and_sender_sent() {
        let metas = sender_ahead();
        let l = line(&[(0, 2), (1, 1)]);
        assert_eq!(replay_range(&l, &metas, &ch(0, 0, 1)), (4, 6));
    }

    #[test]
    fn unc_line_over_a_deferred_hole_uses_the_dense_prefix() {
        // Instance 0's checkpoint 2 was deferred (never durable) but 3
        // landed: the graph would reject the gap; the line comes from
        // indices 0..=1.
        let metas = keyed([
            meta(0, 0, &[], &[]),
            meta(0, 1, &[(0, 3)], &[]),
            meta(0, 3, &[(0, 9)], &[]),
            meta(1, 0, &[], &[]),
            meta(1, 1, &[], &[(0, 3)]),
        ]);
        let out = recovery_line(ProtocolKind::Uncoordinated, &metas, &[ch(0, 0, 1)]);
        assert_eq!(out.line, line(&[(0, 1), (1, 1)]));
    }

    #[test]
    fn coor_line_with_an_instance_a_round_behind_takes_the_last_common_round() {
        let metas = keyed(round_behind());
        let out = recovery_line(ProtocolKind::Coordinated, &metas, &[ch(0, 0, 1)]);
        assert_eq!(out.line, line(&[(0, 1), (1, 1)]));
        assert!(out.rolled_past.is_empty());
    }

    #[test]
    fn discard_after_line_returns_post_line_metas_in_key_order() {
        let mut metas = keyed((0..=3u64).map(|idx| {
            let mut m = meta(0, idx, &[], &[]);
            m.state_key = format!("ckpt/0/{idx}");
            m
        }));
        let removed: Vec<String> = discard_after_line(&mut metas, &line(&[(0, 1)]))
            .into_iter()
            .map(|m| m.state_key)
            .collect();
        assert_eq!(removed, vec!["ckpt/0/2", "ckpt/0/3"]);
        assert_eq!(metas.len(), 2);
    }
}
