//! Communication-induced checkpointing (paper §III-C).
//!
//! Two variants:
//!
//! - **HMNR** (Hélary–Mostéfaoui–Netzer–Raynal, Distributed Computing
//!   13(1), 2000) — the variant the paper adopts. Each operator instance
//!   keeps a Lamport clock, a vector clock of checkpoint counts, and the
//!   `taken`/`greater`/`sent_to` boolean vectors; the first four are
//!   piggybacked on every data message, and a *forced checkpoint* is taken
//!   before delivering a message that could otherwise make an existing
//!   checkpoint useless. The force test implemented here is the one the
//!   CheckMate paper describes: force iff a message was previously sent in
//!   this interval and the sender's clock is larger than ours, or the
//!   sender detected a Z-path back to our current checkpoint interval.
//! - **BCS** (Briatico–Ciuffoletti–Simoncini 1984) — the index-based
//!   variant: only the Lamport clock is piggybacked, and a checkpoint is
//!   forced whenever a message with a higher clock arrives. Cheaper
//!   piggyback, more forced checkpoints. The paper mentions evaluating it
//!   and finding HMNR faster; we keep it as an ablation
//!   ([`crate::ProtocolKind::CommunicationInducedBcs`]).

use checkmate_dataflow::codec::{Codec, Dec, DecodeError, Enc};
use std::sync::Arc;

/// The HMNR piggyback payload: a snapshot of the sender's protocol
/// vectors. Shared behind an `Arc` — the sender state caches one and
/// hands out clones until its next mutation, so a burst of sends costs
/// refcount bumps instead of three vector copies per message.
#[derive(Debug, Clone, PartialEq)]
pub struct HmnrPiggyback {
    pub lc: u64,
    pub ckpt: Vec<u32>,
    pub taken: Vec<bool>,
    pub greater: Vec<bool>,
}

/// Piggybacked protocol data attached to every payload message under CIC.
#[derive(Debug, Clone, PartialEq)]
pub enum CicPiggyback {
    Hmnr(Arc<HmnrPiggyback>),
    Bcs { lc: u64 },
}

impl CicPiggyback {
    /// Wire size of the piggyback: this is the message overhead the paper
    /// measures in Table II. HMNR ships the clock (8 B), the checkpoint
    /// vector (4 B per instance) and two bitsets (1 bit per instance
    /// each); BCS ships the clock only.
    pub fn encoded_len(&self) -> usize {
        match self {
            CicPiggyback::Hmnr(pb) => {
                let n = pb.ckpt.len();
                8 + 4 * n + 2 * n.div_ceil(8)
            }
            CicPiggyback::Bcs { .. } => 8,
        }
    }
}

/// The per-instance CIC protocol state.
#[derive(Debug, Clone)]
pub enum CicState {
    Hmnr(HmnrState),
    Bcs(BcsState),
}

impl CicState {
    pub fn hmnr(me: usize, n: usize) -> Self {
        CicState::Hmnr(HmnrState::new(me, n))
    }

    pub fn bcs() -> Self {
        CicState::Bcs(BcsState::new())
    }

    /// Called when sending a data message to instance `to`; returns the
    /// piggyback to attach.
    pub fn on_send(&mut self, to: usize) -> CicPiggyback {
        match self {
            CicState::Hmnr(s) => s.on_send(to),
            CicState::Bcs(s) => s.on_send(),
        }
    }

    /// Must a checkpoint be forced before delivering this message?
    pub fn should_force(&self, from: usize, pb: &CicPiggyback) -> bool {
        match (self, pb) {
            (CicState::Hmnr(s), CicPiggyback::Hmnr(pb)) => {
                s.should_force(from, pb.lc, &pb.ckpt, &pb.taken)
            }
            (CicState::Bcs(s), CicPiggyback::Bcs { lc }) => s.should_force(*lc),
            _ => panic!("piggyback variant does not match protocol state"),
        }
    }

    /// Merge piggybacked knowledge after delivering a message from `from`.
    pub fn on_deliver(&mut self, from: usize, pb: &CicPiggyback) {
        match (self, pb) {
            (CicState::Hmnr(s), CicPiggyback::Hmnr(pb)) => {
                s.on_deliver(from, pb.lc, &pb.ckpt, &pb.taken, &pb.greater)
            }
            (CicState::Bcs(s), CicPiggyback::Bcs { lc }) => s.on_deliver(*lc),
            _ => panic!("piggyback variant does not match protocol state"),
        }
    }

    /// Called when the instance takes a checkpoint (local or forced).
    pub fn on_checkpoint(&mut self) {
        match self {
            CicState::Hmnr(s) => s.on_checkpoint(),
            CicState::Bcs(s) => s.on_checkpoint(),
        }
    }

    pub fn lamport_clock(&self) -> u64 {
        match self {
            CicState::Hmnr(s) => s.lc,
            CicState::Bcs(s) => s.lc,
        }
    }
}

/// HMNR protocol state for one instance among `n`.
#[derive(Debug, Clone)]
pub struct HmnrState {
    me: usize,
    /// Lamport clock; incremented at each checkpoint, maxed on receive.
    pub lc: u64,
    /// `ckpt[k]`: number of checkpoints instance `k` has taken, as known
    /// here. `ckpt[me]` is authoritative.
    pub ckpt: Vec<u32>,
    /// `taken[k]`: a Z-path exists from the last known checkpoint of `k`
    /// into the current interval (it would reach our *next* checkpoint).
    pub taken: Vec<bool>,
    /// `greater[k]`: our clock is known to exceed `k`'s.
    pub greater: Vec<bool>,
    /// `sent_to[k]`: we sent a message to `k` since our last checkpoint.
    pub sent_to: Vec<bool>,
    /// Piggyback snapshot valid until the next state mutation; sends
    /// while it is valid are refcount bumps.
    pb_cache: Option<Arc<HmnrPiggyback>>,
}

impl HmnrState {
    pub fn new(me: usize, n: usize) -> Self {
        assert!(me < n);
        Self {
            me,
            lc: 0,
            ckpt: vec![0; n],
            taken: vec![false; n],
            greater: vec![false; n],
            sent_to: vec![false; n],
            pb_cache: None,
        }
    }

    fn on_send(&mut self, to: usize) -> CicPiggyback {
        // `sent_to` is local bookkeeping only — it never travels in the
        // piggyback, so mutating it keeps the cache valid.
        self.sent_to[to] = true;
        if self.pb_cache.is_none() {
            self.pb_cache = Some(Arc::new(HmnrPiggyback {
                lc: self.lc,
                ckpt: self.ckpt.clone(),
                taken: self.taken.clone(),
                greater: self.greater.clone(),
            }));
        }
        CicPiggyback::Hmnr(self.pb_cache.clone().expect("just filled"))
    }

    fn should_force(&self, _from: usize, m_lc: u64, m_ckpt: &[u32], m_taken: &[bool]) -> bool {
        let sent_any = self.sent_to.iter().any(|&s| s);
        // C1: we sent in this interval and the sender's clock is ahead —
        // delivering would let a zigzag cross our interval.
        let c1 = sent_any && m_lc > self.lc;
        // C2: the sender knows a Z-path back to our *current* checkpoint
        // interval — delivering extends it into a potential Z-cycle.
        let c2 = m_taken[self.me] && m_ckpt[self.me] == self.ckpt[self.me];
        c1 || c2
    }

    fn on_deliver(
        &mut self,
        from: usize,
        m_lc: u64,
        m_ckpt: &[u32],
        m_taken: &[bool],
        m_greater: &[bool],
    ) {
        // The cached piggyback snapshots `lc`, `ckpt`, `taken` and
        // `greater`; it stays valid — equal to a fresh snapshot — unless
        // this merge changes one of them. In a pipeline deliveries and
        // sends alternate and most deliveries carry no news.
        let mut changed = false;
        // Clock + greater maintenance.
        match m_lc.cmp(&self.lc) {
            std::cmp::Ordering::Greater => {
                changed = true;
                self.lc = m_lc;
                // We inherit the sender's view of whose clocks it exceeds.
                self.greater.copy_from_slice(m_greater);
                self.greater[self.me] = false;
                self.greater[from] = false;
            }
            std::cmp::Ordering::Less => {
                changed |= !self.greater[from];
                self.greater[from] = true;
            }
            std::cmp::Ordering::Equal => {}
        }
        // Checkpoint-count and Z-path knowledge merge.
        for k in 0..self.ckpt.len() {
            match m_ckpt[k].cmp(&self.ckpt[k]) {
                std::cmp::Ordering::Greater => {
                    changed = true;
                    self.ckpt[k] = m_ckpt[k];
                    self.taken[k] = m_taken[k];
                }
                std::cmp::Ordering::Equal => {
                    changed |= m_taken[k] && !self.taken[k];
                    self.taken[k] = self.taken[k] || m_taken[k];
                }
                std::cmp::Ordering::Less => {}
            }
        }
        // The message itself is a causal path from `from`'s current
        // interval into ours.
        changed |= !self.taken[from];
        self.taken[from] = true;
        if changed {
            self.pb_cache = None;
        }
    }

    fn on_checkpoint(&mut self) {
        self.pb_cache = None;
        self.ckpt[self.me] += 1;
        // lc was maxed with every clock we ever received, so lc+1 is
        // strictly greater than all known clocks.
        self.lc += 1;
        for k in 0..self.greater.len() {
            self.greater[k] = k != self.me;
            self.sent_to[k] = false;
            self.taken[k] = false;
        }
    }
}

/// BCS index-based protocol state.
#[derive(Debug, Clone, Default)]
pub struct BcsState {
    pub lc: u64,
}

impl BcsState {
    pub fn new() -> Self {
        Self::default()
    }

    fn on_send(&mut self) -> CicPiggyback {
        CicPiggyback::Bcs { lc: self.lc }
    }

    fn should_force(&self, m_lc: u64) -> bool {
        m_lc > self.lc
    }

    fn on_deliver(&mut self, m_lc: u64) {
        self.lc = self.lc.max(m_lc);
    }

    fn on_checkpoint(&mut self) {
        self.lc += 1;
    }
}

impl CicState {
    /// In-place return to the birth state of [`CicState::hmnr`]`(me, n)`
    /// when this value already has that shape, keeping the vector
    /// allocations — run-session reuse resets CIC state per run instead
    /// of rebuilding it. Returns `false` (value untouched) on a shape
    /// mismatch; the caller then constructs fresh.
    pub fn reset_hmnr(&mut self, me: usize, n: usize) -> bool {
        match self {
            CicState::Hmnr(s) if s.me == me && s.ckpt.len() == n => {
                s.lc = 0;
                s.ckpt.fill(0);
                s.taken.fill(false);
                s.greater.fill(false);
                s.sent_to.fill(false);
                s.pb_cache = None;
                true
            }
            _ => false,
        }
    }

    /// In-place return to the birth state of [`CicState::bcs`]; `false`
    /// when this value is not the BCS variant.
    pub fn reset_bcs(&mut self) -> bool {
        match self {
            CicState::Bcs(s) => {
                s.lc = 0;
                true
            }
            _ => false,
        }
    }

    /// Exact byte length of the [`Codec::encode`] output below —
    /// sized-only snapshot accounting sums this without encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            // tag + me + lc + count + n×u32 ckpt + 3 bool vectors.
            CicState::Hmnr(s) => 1 + 4 + 8 + 4 + s.ckpt.len() * 4 + 3 * s.ckpt.len(),
            CicState::Bcs(_) => 1 + 8,
        }
    }
}

// The CIC protocol state is part of an instance's checkpointed state: the
// clocks and vectors must survive a rollback exactly as they were at
// snapshot time, or post-recovery force decisions would diverge.
impl Codec for CicState {
    fn encode(&self, enc: &mut Enc) {
        match self {
            CicState::Hmnr(s) => {
                enc.u8(0);
                enc.u32(s.me as u32).u64(s.lc).u32(s.ckpt.len() as u32);
                for &c in &s.ckpt {
                    enc.u32(c);
                }
                for v in [&s.taken, &s.greater, &s.sent_to] {
                    for &b in v {
                        enc.bool(b);
                    }
                }
            }
            CicState::Bcs(s) => {
                enc.u8(1);
                enc.u64(s.lc);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => {
                let me = dec.u32()? as usize;
                let lc = dec.u64()?;
                let n = dec.u32()? as usize;
                let mut ckpt = Vec::with_capacity(n);
                for _ in 0..n {
                    ckpt.push(dec.u32()?);
                }
                let read_bools = |dec: &mut Dec<'_>| -> Result<Vec<bool>, DecodeError> {
                    (0..n).map(|_| dec.bool()).collect()
                };
                let taken = read_bools(dec)?;
                let greater = read_bools(dec)?;
                let sent_to = read_bools(dec)?;
                Ok(CicState::Hmnr(HmnrState {
                    me,
                    lc,
                    ckpt,
                    taken,
                    greater,
                    sent_to,
                    pb_cache: None,
                }))
            }
            1 => Ok(CicState::Bcs(BcsState { lc: dec.u64()? })),
            _ => Err(DecodeError {
                context: "unknown CicState tag",
                offset: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmnr_piggyback_size_scales_with_instances() {
        let mut s = CicState::hmnr(0, 10);
        let pb = s.on_send(1);
        assert_eq!(pb.encoded_len(), 8 + 40 + 2 * 2);
        let mut s = CicState::hmnr(0, 100);
        let pb = s.on_send(1);
        assert_eq!(pb.encoded_len(), 8 + 400 + 2 * 13);
    }

    #[test]
    fn bcs_piggyback_is_constant() {
        let mut s = CicState::bcs();
        assert_eq!(s.on_send(3).encoded_len(), 8);
    }

    #[test]
    fn hmnr_no_force_without_prior_send() {
        // Receiving a newer clock without having sent anything this
        // interval cannot create a zigzag: no force.
        let mut a = CicState::hmnr(0, 3);
        let mut b = CicState::hmnr(1, 3);
        b.on_checkpoint(); // b.lc = 1 > a.lc = 0
        let pb = b.on_send(0);
        assert!(!a.should_force(1, &pb));
        a.on_deliver(1, &pb);
        assert_eq!(a.lamport_clock(), 1);
    }

    #[test]
    fn hmnr_forces_on_send_then_higher_clock_receive() {
        // Classic pattern: a sends to c (interval open with a send), then
        // receives from b whose clock is ahead → forced checkpoint.
        let mut a = CicState::hmnr(0, 3);
        let mut b = CicState::hmnr(1, 3);
        let _ = a.on_send(2); // a has sent this interval
        b.on_checkpoint(); // b.lc = 1
        let pb = b.on_send(0);
        assert!(a.should_force(1, &pb));
        // After forcing, the delivery lands in the fresh interval.
        a.on_checkpoint();
        assert!(!a.should_force(1, &pb)); // lc now 1, not less than sender's
        a.on_deliver(1, &pb);
    }

    #[test]
    fn hmnr_z_path_condition_forces() {
        // b knows a Z-path from a's current checkpoint interval (taken[a])
        // with matching checkpoint count → a must force before delivery.
        let mut a = CicState::hmnr(0, 2);
        let mut b = CicState::hmnr(1, 2);
        // a sends to b: b learns taken[0] = true, ckpt[0] = 0 == a's count.
        let pb_ab = a.on_send(1);
        b.on_deliver(0, &pb_ab);
        // b replies; a's ckpt[0] is still 0, b's taken[0] is true.
        let pb_ba = b.on_send(0);
        assert!(a.should_force(1, &pb_ba));
        // If a checkpoints first, its count moves to 1 ≠ piggybacked 0:
        a.on_checkpoint();
        assert!(!a.should_force(1, &pb_ba));
    }

    #[test]
    fn hmnr_checkpoint_resets_interval_state() {
        let mut a = CicState::hmnr(0, 4);
        let _ = a.on_send(1);
        let _ = a.on_send(2);
        a.on_checkpoint();
        let CicState::Hmnr(s) = &a else {
            unreachable!()
        };
        assert!(s.sent_to.iter().all(|&x| !x));
        assert!(s.taken.iter().all(|&x| !x));
        assert_eq!(s.ckpt[0], 1);
        assert_eq!(s.lc, 1);
        // greater: strictly above everyone we've heard from
        assert!(!s.greater[0]);
        assert!(s.greater[1] && s.greater[2] && s.greater[3]);
    }

    #[test]
    fn hmnr_clock_merges_on_deliver() {
        let mut a = CicState::hmnr(0, 2);
        let mut b = CicState::hmnr(1, 2);
        for _ in 0..5 {
            b.on_checkpoint();
        }
        let pb = b.on_send(0);
        a.on_deliver(1, &pb);
        assert_eq!(a.lamport_clock(), 5);
        // a is not greater than b (clocks equal now)
        let CicState::Hmnr(s) = &a else {
            unreachable!()
        };
        assert!(!s.greater[1]);
    }

    #[test]
    fn bcs_forces_on_any_higher_clock() {
        let mut a = CicState::bcs();
        let mut b = CicState::bcs();
        b.on_checkpoint();
        let pb = b.on_send(0);
        // BCS forces even without prior sends (coarser condition).
        assert!(a.should_force(1, &pb));
        a.on_checkpoint();
        assert!(!a.should_force(1, &pb));
        a.on_deliver(1, &pb);
    }

    #[test]
    fn bcs_forces_strictly_more_than_hmnr_on_receive_only_pattern() {
        // The receive-without-send pattern: HMNR does not force, BCS does.
        let hm = CicState::hmnr(0, 2);
        let bc = CicState::bcs();
        let mut peer_h = CicState::hmnr(1, 2);
        let mut peer_b = CicState::bcs();
        peer_h.on_checkpoint();
        peer_b.on_checkpoint();
        let pb_h = peer_h.on_send(0);
        let pb_b = peer_b.on_send(0);
        assert!(!hm.should_force(1, &pb_h));
        assert!(bc.should_force(1, &pb_b));
    }

    #[test]
    #[should_panic(expected = "variant does not match")]
    fn mixed_variants_panic() {
        let a = CicState::hmnr(0, 2);
        let mut b = CicState::bcs();
        let pb = b.on_send(0);
        a.should_force(1, &pb);
    }

    #[test]
    fn cic_state_codec_roundtrip() {
        let mut a = CicState::hmnr(1, 4);
        let mut peer = CicState::hmnr(0, 4);
        peer.on_checkpoint();
        let pb = peer.on_send(1);
        let _ = a.on_send(2);
        a.on_deliver(0, &pb);
        let bytes = a.to_bytes();
        let back = CicState::from_bytes(&bytes).unwrap();
        // restored state makes identical decisions
        let pb2 = peer.on_send(1);
        assert_eq!(a.should_force(0, &pb2), back.should_force(0, &pb2));
        assert_eq!(a.lamport_clock(), back.lamport_clock());

        let mut b = CicState::bcs();
        b.on_checkpoint();
        b.on_checkpoint();
        let back = CicState::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back.lamport_clock(), 2);
    }
}
