//! Warp schedulers: greedy-then-oldest (GPGPU-Sim's `gto`, the Table I
//! default) and loose round-robin (the Fig. 10b alternative).

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Keep issuing from the last warp that issued; fall back to the oldest
    /// ready warp (by launch order).
    #[default]
    GreedyThenOldest,
    /// Rotate through warps starting after the last issuer.
    RoundRobin,
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GreedyThenOldest => write!(f, "gto"),
            Self::RoundRobin => write!(f, "rr"),
        }
    }
}

/// Per-scheduler selection state. Warps are statically partitioned across
/// schedulers by slot parity (`slot % num_schedulers == sched_id`).
#[derive(Debug)]
pub struct SchedulerState {
    kind: SchedulerKind,
    sched_id: usize,
    num_schedulers: usize,
    last_issued: Option<usize>,
}

impl SchedulerState {
    /// Creates the state for scheduler `sched_id` of `num_schedulers`.
    #[must_use]
    pub fn new(
        kind: SchedulerKind,
        sched_id: usize,
        num_schedulers: usize,
        _max_warps: usize,
    ) -> Self {
        Self {
            kind,
            sched_id,
            num_schedulers,
            last_issued: None,
        }
    }

    /// Whether `slot` belongs to this scheduler's partition.
    #[must_use]
    pub fn owns(&self, slot: usize) -> bool {
        slot % self.num_schedulers == self.sched_id
    }

    /// Bitmask of the slots this scheduler owns among `n_slots` (at most
    /// 64). Computed once at SM construction; the issue stage intersects it
    /// with the warp-table eligibility masks every cycle.
    #[must_use]
    pub fn owned_mask(&self, n_slots: usize) -> u64 {
        assert!(n_slots <= 64, "owned_mask holds at most 64 slots");
        let mut mask = 0u64;
        let mut slot = self.sched_id;
        while slot < n_slots {
            mask |= 1u64 << slot;
            slot += self.num_schedulers;
        }
        mask
    }

    /// Picks the winning slot out of `issuable` (a bitmask of
    /// operand-ready, unit-available candidate slots) — the mask-based
    /// replacement for scanning warps in [`Self::fill_order`] priority.
    /// `launch_seq` supplies the per-slot launch stamps (greedy-then-oldest
    /// key) and its length is the slot count. Policy matches the scan
    /// exactly: the last issuer wins outright under either policy (the
    /// greedy slot's key was 0 in the scan, below every other key);
    /// greedy-then-oldest falls back to the minimum launch stamp; round-
    /// robin rotates the mask so `trailing_zeros` finds the first candidate
    /// at-or-after the slot following the last issuer.
    #[must_use]
    pub fn select(&self, issuable: u64, launch_seq: &[u64]) -> Option<usize> {
        if issuable == 0 {
            return None;
        }
        if let Some(g) = self.last_issued {
            if issuable & (1u64 << g) != 0 {
                return Some(g);
            }
        }
        match self.kind {
            SchedulerKind::GreedyThenOldest => {
                let mut best_slot = 0usize;
                let mut best_key = u64::MAX;
                let mut m = issuable;
                while m != 0 {
                    let slot = m.trailing_zeros() as usize;
                    m &= m - 1;
                    // Launch stamps are unique (a monotone counter), so
                    // strict `<` picks the oldest warp unambiguously.
                    if launch_seq[slot] < best_key {
                        best_key = launch_seq[slot];
                        best_slot = slot;
                    }
                }
                Some(best_slot)
            }
            SchedulerKind::RoundRobin => {
                let n_slots = launch_seq.len();
                // Origin is the slot after the last issuer; reduce mod
                // n_slots first so the sentinel (`last == n_slots`, nothing
                // issued yet) wraps to slot 0. Rotating the mask right by
                // the origin puts cyclic distance in bit position, so the
                // lowest set bit is the first candidate at-or-after the
                // origin; wrapped slots land in the high bits, after every
                // unwrapped one, exactly like the scan's distance key.
                let last = self.last_issued.unwrap_or(n_slots);
                let origin = ((last + 1) % n_slots) as u32;
                let rot = issuable.rotate_right(origin);
                Some(((origin + rot.trailing_zeros()) & 63) as usize)
            }
        }
    }

    /// Records that `slot` issued this cycle.
    pub fn note_issue(&mut self, slot: usize) {
        self.last_issued = Some(slot);
    }

    /// The slot that issued most recently, if any.
    #[must_use]
    pub fn last_issued(&self) -> Option<usize> {
        self.last_issued
    }

    /// The scheduling policy.
    #[must_use]
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::Warp;

    impl SchedulerState {
        /// Fills `out` with this scheduler's occupied warp slots in issue-
        /// priority order: the slot-scan reference `select` must agree with.
        fn fill_order(&self, warps: &[Option<Warp>], out: &mut Vec<usize>) {
            out.clear();
            match self.kind {
                SchedulerKind::GreedyThenOldest => {
                    if let Some(g) = self.last_issued {
                        if warps.get(g).is_some_and(Option::is_some) {
                            out.push(g);
                        }
                    }
                    let greedy = self.last_issued;
                    let mut rest: Vec<usize> = (self.sched_id..warps.len())
                        .step_by(self.num_schedulers)
                        .filter(|&s| Some(s) != greedy && warps[s].is_some())
                        .collect();
                    rest.sort_by_key(|&s| warps[s].as_ref().map_or(u64::MAX, |w| w.launch_seq));
                    out.extend(rest);
                }
                SchedulerKind::RoundRobin => {
                    let slots: Vec<usize> = (self.sched_id..warps.len())
                        .step_by(self.num_schedulers)
                        .collect();
                    let start = self
                        .last_issued
                        .and_then(|l| slots.iter().position(|&s| s == l).map(|p| p + 1))
                        .unwrap_or(0);
                    for i in 0..slots.len() {
                        let s = slots[(start + i) % slots.len()];
                        if warps[s].is_some() {
                            out.push(s);
                        }
                    }
                }
            }
        }
    }
    use crate::access::AccessPattern;
    use crate::kernel::{KernelDesc, KernelId};
    use crate::program::ProgramSpec;

    fn warp(launch_seq: u64) -> Warp {
        let desc = KernelDesc {
            name: "t".into(),
            grid_ctas: 1,
            threads_per_cta: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            program: ProgramSpec::default().generate().expect("valid spec"),
            iterations: 1,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 0,
        };
        Warp::new(&desc, KernelId(0), 0, 0, 0, 0, launch_seq, 2)
    }

    fn slots(n: usize, seqs: &[(usize, u64)]) -> Vec<Option<Warp>> {
        let mut v: Vec<Option<Warp>> = (0..n).map(|_| None).collect();
        for &(slot, seq) in seqs {
            v[slot] = Some(warp(seq));
        }
        v
    }

    #[test]
    fn partition_by_parity() {
        let s0 = SchedulerState::new(SchedulerKind::GreedyThenOldest, 0, 2, 8);
        let s1 = SchedulerState::new(SchedulerKind::GreedyThenOldest, 1, 2, 8);
        assert!(s0.owns(0) && s0.owns(6));
        assert!(!s0.owns(3));
        assert!(s1.owns(3) && !s1.owns(4));
    }

    #[test]
    fn gto_puts_greedy_first_then_oldest() {
        let warps = slots(8, &[(0, 5), (2, 1), (4, 9), (6, 3)]);
        let mut s = SchedulerState::new(SchedulerKind::GreedyThenOldest, 0, 2, 8);
        let mut out = Vec::new();
        s.fill_order(&warps, &mut out);
        // No greedy yet: pure oldest-first.
        assert_eq!(out, vec![2, 6, 0, 4]);
        s.note_issue(4);
        s.fill_order(&warps, &mut out);
        assert_eq!(out, vec![4, 2, 6, 0]);
    }

    #[test]
    fn gto_drops_vacated_greedy_slot() {
        let mut warps = slots(8, &[(0, 5), (2, 1)]);
        let mut s = SchedulerState::new(SchedulerKind::GreedyThenOldest, 0, 2, 8);
        s.note_issue(0);
        warps[0] = None;
        let mut out = Vec::new();
        s.fill_order(&warps, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn round_robin_rotates() {
        let warps = slots(8, &[(1, 0), (3, 1), (5, 2), (7, 3)]);
        let mut s = SchedulerState::new(SchedulerKind::RoundRobin, 1, 2, 8);
        let mut out = Vec::new();
        s.fill_order(&warps, &mut out);
        assert_eq!(out, vec![1, 3, 5, 7]);
        s.note_issue(3);
        s.fill_order(&warps, &mut out);
        assert_eq!(out, vec![5, 7, 1, 3]);
        s.note_issue(7);
        s.fill_order(&warps, &mut out);
        assert_eq!(out, vec![1, 3, 5, 7]); // wraps around, 7 now last
    }

    /// Mask-based `select` must agree with the slot-scan `fill_order`
    /// priority on the first issuable candidate.
    fn first_issuable(s: &SchedulerState, warps: &[Option<Warp>], issuable: u64) -> Option<usize> {
        let mut order = Vec::new();
        s.fill_order(warps, &mut order);
        order
            .into_iter()
            .find(|&slot| issuable & (1u64 << slot) != 0)
    }

    #[test]
    fn select_matches_fill_order_for_gto() {
        let warps = slots(8, &[(0, 5), (2, 1), (4, 9), (6, 3)]);
        let seqs: Vec<u64> = warps
            .iter()
            .map(|w| w.as_ref().map_or(0, |w| w.launch_seq))
            .collect();
        let mut s = SchedulerState::new(SchedulerKind::GreedyThenOldest, 0, 2, 8);
        for issuable in [0b0101_0101u64, 0b0101_0000, 0b0000_0100, 0] {
            assert_eq!(
                s.select(issuable, &seqs),
                first_issuable(&s, &warps, issuable)
            );
        }
        s.note_issue(4);
        for issuable in [0b0101_0101u64, 0b0101_0000, 0b0100_0001] {
            assert_eq!(
                s.select(issuable, &seqs),
                first_issuable(&s, &warps, issuable)
            );
        }
        // Greedy slot no longer issuable: oldest wins.
        assert_eq!(s.select(0b0100_0101, &seqs), Some(2));
    }

    #[test]
    fn select_matches_fill_order_for_round_robin() {
        let warps = slots(8, &[(1, 0), (3, 1), (5, 2), (7, 3)]);
        let seqs: Vec<u64> = warps
            .iter()
            .map(|w| w.as_ref().map_or(0, |w| w.launch_seq))
            .collect();
        let mut s = SchedulerState::new(SchedulerKind::RoundRobin, 1, 2, 8);
        for issuable in [0b1010_1010u64, 0b1000_0010, 0b0000_1000] {
            assert_eq!(
                s.select(issuable, &seqs),
                first_issuable(&s, &warps, issuable)
            );
        }
        s.note_issue(3);
        // The issue stage gives the last issuer key 0 under *either*
        // policy, so a still-issuable greedy slot wins outright even in
        // round-robin (fill_order lacks this quirk, so compare against it
        // only when the greedy slot is not issuable).
        assert_eq!(s.select(0b1010_1010, &seqs), Some(3), "greedy wins");
        for issuable in [0b1010_0010u64, 0b0000_0010] {
            assert_eq!(
                s.select(issuable, &seqs),
                first_issuable(&s, &warps, issuable)
            );
        }
        s.note_issue(7); // wrap-around: origin reduces to slot 0
        for issuable in [0b0010_1010u64, 0b0010_0010, 0b0000_0010] {
            assert_eq!(
                s.select(issuable, &seqs),
                first_issuable(&s, &warps, issuable)
            );
        }
    }

    #[test]
    fn owned_mask_matches_owns() {
        for (sched_id, num) in [(0usize, 2usize), (1, 2), (0, 1), (2, 3)] {
            let s = SchedulerState::new(SchedulerKind::GreedyThenOldest, sched_id, num, 48);
            let mask = s.owned_mask(48);
            for slot in 0..48 {
                assert_eq!(mask & (1u64 << slot) != 0, s.owns(slot), "slot {slot}");
            }
            assert_eq!(mask >> 48, 0, "no bits past n_slots");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedulerKind::GreedyThenOldest.to_string(), "gto");
        assert_eq!(SchedulerKind::RoundRobin.to_string(), "rr");
    }
}
