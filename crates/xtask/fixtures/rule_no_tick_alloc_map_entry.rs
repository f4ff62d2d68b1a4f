//! Golden fixture for the map-entry growth calls of the transitive
//! `no-tick-alloc` rule: `entry(..).or_default()` and
//! `entry(..).or_insert_with(..)` insert a fresh value, and with it a fresh
//! node, on every miss of a per-cycle path. A bounded pool refill carries a
//! written waiver, and taking a pooled vector with `unwrap_or_default` is
//! not map growth (it is a pool miss, waived here and covered by
//! `rule_no_tick_alloc_pool_miss.rs`).

use std::collections::BTreeMap;

pub struct MemSubsystem {
    pending: BTreeMap<u64, Vec<usize>>,
    hits: BTreeMap<u64, Vec<u64>>,
    pool: Vec<Vec<usize>>,
}

impl MemSubsystem {
    /// Seed: the per-cycle memory tick.
    pub fn tick(&mut self, now: u64) {
        self.l2_slice_tick(now, 3);
        self.count_hit(now);
    }

    /// Map growth per DRAM miss: caught.
    fn l2_slice_tick(&mut self, line: u64, sm: usize) {
        self.pending.entry(line).or_default().push(sm);
        // taken and handed back at once, so the pool never runs dry; xtask-allow: no-tick-alloc
        let waiters = self.pool.pop().unwrap_or_default();
        self.pool.push(waiters);
    }

    /// Map growth through a constructor closure: caught, unless the
    /// value comes from a bounded pool and says so.
    fn count_hit(&mut self, line: u64) {
        self.hits.entry(line).or_insert_with(Vec::new).push(line);
        let pool = &mut self.pool;
        // at most one entry per MSHR, refilled from the pool; xtask-allow: no-tick-alloc
        let refill = self.pending.entry(line).or_insert_with(|| pool.pop().unwrap_or_default());
        refill.clear();
    }

    /// Not reachable from a seed: set-up may grow maps freely.
    pub fn warm(&mut self, lines: &[u64]) {
        for &line in lines {
            self.pending.entry(line).or_default();
        }
    }
}
