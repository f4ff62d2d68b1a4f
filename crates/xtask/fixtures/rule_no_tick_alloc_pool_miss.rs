//! Golden fixture for the pool-miss calls of the transitive
//! `no-tick-alloc` rule: `pool.pop().unwrap_or_default()` and
//! `pool.pop().unwrap_or_else(…)` make a fresh value whenever the pool is
//! empty, so a per-cycle path that starts from an empty pool allocates
//! until the pool has grown to its peak. `unwrap_or_default` on anything
//! but `pop`, a waived take and an unseeded function are spared.

pub struct Sm {
    pool: Vec<Vec<u32>>,
    lines: Vec<Vec<u64>>,
    counts: Vec<u32>,
}

impl Sm {
    /// Seed: the per-cycle SM tick.
    pub fn tick(&mut self, now: u64) {
        self.register(now);
        self.start_op(now);
    }

    /// A pool miss per new entry: caught.
    fn register(&mut self, line: u64) {
        let mut waiters = self.pool.pop().unwrap_or_default();
        waiters.push(1);
        self.pool.push(waiters);
        // Not a pool: a missing count reads as zero, nothing is made.
        let n = self.counts.get(0).copied().unwrap_or_default();
        self.counts.push(n + u32::from(line > 0));
    }

    /// A pool miss through a constructor closure: caught, unless the pool
    /// was filled up front and says so.
    fn start_op(&mut self, line: u64) {
        let mut lines = self.lines.pop().unwrap_or_else(|| Vec::with_capacity(32));
        lines.push(line);
        // filled to its bound when the table was built; xtask-allow: no-tick-alloc
        let kept = self.lines.pop().unwrap_or_else(Vec::new);
        self.lines.push(kept);
        self.lines.push(lines);
    }

    /// Not reachable from a seed: set-up may take from an empty pool.
    pub fn warm(&mut self) {
        let waiters = self.pool.pop().unwrap_or_default();
        self.pool.push(waiters);
    }
}
