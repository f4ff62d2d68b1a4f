//! Set-associative cache model with true-LRU replacement.
//!
//! The model is tag-only (no data payload): a probe either hits or misses.
//! Fills happen explicitly (allocate-on-fill), which lets the L1 model defer
//! allocation until the memory response returns, as GPGPU-Sim does.

use crate::access::LineAddr;

#[derive(Debug, Clone, Copy)]
struct CacheLine {
    tag: u64,
    last_use: u64,
    valid: bool,
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// Line present; LRU state updated.
    Hit,
    /// Line absent.
    Miss,
}

/// Tag-only set-associative cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use gpu_sim::{ProbeResult, SetAssocCache};
///
/// let mut l1 = SetAssocCache::new(16 * 1024, 4, 128);
/// assert_eq!(l1.access(42), ProbeResult::Miss);
/// l1.fill(42); // allocate-on-fill, as the SM does when the response returns
/// assert_eq!(l1.access(42), ProbeResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<CacheLine>,
    num_sets: u64,
    /// `log2(num_sets)` when the set count is a power of two, so a line
    /// splits into set and tag with a mask and a shift.
    set_bits: Option<u32>,
    assoc: usize,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` capacity with `assoc` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into at least one set.
    #[must_use]
    pub fn new(size_bytes: u32, assoc: u32, line_bytes: u32) -> Self {
        let lines = size_bytes / line_bytes;
        assert!(
            assoc > 0 && lines >= assoc && lines.is_multiple_of(assoc),
            "invalid cache geometry: {size_bytes} B / {assoc}-way / {line_bytes} B lines"
        );
        let num_sets = u64::from(lines / assoc);
        Self {
            sets: vec![
                CacheLine {
                    tag: 0,
                    last_use: 0,
                    valid: false,
                };
                (lines) as usize
            ],
            num_sets,
            set_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            assoc: assoc as usize,
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The set `line` maps to (`line % num_sets`) and its tag
    /// (`line / num_sets`).
    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        match self.set_bits {
            Some(bits) => ((line & (self.num_sets - 1)) as usize, line >> bits),
            None => ((line % self.num_sets) as usize, line / self.num_sets),
        }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Probes for `line`, updating LRU on a hit and recording statistics.
    pub fn access(&mut self, line: LineAddr) -> ProbeResult {
        self.clock += 1;
        self.accesses += 1;
        let (set, tag) = self.set_and_tag(line);
        let clock = self.clock;
        let range = self.set_range(set);
        for way in &mut self.sets[range] {
            if way.valid && way.tag == tag {
                way.last_use = clock;
                return ProbeResult::Hit;
            }
        }
        self.misses += 1;
        ProbeResult::Miss
    }

    /// Probes without touching LRU or statistics.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.sets[self.set_range(set)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Installs `line`, evicting the LRU way if the set is full. Installing
    /// an already-present line refreshes its LRU position.
    pub fn fill(&mut self, line: LineAddr) {
        self.clock += 1;
        let (set, tag) = self.set_and_tag(line);
        let clock = self.clock;
        let range = self.set_range(set);
        let set = &mut self.sets[range];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = clock;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            // Invariant: the constructor rejects assoc == 0, so a set is
            // never empty. xtask-allow: no-unwrap
            .expect("assoc > 0");
        *victim = CacheLine {
            tag,
            last_use: clock,
            valid: true,
        };
    }

    /// Lifetime probe count.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Lifetime miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways.
        SetAssocCache::new(8 * 128, 2, 128)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.access(42), ProbeResult::Miss);
        c.fill(42);
        assert_eq!(c.access(42), ProbeResult::Hit);
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0);
        c.fill(4);
        let _ = c.access(0); // 0 is now MRU
        c.fill(8); // evicts 4
        assert!(c.peek(0));
        assert!(!c.peek(4));
        assert!(c.peek(8));
    }

    #[test]
    fn refill_refreshes_lru() {
        let mut c = small();
        c.fill(0);
        c.fill(4);
        c.fill(0); // refresh, not duplicate
        c.fill(8); // evicts 4, not 0
        assert!(c.peek(0));
        assert!(!c.peek(4));
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut c = small();
        c.fill(3);
        assert!(c.peek(3));
        assert!(!c.peek(7));
        assert_eq!(c.accesses(), 0);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for line in 0..4 {
            c.fill(line);
        }
        for line in 0..4 {
            assert_eq!(c.access(line), ProbeResult::Hit);
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small();
        // 16 lines cycling through an 8-line cache with LRU => ~0% hits on a
        // sequential sweep.
        for pass in 0..4 {
            for line in 0..16 {
                let r = c.access(line);
                if pass > 0 {
                    assert_eq!(r, ProbeResult::Miss);
                }
                c.fill(line);
            }
        }
    }

    /// The division-based set and tag the mask-and-shift split replaced.
    fn reference_set_and_tag(num_sets: u64, line: LineAddr) -> (usize, u64) {
        ((line % num_sets) as usize, line / num_sets)
    }

    #[test]
    fn set_and_tag_is_the_reference_division() {
        let cfg = crate::config::GpuConfig::isca_baseline();
        let geometries = [
            (cfg.l1.size_bytes, cfg.l1.assoc, cfg.l1.line_bytes, Some(5)),
            (
                cfg.l2.size_bytes_per_channel,
                cfg.l2.assoc,
                cfg.l2.line_bytes,
                Some(7),
            ),
            // 48 sets: not a power of two, so the division stays.
            (48 * 4 * 128, 4, 128, None),
        ];
        let mut rng = crate::rng::SimRng::seed_from_u64(0xcac4e);
        for (size, assoc, line_bytes, set_bits) in geometries {
            let c = SetAssocCache::new(size, assoc, line_bytes);
            assert_eq!(c.set_bits, set_bits, "{size} B / {assoc}-way");
            for i in 0..100_000u64 {
                // Small lines (the simulator's footprints), full-width ones
                // and the edges.
                let line = match i % 4 {
                    0 => i,
                    1 => u64::MAX - i,
                    2 => rng.range_u64(1 << 24),
                    _ => rng.next_u64(),
                };
                assert_eq!(
                    c.set_and_tag(line),
                    reference_set_and_tag(c.num_sets, line),
                    "line {line:#x} in {size} B / {assoc}-way"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn bad_geometry_rejected() {
        let _ = SetAssocCache::new(100, 3, 128);
    }
}
