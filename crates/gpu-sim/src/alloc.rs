//! Intra-SM storage-resource allocation.
//!
//! Registers and shared memory are allocated *contiguously* per CTA, exactly
//! as on real hardware — which is what makes allocation-strategy choice
//! matter (Fig. 2 of the paper): a first-come-first-serve interleaving of
//! two kernels' CTAs fragments the space so that a departed small CTA's hole
//! cannot host a larger CTA of the other kernel.
//!
//! [`LinearAllocator`] is a first-fit contiguous allocator over a
//! one-dimensional resource; [`SmResources`] bundles the four per-SM
//! resources (registers, shared memory, thread slots, CTA slots) and hands
//! out [`CtaResources`] leases.

use crate::config::SmConfig;
use crate::kernel::KernelDesc;

/// A contiguous extent of a one-dimensional resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First unit of the extent.
    pub start: u32,
    /// Extent length in units; zero-length regions are valid leases for
    /// kernels that use none of the resource.
    pub len: u32,
}

impl Region {
    /// The whole `[0, capacity)` window.
    #[must_use]
    pub fn whole(capacity: u32) -> Self {
        Self {
            start: 0,
            len: capacity,
        }
    }

    /// One-past-the-end unit.
    #[must_use]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Whether `other` lies entirely within `self`.
    #[must_use]
    pub fn contains(&self, other: &Region) -> bool {
        other.start >= self.start && other.end() <= self.end()
    }
}

/// First-fit contiguous allocator.
///
/// # Examples
///
/// Fragmentation is observable, exactly what Fig. 2 of the paper is about:
///
/// ```
/// use gpu_sim::LinearAllocator;
///
/// let mut a = LinearAllocator::new(100);
/// let small = a.alloc(20).unwrap();
/// let _big = a.alloc(60).unwrap();
/// a.free(small);
/// // 40 units are free, but not contiguously:
/// assert_eq!(a.capacity() - a.used(), 40);
/// assert_eq!(a.largest_free(), 20);
/// assert!(a.alloc(40).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct LinearAllocator {
    capacity: u32,
    /// Live blocks, sorted by start offset.
    blocks: Vec<Region>,
    used: u32,
}

impl LinearAllocator {
    /// Creates an allocator over `[0, capacity)`.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        Self {
            capacity,
            blocks: Vec::new(),
            used: 0,
        }
    }

    /// Total capacity in units.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Units currently allocated.
    #[must_use]
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Allocates `len` units anywhere, first fit.
    pub fn alloc(&mut self, len: u32) -> Option<Region> {
        self.alloc_in_window(len, Region::whole(self.capacity))
    }

    /// Allocates `len` units by first fit inside `window`.
    ///
    /// Zero-length requests always succeed with a zero-length region and do
    /// not consume space.
    pub fn alloc_in_window(&mut self, len: u32, window: Region) -> Option<Region> {
        if len == 0 {
            return Some(Region {
                start: window.start,
                len: 0,
            });
        }
        let lo = window.start;
        let hi = window.end().min(self.capacity);
        if lo >= hi || hi - lo < len {
            return None;
        }
        let mut cursor = lo;
        let mut insert_at = self.blocks.len();
        for (i, b) in self.blocks.iter().enumerate() {
            if b.end() <= cursor {
                continue;
            }
            if b.start >= hi {
                insert_at = i;
                break;
            }
            // Gap [cursor, b.start) within the window?
            if b.start >= cursor && b.start - cursor >= len {
                insert_at = i;
                break;
            }
            cursor = cursor.max(b.end());
            insert_at = i + 1;
        }
        if hi.saturating_sub(cursor) < len && insert_at == self.blocks.len() {
            return None;
        }
        // Re-check the chosen gap end against both window and next block.
        let gap_end = self.blocks.get(insert_at).map_or(hi, |b| b.start.min(hi));
        if cursor < lo || gap_end.saturating_sub(cursor) < len {
            return None;
        }
        let region = Region { start: cursor, len };
        self.blocks.insert(insert_at, region);
        self.used += len;
        if crate::invariant::enabled() {
            self.assert_consistent();
        }
        Some(region)
    }

    /// Verifies the allocator's internal accounting, panicking on the first
    /// inconsistency found.
    ///
    /// Runs automatically after every mutation when strict invariants are
    /// compiled in (see [`crate::invariant::enabled`]); exposed so embedders
    /// and tests can audit an allocator at any point.
    ///
    /// # Panics
    ///
    /// Panics if the live-block list is out of order, overlapping, or out of
    /// bounds, or if the `used` counter disagrees with the blocks.
    pub fn assert_consistent(&self) {
        let mut prev_end = 0u32;
        let mut sum = 0u64;
        for (i, b) in self.blocks.iter().enumerate() {
            assert!(
                b.end() <= self.capacity,
                "allocator corruption: block {i} [{}, {}) exceeds capacity {}",
                b.start,
                b.end(),
                self.capacity
            );
            assert!(
                i == 0 || b.start >= prev_end,
                "allocator corruption: block {i} [{}, {}) overlaps or precedes \
                 its neighbour ending at {prev_end}",
                b.start,
                b.end()
            );
            prev_end = b.end();
            sum += u64::from(b.len);
        }
        assert!(
            u64::from(self.used) == sum,
            "allocator corruption: used counter {} disagrees with the {} units \
             held by live blocks",
            self.used,
            sum
        );
    }

    /// Returns a previously allocated region to the free pool.
    ///
    /// Zero-length regions are accepted and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not a live allocation (double free or foreign
    /// region).
    pub fn free(&mut self, region: Region) {
        if region.len == 0 {
            return;
        }
        let idx = self
            .blocks
            .iter()
            .position(|b| *b == region)
            // Documented panic: a double free or foreign region is caller
            // corruption the allocator must not paper over.
            // xtask-allow: no-unwrap, panic-free-accounting
            .expect("free of a region that is not allocated");
        self.blocks.remove(idx);
        self.used -= region.len;
        if crate::invariant::enabled() {
            self.assert_consistent();
        }
    }

    /// Size of the largest free contiguous extent inside `window`.
    #[must_use]
    pub fn largest_free_in_window(&self, window: Region) -> u32 {
        let lo = window.start;
        let hi = window.end().min(self.capacity);
        let mut best = 0;
        let mut cursor = lo;
        for b in &self.blocks {
            if b.end() <= lo {
                continue;
            }
            if b.start >= hi {
                break;
            }
            if b.start > cursor {
                best = best.max(b.start.min(hi) - cursor);
            }
            cursor = cursor.max(b.end());
        }
        if hi > cursor {
            best = best.max(hi - cursor);
        }
        best
    }

    /// Size of the largest free contiguous extent anywhere.
    #[must_use]
    pub fn largest_free(&self) -> u32 {
        self.largest_free_in_window(Region::whole(self.capacity))
    }

    /// Total free units inside `window` (possibly fragmented).
    #[must_use]
    pub fn free_in_window(&self, window: Region) -> u32 {
        let lo = window.start;
        let hi = window.end().min(self.capacity);
        let mut used = 0;
        for b in &self.blocks {
            let s = b.start.max(lo);
            let e = b.end().min(hi);
            if e > s {
                used += e - s;
            }
        }
        (hi - lo).saturating_sub(used)
    }
}

/// Per-kernel allocation window restricting where a kernel's CTAs may land.
///
/// Policies build these: `Even` gives each kernel a `1/K` slice of every
/// resource; Warped-Slicer sizes each slice to the chosen quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Register-file window, in registers.
    pub regs: Region,
    /// Shared-memory window, in bytes.
    pub shmem: Region,
    /// Maximum CTAs of the kernel on this SM.
    pub max_ctas: u32,
    /// Maximum threads of the kernel on this SM.
    pub max_threads: u32,
}

/// The resources a resident CTA holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaResources {
    /// Register-file extent.
    pub regs: Region,
    /// Shared-memory extent.
    pub shmem: Region,
    /// Thread slots held.
    pub threads: u32,
}

/// The four per-SM resources.
#[derive(Debug, Clone)]
pub struct SmResources {
    /// Register file (units: registers).
    pub regs: LinearAllocator,
    /// Shared memory (units: bytes).
    pub shmem: LinearAllocator,
    threads_used: u32,
    max_threads: u32,
    ctas_used: u32,
    max_ctas: u32,
}

impl SmResources {
    /// Creates the resource pool for one SM.
    #[must_use]
    pub fn new(cfg: &SmConfig) -> Self {
        Self {
            regs: LinearAllocator::new(cfg.max_registers),
            shmem: LinearAllocator::new(cfg.shared_mem_bytes),
            threads_used: 0,
            max_threads: cfg.max_threads,
            ctas_used: 0,
            max_ctas: cfg.max_ctas,
        }
    }

    /// Threads currently resident.
    #[must_use]
    pub fn threads_used(&self) -> u32 {
        self.threads_used
    }

    /// CTAs currently resident.
    #[must_use]
    pub fn ctas_used(&self) -> u32 {
        self.ctas_used
    }

    /// CTA-slot capacity.
    #[must_use]
    pub fn max_ctas(&self) -> u32 {
        self.max_ctas
    }

    /// Thread-slot capacity.
    #[must_use]
    pub fn max_threads(&self) -> u32 {
        self.max_threads
    }

    /// Attempts to lease the resources for one CTA of `desc`, optionally
    /// restricted to a [`PartitionWindow`]. `kernel_ctas` / `kernel_threads`
    /// are the kernel's current residency on this SM, checked against the
    /// window's quota.
    pub fn try_alloc(
        &mut self,
        desc: &KernelDesc,
        window: Option<&PartitionWindow>,
        kernel_ctas: u32,
        kernel_threads: u32,
    ) -> Option<CtaResources> {
        if self.ctas_used >= self.max_ctas
            || self.threads_used + desc.threads_per_cta > self.max_threads
        {
            return None;
        }
        let (reg_window, shm_window) = match window {
            Some(w) => {
                if kernel_ctas >= w.max_ctas
                    || kernel_threads + desc.threads_per_cta > w.max_threads
                {
                    return None;
                }
                (w.regs, w.shmem)
            }
            None => (
                Region::whole(self.regs.capacity()),
                Region::whole(self.shmem.capacity()),
            ),
        };
        let regs = self.regs.alloc_in_window(desc.regs_per_cta(), reg_window)?;
        let Some(shmem) = self.shmem.alloc_in_window(desc.shmem_per_cta, shm_window) else {
            self.regs.free(regs);
            return None;
        };
        self.threads_used += desc.threads_per_cta;
        self.ctas_used += 1;
        if crate::invariant::enabled() {
            self.assert_consistent();
        }
        Some(CtaResources {
            regs,
            shmem,
            threads: desc.threads_per_cta,
        })
    }

    /// Returns a CTA's lease.
    ///
    /// # Panics
    ///
    /// Panics if the lease's regions are not live allocations (a corrupted
    /// or double-freed lease), via [`LinearAllocator::free`].
    pub fn free(&mut self, res: CtaResources) {
        self.regs.free(res.regs);
        self.shmem.free(res.shmem);
        self.threads_used -= res.threads;
        self.ctas_used -= 1;
        if crate::invariant::enabled() {
            self.assert_consistent();
        }
    }

    /// Verifies occupancy accounting across all four resources, panicking on
    /// the first inconsistency.
    ///
    /// Runs automatically after every lease and free when strict invariants
    /// are compiled in (see [`crate::invariant::enabled`]).
    ///
    /// # Panics
    ///
    /// Panics if either allocator is internally inconsistent or if the CTA /
    /// thread occupancy exceeds the SM's capacity.
    pub fn assert_consistent(&self) {
        self.regs.assert_consistent();
        self.shmem.assert_consistent();
        assert!(
            self.ctas_used <= self.max_ctas,
            "SM occupancy corruption: {} resident CTAs exceed the {} CTA slots",
            self.ctas_used,
            self.max_ctas
        );
        assert!(
            self.threads_used <= self.max_threads,
            "SM occupancy corruption: {} resident threads exceed the {} thread slots",
            self.threads_used,
            self.max_threads
        );
        assert!(
            self.ctas_used > 0 || (self.threads_used == 0 && self.regs.used() == 0),
            "SM occupancy corruption: {} threads / {} registers held with no \
             resident CTA",
            self.threads_used,
            self.regs.used()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::config::GpuConfig;
    use crate::program::ProgramSpec;

    #[test]
    fn first_fit_fills_lowest_gap() {
        let mut a = LinearAllocator::new(100);
        let b0 = a.alloc(30).unwrap();
        let b1 = a.alloc(30).unwrap();
        let _b2 = a.alloc(30).unwrap();
        assert_eq!((b0.start, b1.start), (0, 30));
        a.free(b0);
        // 30-unit hole at 0 and 10 free at the end: a 20-unit request takes
        // the hole.
        let b3 = a.alloc(20).unwrap();
        assert_eq!(b3.start, 0);
    }

    #[test]
    fn fragmentation_blocks_large_requests() {
        // The Fig. 2a scenario: interleave small (A) and large (B) blocks;
        // freeing the As leaves holes that cannot host another B.
        let mut a = LinearAllocator::new(120);
        let mut small = Vec::new();
        for _ in 0..3 {
            small.push(a.alloc(20).unwrap()); // A
            a.alloc(20).unwrap(); // B stays
        }
        for s in small {
            a.free(s);
        }
        assert_eq!(a.free_in_window(Region::whole(120)), 60);
        assert_eq!(a.largest_free(), 20);
        // 60 units are free but no 40-unit block fits.
        assert!(a.alloc(40).is_none());
    }

    #[test]
    fn window_confines_allocation() {
        let mut a = LinearAllocator::new(100);
        let w = Region { start: 50, len: 50 };
        let b = a.alloc_in_window(30, w).unwrap();
        assert!(w.contains(&b));
        assert!(a.alloc_in_window(30, w).is_none());
        // The other half is untouched.
        assert_eq!(a.largest_free_in_window(Region { start: 0, len: 50 }), 50);
    }

    #[test]
    fn zero_length_allocations_are_free() {
        let mut a = LinearAllocator::new(10);
        let z = a.alloc(0).unwrap();
        assert_eq!(z.len, 0);
        assert_eq!(a.used(), 0);
        a.free(z);
        assert_eq!(a.used(), 0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut a = LinearAllocator::new(10);
        let b = a.alloc(5).unwrap();
        a.free(b);
        a.free(b);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = LinearAllocator::new(10);
        assert!(a.alloc(11).is_none());
        let _ = a.alloc(10).unwrap();
        assert!(a.alloc(1).is_none());
    }

    fn kernel(threads: u32, regs: u32, shmem: u32) -> KernelDesc {
        KernelDesc {
            name: "k".into(),
            grid_ctas: 10,
            threads_per_cta: threads,
            regs_per_thread: regs,
            shmem_per_cta: shmem,
            program: ProgramSpec::default().generate().expect("valid spec"),
            iterations: 1,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 0,
        }
    }

    #[test]
    fn sm_resources_roundtrip() {
        let cfg = GpuConfig::isca_baseline().sm;
        let mut r = SmResources::new(&cfg);
        let k = kernel(256, 20, 4096);
        let lease = r.try_alloc(&k, None, 0, 0).unwrap();
        assert_eq!(r.ctas_used(), 1);
        assert_eq!(r.threads_used(), 256);
        assert_eq!(r.regs.used(), 256 * 20);
        assert_eq!(r.shmem.used(), 4096);
        r.free(lease);
        assert_eq!(r.ctas_used(), 0);
        assert_eq!(r.threads_used(), 0);
        assert_eq!(r.regs.used(), 0);
        assert_eq!(r.shmem.used(), 0);
    }

    #[test]
    fn sm_resources_respect_cta_slots() {
        let cfg = GpuConfig::isca_baseline().sm;
        let mut r = SmResources::new(&cfg);
        let k = kernel(32, 1, 0);
        for _ in 0..8 {
            assert!(r.try_alloc(&k, None, 0, 0).is_some());
        }
        assert!(r.try_alloc(&k, None, 0, 0).is_none());
    }

    #[test]
    fn window_quota_limits_kernel_ctas() {
        let cfg = GpuConfig::isca_baseline().sm;
        let mut r = SmResources::new(&cfg);
        let k = kernel(32, 1, 0);
        let w = PartitionWindow {
            regs: Region::whole(cfg.max_registers),
            shmem: Region::whole(cfg.shared_mem_bytes),
            max_ctas: 2,
            max_threads: cfg.max_threads,
        };
        assert!(r.try_alloc(&k, Some(&w), 0, 0).is_some());
        assert!(r.try_alloc(&k, Some(&w), 1, 32).is_some());
        assert!(r.try_alloc(&k, Some(&w), 2, 64).is_none());
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn corrupted_lease_is_rejected_on_free() {
        let cfg = GpuConfig::isca_baseline().sm;
        let mut r = SmResources::new(&cfg);
        let k = kernel(256, 20, 4096);
        let mut lease = r.try_alloc(&k, None, 0, 0).unwrap();
        // Tamper with the lease: shift the register extent.
        lease.regs.start += 1;
        r.free(lease);
    }

    #[test]
    #[should_panic(expected = "allocator corruption")]
    fn overlapping_blocks_are_detected() {
        let mut a = LinearAllocator::new(100);
        let _ = a.alloc(10).unwrap();
        // Corrupt the internal block list directly: an overlapping block.
        a.blocks.push(Region { start: 5, len: 10 });
        a.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "used counter")]
    fn used_counter_drift_is_detected() {
        let mut a = LinearAllocator::new(100);
        let _ = a.alloc(10).unwrap();
        a.used = 99;
        a.assert_consistent();
    }

    #[test]
    fn consistency_holds_through_a_churn_sequence() {
        let cfg = GpuConfig::isca_baseline().sm;
        let mut r = SmResources::new(&cfg);
        let k = kernel(128, 16, 1024);
        let mut leases = Vec::new();
        for _ in 0..4 {
            leases.push(r.try_alloc(&k, None, 0, 0).unwrap());
        }
        r.free(leases.remove(1));
        r.free(leases.remove(2));
        leases.push(r.try_alloc(&k, None, 0, 0).unwrap());
        for l in leases {
            r.free(l);
        }
        r.assert_consistent();
        assert_eq!(r.ctas_used(), 0);
    }

    #[test]
    fn shmem_failure_rolls_back_registers() {
        let cfg = GpuConfig::isca_baseline().sm;
        let mut r = SmResources::new(&cfg);
        // Kernel wanting more shared memory than exists.
        let k = kernel(32, 1, cfg.shared_mem_bytes + 1);
        assert!(r.try_alloc(&k, None, 0, 0).is_none());
        assert_eq!(r.regs.used(), 0);
        assert_eq!(r.ctas_used(), 0);
    }
}
