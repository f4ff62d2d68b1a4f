//! Per-SM statistics: instruction throughput, the stall-cycle taxonomy of
//! Fig. 1, functional-unit occupancy, storage-resource occupancy, and
//! per-kernel L1 behaviour.

/// Why a warp scheduler issued nothing in a given cycle (Fig. 1 taxonomy).
///
/// Classification priority follows the paper: long memory latency, then
/// short RAW hazards, then execute-stage structural hazards, then an empty
/// instruction buffer. A scheduler with no resident warps is `Idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// All issuable warps wait on outstanding global loads.
    LongMemoryLatency,
    /// Warps wait on short ALU/SFU read-after-write dependences.
    ShortRawHazard,
    /// A warp was ready but its functional unit was occupied.
    ExecResource,
    /// No decoded instruction was available (fetch/i-cache pressure).
    IbufferEmpty,
    /// Warps wait at a CTA-wide barrier.
    Barrier,
    /// No resident warps to schedule.
    Idle,
}

impl StallReason {
    /// All reasons, in classification-priority order.
    pub const ALL: [StallReason; 6] = [
        StallReason::LongMemoryLatency,
        StallReason::ShortRawHazard,
        StallReason::ExecResource,
        StallReason::IbufferEmpty,
        StallReason::Barrier,
        StallReason::Idle,
    ];
}

/// Counts of scheduler-cycles lost to each stall reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Long-memory-latency scheduler-cycles.
    pub mem: u64,
    /// Short-RAW scheduler-cycles.
    pub raw: u64,
    /// Execute-stage structural scheduler-cycles.
    pub exec: u64,
    /// I-buffer-empty scheduler-cycles.
    pub ibuffer: u64,
    /// Barrier-wait scheduler-cycles.
    pub barrier: u64,
    /// Idle scheduler-cycles (no warps).
    pub idle: u64,
}

impl StallBreakdown {
    /// Records one stalled scheduler-cycle.
    pub fn record(&mut self, reason: StallReason) {
        match reason {
            StallReason::LongMemoryLatency => self.mem += 1,
            StallReason::ShortRawHazard => self.raw += 1,
            StallReason::ExecResource => self.exec += 1,
            StallReason::IbufferEmpty => self.ibuffer += 1,
            StallReason::Barrier => self.barrier += 1,
            StallReason::Idle => self.idle += 1,
        }
    }

    /// Records `n` stalled scheduler-cycles with the same classification —
    /// used by the fast-forward path to replay a dead span in bulk.
    pub fn record_n(&mut self, reason: StallReason, n: u64) {
        match reason {
            StallReason::LongMemoryLatency => self.mem += n,
            StallReason::ShortRawHazard => self.raw += n,
            StallReason::ExecResource => self.exec += n,
            StallReason::IbufferEmpty => self.ibuffer += n,
            StallReason::Barrier => self.barrier += n,
            StallReason::Idle => self.idle += n,
        }
    }

    /// Count for `reason`.
    #[must_use]
    pub fn get(&self, reason: StallReason) -> u64 {
        match reason {
            StallReason::LongMemoryLatency => self.mem,
            StallReason::ShortRawHazard => self.raw,
            StallReason::ExecResource => self.exec,
            StallReason::IbufferEmpty => self.ibuffer,
            StallReason::Barrier => self.barrier,
            StallReason::Idle => self.idle,
        }
    }

    /// Total stalled scheduler-cycles, excluding idle.
    #[must_use]
    pub fn total_non_idle(&self) -> u64 {
        self.mem + self.raw + self.exec + self.ibuffer + self.barrier
    }

    /// Adds `other` component-wise — used to aggregate per-SM breakdowns
    /// into a GPU-wide total (e.g. for trace stall windows).
    pub fn accumulate(&mut self, other: &StallBreakdown) {
        self.mem += other.mem;
        self.raw += other.raw;
        self.exec += other.exec;
        self.ibuffer += other.ibuffer;
        self.barrier += other.barrier;
        self.idle += other.idle;
    }

    /// Component-wise difference (`self - earlier`).
    #[must_use]
    pub fn since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            mem: self.mem - earlier.mem,
            raw: self.raw - earlier.raw,
            exec: self.exec - earlier.exec,
            ibuffer: self.ibuffer - earlier.ibuffer,
            barrier: self.barrier - earlier.barrier,
            idle: self.idle - earlier.idle,
        }
    }
}

/// Per-kernel, per-SM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmKernelStats {
    /// Warp instructions issued.
    pub insts_issued: u64,
    /// L1 data-cache probes.
    pub l1_accesses: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
}

/// Statistics for one SM.
#[derive(Debug, Clone, Default)]
pub struct SmStats {
    /// Core cycles simulated.
    pub cycles: u64,
    /// Stall taxonomy (scheduler-cycles).
    pub stalls: StallBreakdown,
    /// Cycles an ALU pipeline was occupied (summed over schedulers).
    pub alu_busy: u64,
    /// Cycles an SFU pipeline was occupied.
    pub sfu_busy: u64,
    /// Cycles an LSU pipeline was occupied.
    pub lsu_busy: u64,
    /// Sum over cycles of registers allocated (for time-averaged occupancy).
    pub reg_used_acc: u128,
    /// Sum over cycles of shared-memory bytes allocated.
    pub shmem_used_acc: u128,
    /// Sum over cycles of threads resident.
    pub threads_used_acc: u128,
    /// Sum over cycles of live warps (resident and unfinished), taken as a
    /// single `count_ones()` popcount of the SM's warp-table bitmasks.
    pub warps_active_acc: u128,
    /// Per-kernel-slot counters.
    pub per_kernel: Vec<SmKernelStats>,
}

impl SmStats {
    /// Mutable per-kernel counters for slot `slot`, growing on demand.
    pub fn kernel_mut(&mut self, slot: usize) -> &mut SmKernelStats {
        if self.per_kernel.len() <= slot {
            self.per_kernel.resize(slot + 1, SmKernelStats::default());
        }
        &mut self.per_kernel[slot]
    }

    /// Per-kernel counters for slot `slot` (zeros if never active here).
    #[must_use]
    pub fn kernel(&self, slot: usize) -> SmKernelStats {
        self.per_kernel.get(slot).copied().unwrap_or_default()
    }

    /// Total warp instructions issued on this SM.
    #[must_use]
    pub fn insts_issued(&self) -> u64 {
        self.per_kernel.iter().map(|k| k.insts_issued).sum()
    }

    /// Instructions per cycle over the SM's lifetime.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_issued() as f64 / self.cycles as f64
        }
    }

    /// Fraction of scheduler-cycles lost to long memory latency — the
    /// paper's `φ_mem` input to the IPC scaling factor (Eq. 3).
    #[must_use]
    pub fn phi_mem(&self, num_schedulers: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stalls.mem as f64 / (self.cycles * u64::from(num_schedulers)) as f64
    }

    /// Time-averaged register occupancy as a fraction of `capacity`.
    #[must_use]
    pub fn avg_reg_occupancy(&self, capacity: u32) -> f64 {
        if self.cycles == 0 || capacity == 0 {
            return 0.0;
        }
        (self.reg_used_acc / u128::from(self.cycles)) as f64 / f64::from(capacity)
    }

    /// Time-averaged shared-memory occupancy as a fraction of `capacity`.
    #[must_use]
    pub fn avg_shmem_occupancy(&self, capacity: u32) -> f64 {
        if self.cycles == 0 || capacity == 0 {
            return 0.0;
        }
        (self.shmem_used_acc / u128::from(self.cycles)) as f64 / f64::from(capacity)
    }

    /// Time-averaged thread occupancy as a fraction of `capacity`.
    #[must_use]
    pub fn avg_thread_occupancy(&self, capacity: u32) -> f64 {
        if self.cycles == 0 || capacity == 0 {
            return 0.0;
        }
        (self.threads_used_acc / u128::from(self.cycles)) as f64 / f64::from(capacity)
    }

    /// Time-averaged live-warp occupancy as a fraction of `max_warps`.
    #[must_use]
    pub fn avg_warp_occupancy(&self, max_warps: u32) -> f64 {
        if self.cycles == 0 || max_warps == 0 {
            return 0.0;
        }
        self.warps_active_acc as f64 / (u128::from(self.cycles) * u128::from(max_warps)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_reads_back() {
        let mut b = StallBreakdown::default();
        for r in StallReason::ALL {
            b.record(r);
            b.record(r);
        }
        for r in StallReason::ALL {
            assert_eq!(b.get(r), 2);
        }
        assert_eq!(b.total_non_idle(), 10);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let mut early = StallBreakdown::default();
        early.record(StallReason::LongMemoryLatency);
        let mut late = early;
        late.record(StallReason::LongMemoryLatency);
        late.record(StallReason::ShortRawHazard);
        let d = late.since(&early);
        assert_eq!(d.mem, 1);
        assert_eq!(d.raw, 1);
        assert_eq!(d.exec, 0);
    }

    #[test]
    fn ipc_counts_all_kernels() {
        let mut s = SmStats {
            cycles: 100,
            ..SmStats::default()
        };
        s.kernel_mut(0).insts_issued = 120;
        s.kernel_mut(2).insts_issued = 80;
        assert_eq!(s.insts_issued(), 200);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert_eq!(s.kernel(1), SmKernelStats::default());
    }

    #[test]
    fn phi_mem_normalizes_by_scheduler_cycles() {
        let mut s = SmStats {
            cycles: 100,
            ..SmStats::default()
        };
        s.stalls.mem = 50;
        assert!((s.phi_mem(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn occupancy_time_averages() {
        let s = SmStats {
            cycles: 10,
            reg_used_acc: 10 * 16384,
            shmem_used_acc: 10 * 1024,
            threads_used_acc: 10 * 768,
            ..SmStats::default()
        };
        assert!((s.avg_reg_occupancy(32768) - 0.5).abs() < 1e-12);
        assert!((s.avg_shmem_occupancy(49152) - 1024.0 / 49152.0).abs() < 1e-9);
        assert!((s.avg_thread_occupancy(1536) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warp_occupancy_time_averages() {
        let s = SmStats {
            cycles: 10,
            warps_active_acc: 10 * 24,
            ..SmStats::default()
        };
        assert!((s.avg_warp_occupancy(48) - 0.5).abs() < 1e-12);
        assert_eq!(s.avg_warp_occupancy(0), 0.0);
    }

    #[test]
    fn zero_cycle_stats_are_zero() {
        let s = SmStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.phi_mem(2), 0.0);
        assert_eq!(s.avg_reg_occupancy(100), 0.0);
    }
}
