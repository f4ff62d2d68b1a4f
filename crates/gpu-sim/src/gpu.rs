//! Top-level GPU: SMs plus the shared memory subsystem, with a
//! policy-agnostic launch interface.
//!
//! The simulator deliberately does *not* embed a CTA scheduling policy:
//! multiprogramming controllers (Left-Over, Even, Spatial, Warped-Slicer,
//! ...) live in the `warped-slicer` crate and drive launches through
//! [`Gpu::try_launch`], [`Gpu::set_window`], and [`Gpu::halt_kernel`].

use std::sync::OnceLock;

use crate::access::LineAddr;
use crate::alloc::PartitionWindow;
use crate::config::GpuConfig;
use crate::kernel::{KernelDesc, KernelId};
use crate::mem::{MemResponse, MemStats, MemSubsystem};
use crate::scheduler::SchedulerKind;
use crate::sm::{CtaCompletion, Sm};
use crate::stats::StallBreakdown;
use crate::trace::{TraceEvent, TraceSink};
use crate::verify::{self, KernelVerifyError};

/// Whether event-horizon fast-forwarding is enabled by default, read once
/// from the `WS_SIM_FASTFORWARD` environment variable. It is on unless the
/// variable is set to `0`, `false`, or `off` — the escape hatch for
/// bisecting any suspected divergence against the naive tick loop.
#[must_use]
pub fn fast_forward_default() -> bool {
    // One flag read from the environment once per process, the same for
    // every run; xtask-allow: no-global-state
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("WS_SIM_FASTFORWARD") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off"
        ),
        Err(_) => true,
    })
}

/// Per-kernel dispatch bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelMeta {
    /// CTAs handed to SMs so far.
    pub dispatched_ctas: u64,
    /// CTAs that ran to completion.
    pub completed_ctas: u64,
    /// Whether the kernel has been halted (instruction target reached).
    pub halted: bool,
}

/// The simulated GPU.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    mem: MemSubsystem,
    descs: Vec<KernelDesc>,
    meta: Vec<KernelMeta>,
    kernel_insts: Vec<u64>,
    cycle: u64,
    resp_buf: Vec<MemResponse>,
    /// Per-SM staging buffers for this cycle's memory fills: responses are
    /// grouped by destination SM (preserving per-SM arrival order) and
    /// applied in one `on_fill_batch` call per SM, so each touched warp's
    /// scoreboard entry refreshes once per cycle instead of once per fill.
    fill_bufs: Vec<Vec<LineAddr>>,
    completion_buf: Vec<CtaCompletion>,
    fast_forward: bool,
    skipped_cycles: u64,
    /// Current attempt-backoff width: after a failed skip attempt the next
    /// `ff_cooldown` calls decline without probing, and the width doubles
    /// (capped). Dense phases — where every cycle has real work — thus pay
    /// for a horizon probe only once every `FF_BACKOFF_CAP` cycles instead
    /// of every cycle. Purely a wall-clock heuristic: declining to skip
    /// never changes simulated state.
    ff_backoff: u32,
    ff_cooldown: u32,
    /// ws-trace event sink. `None` (the default) keeps every hook a single
    /// branch, so the tick path stays allocation-free and effectively
    /// zero-cost with tracing off.
    trace: Option<TraceSink>,
}

/// Widest attempt-backoff (in declined `fast_forward` calls) after
/// consecutive failed skip attempts.
const FF_BACKOFF_CAP: u32 = 32;

impl Gpu {
    /// Builds a GPU with the given configuration and warp scheduler.
    #[must_use]
    pub fn new(cfg: GpuConfig, scheduler: SchedulerKind) -> Self {
        let num_sms = cfg.num_sms as usize;
        let sms = (0..num_sms).map(|i| Sm::new(i, &cfg, scheduler)).collect();
        let mem = MemSubsystem::new(&cfg);
        // The per-cycle buffers start at their bounds: an SM receives at
        // most one fill per MSHR entry, and retires at most one CTA per
        // CTA slot, in a cycle.
        let mshr_entries = cfg.l1.mshr_entries as usize;
        Self {
            resp_buf: Vec::with_capacity(num_sms * mshr_entries),
            fill_bufs: (0..num_sms)
                .map(|_| Vec::with_capacity(mshr_entries))
                .collect(),
            completion_buf: Vec::with_capacity(num_sms * cfg.sm.max_ctas as usize),
            cfg,
            sms,
            mem,
            descs: Vec::new(),
            meta: Vec::new(),
            kernel_insts: Vec::new(),
            cycle: 0,
            fast_forward: fast_forward_default(),
            skipped_cycles: 0,
            ff_backoff: 0,
            ff_cooldown: 0,
            trace: None,
        }
    }

    /// Enables the ws-trace event sink with a ring of `capacity` events and
    /// aggregate stall-window records every `stall_window` cycles (`0`
    /// disables stall windows). Replaces any prior sink.
    pub fn enable_trace(&mut self, capacity: usize, stall_window: u64) {
        self.trace = Some(TraceSink::new(capacity, stall_window));
    }

    /// The active trace sink, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Detaches and returns the trace sink, disabling further recording.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// Overrides the event-horizon fast-forward gate for this GPU instance
    /// (the process-wide default comes from [`fast_forward_default`]).
    /// Useful for in-process A/B comparisons where mutating the environment
    /// would race with other threads.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Total dead cycles skipped (rather than naively ticked) so far.
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current core cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of SMs.
    #[must_use]
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// Registers a kernel for execution, returning its slot id. Kernels are
    /// not launched automatically; a controller must dispatch CTAs.
    ///
    /// No pre-flight verification runs on this path (tests deliberately
    /// build degenerate kernels); descriptors from untrusted input should go
    /// through [`Self::try_add_kernel`] instead.
    pub fn add_kernel(&mut self, desc: KernelDesc) -> KernelId {
        let id = KernelId(self.descs.len());
        self.descs.push(desc);
        self.meta.push(KernelMeta::default());
        self.kernel_insts.push(0);
        // The tick path fills in the kernel's statistics slots; make room
        // for them here.
        self.mem.reserve_kernels(self.descs.len());
        for sm in &mut self.sms {
            sm.reserve_kernels(self.descs.len());
        }
        id
    }

    /// Verified kernel registration: runs the [`crate::verify`] pre-flight
    /// (structural sanity, Eq. 1 single-CTA feasibility, program
    /// well-formedness) against this GPU's SM configuration and rejects
    /// malformed descriptors with a typed [`KernelVerifyError`] *before*
    /// they can panic mid-simulation or poison occupancy curves.
    pub fn try_add_kernel(&mut self, desc: KernelDesc) -> Result<KernelId, KernelVerifyError> {
        verify::preflight(&desc, &self.cfg.sm)?;
        Ok(self.add_kernel(desc))
    }

    /// The descriptor of kernel `k`.
    #[must_use]
    pub fn kernel_desc(&self, k: KernelId) -> &KernelDesc {
        &self.descs[k.0]
    }

    /// Number of registered kernels.
    #[must_use]
    pub fn num_kernels(&self) -> usize {
        self.descs.len()
    }

    /// Dispatch bookkeeping for kernel `k`.
    #[must_use]
    pub fn kernel_meta(&self, k: KernelId) -> KernelMeta {
        self.meta[k.0]
    }

    /// Warp instructions issued by kernel `k` so far (across all SMs).
    #[must_use]
    pub fn kernel_insts(&self, k: KernelId) -> u64 {
        self.kernel_insts[k.0]
    }

    /// CTAs of kernel `k` not yet dispatched.
    #[must_use]
    pub fn remaining_ctas(&self, k: KernelId) -> u64 {
        let m = &self.meta[k.0];
        if m.halted {
            0
        } else {
            self.descs[k.0].grid_ctas - m.dispatched_ctas
        }
    }

    /// Whether kernel `k` has work left (undispatched CTAs) and is not
    /// halted.
    #[must_use]
    pub fn kernel_has_work(&self, k: KernelId) -> bool {
        self.remaining_ctas(k) > 0
    }

    /// Total CTAs completed across all kernels. Controllers use this as a
    /// cheap change signal: launch opportunities only appear when a CTA
    /// retires or a kernel halts.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.meta.iter().map(|m| m.completed_ctas).sum()
    }

    /// Number of halted kernels.
    #[must_use]
    pub fn halted_kernels(&self) -> usize {
        self.meta.iter().filter(|m| m.halted).count()
    }

    /// All registered kernel ids, in slot order.
    #[must_use]
    pub fn kernel_ids(&self) -> Vec<KernelId> {
        (0..self.descs.len()).map(KernelId).collect()
    }

    /// Shared-memory-subsystem statistics.
    #[must_use]
    pub fn mem_stats(&self) -> &MemStats {
        self.mem.stats()
    }

    /// The memory subsystem (for bandwidth statistics).
    #[must_use]
    pub fn mem(&self) -> &MemSubsystem {
        &self.mem
    }

    /// SM `s` (read-only; controllers mutate only through GPU methods).
    #[must_use]
    pub fn sm(&self, s: usize) -> &Sm {
        &self.sms[s]
    }

    /// Iterates over all SMs.
    pub fn sms(&self) -> impl Iterator<Item = &Sm> {
        self.sms.iter()
    }

    /// Attempts to dispatch kernel `k`'s next CTA onto SM `sm_id`.
    pub fn try_launch(&mut self, k: KernelId, sm_id: usize) -> bool {
        if self.meta[k.0].halted || self.meta[k.0].dispatched_ctas >= self.descs[k.0].grid_ctas {
            return false;
        }
        let cta_index = self.meta[k.0].dispatched_ctas;
        if self.sms[sm_id].launch_cta(&self.descs[k.0], k, cta_index) {
            self.meta[k.0].dispatched_ctas += 1;
            if let Some(t) = self.trace.as_mut() {
                if cta_index == 0 {
                    t.record(TraceEvent::KernelLaunch {
                        cycle: self.cycle,
                        kernel: k.0,
                    });
                }
                t.record(TraceEvent::CtaLaunch {
                    cycle: self.cycle,
                    sm: sm_id,
                    kernel: k.0,
                    cta: cta_index,
                });
            }
            true
        } else {
            false
        }
    }

    /// Whether a CTA of kernel `k` would fit on SM `sm_id` right now.
    #[must_use]
    pub fn can_launch(&self, k: KernelId, sm_id: usize) -> bool {
        !self.meta[k.0].halted
            && self.meta[k.0].dispatched_ctas < self.descs[k.0].grid_ctas
            && self.sms[sm_id].can_launch(&self.descs[k.0], k)
    }

    /// Sets (or clears) kernel `k`'s partition window on SM `sm_id`.
    pub fn set_window(&mut self, sm_id: usize, k: KernelId, window: Option<PartitionWindow>) {
        self.sms[sm_id].set_window(k.0, window);
    }

    /// Halts kernel `k`: evicts its CTAs from every SM and releases all its
    /// resources (the paper's equal-work methodology: a benchmark reaching
    /// its instruction target is halted and its resources freed).
    pub fn halt_kernel(&mut self, k: KernelId) {
        if self.meta[k.0].halted {
            return;
        }
        self.meta[k.0].halted = true;
        for sm in &mut self.sms {
            sm.evict_kernel(k.0, &self.descs[k.0]);
        }
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::KernelHalt {
                cycle: self.cycle,
                kernel: k.0,
                insts: self.kernel_insts[k.0],
            });
        }
    }

    /// Advances the whole GPU by one core cycle.
    pub fn tick(&mut self) {
        let now = self.cycle;
        for sm in &mut self.sms {
            sm.tick(now, &mut self.mem, &self.descs, &mut self.kernel_insts);
        }
        self.resp_buf.clear();
        self.mem.tick(now, &mut self.resp_buf);
        // Group this cycle's fills by destination SM. Per-SM arrival order
        // is preserved and SMs are state-independent, so batching is
        // byte-identical to applying each response as it was drained; trace
        // events keep the original (interleaved) response order.
        for i in 0..self.resp_buf.len() {
            let r = self.resp_buf[i];
            self.fill_bufs[r.sm_id].push(r.line);
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent::MshrFill {
                    cycle: now,
                    sm: r.sm_id,
                    line: r.line,
                });
            }
        }
        if !self.resp_buf.is_empty() {
            for sm_id in 0..self.sms.len() {
                if !self.fill_bufs[sm_id].is_empty() {
                    self.sms[sm_id].on_fill_batch(&self.fill_bufs[sm_id], now);
                    self.fill_bufs[sm_id].clear();
                }
            }
        }
        self.completion_buf.clear();
        for sm in &mut self.sms {
            sm.drain_completions_into(&mut self.completion_buf);
        }
        for c in &self.completion_buf {
            self.meta[c.kernel.0].completed_ctas += 1;
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent::CtaComplete {
                    cycle: now,
                    kernel: c.kernel.0,
                    cta: c.cta_index,
                });
            }
        }
        if self.trace.as_ref().is_some_and(|t| t.stall_window_due(now)) {
            let mut agg = StallBreakdown::default();
            for sm in &self.sms {
                agg.accumulate(&sm.stats().stalls);
            }
            if let Some(t) = self.trace.as_mut() {
                t.record_stall_window(now, agg);
            }
        }
        if crate::invariant::enabled() {
            for m in &self.meta {
                assert!(
                    m.completed_ctas <= m.dispatched_ctas,
                    "kernel accounting corruption: {} CTAs completed but only \
                     {} were ever dispatched",
                    m.completed_ctas,
                    m.dispatched_ctas
                );
            }
        }
        self.cycle = self
            .cycle
            .checked_add(1)
            // Documented panic: a u64 cycle counter wrapping means the
            // simulation ran ~5.8e11 years; overflow is corruption.
            // xtask-allow: no-unwrap
            .expect("cycle counter overflow");
    }

    /// Jumps the clock over a provably dead span. Every SM and the memory
    /// subsystem report the earliest future cycle at which they can change
    /// state; if the global minimum (clamped to `limit`, exclusive) lies
    /// beyond the next tick, the skipped cycles' bookkeeping is replayed in
    /// bulk and `cycle` jumps straight there. Returns the number of cycles
    /// skipped (0 when fast-forwarding is disabled or the next tick can do
    /// work). Call *after* [`Self::tick`] and after any external
    /// stop-condition checks, so window edges and controller intervention
    /// points — which must bound `limit` — stay exact.
    pub fn fast_forward(&mut self, limit: u64) -> u64 {
        if !self.fast_forward || self.cycle >= limit {
            return 0;
        }
        if self.ff_cooldown > 0 {
            self.ff_cooldown -= 1;
            return 0;
        }
        let from = self.cycle;
        let mut horizon = self.mem.next_event(from);
        if horizon > from {
            for sm in &mut self.sms {
                horizon = horizon.min(sm.next_event(from));
                if horizon <= from {
                    break;
                }
            }
        }
        let to = horizon.min(limit);
        if to <= from {
            self.ff_backoff = (self.ff_backoff * 2 + 1).min(FF_BACKOFF_CAP);
            self.ff_cooldown = self.ff_backoff;
            return 0;
        }
        self.ff_backoff = 0;
        for sm in &mut self.sms {
            sm.account_skip(from, to);
        }
        self.mem.account_skip(from, to);
        self.cycle = to;
        self.skipped_cycles += to - from;
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::FastForward { from, to });
        }
        to - from
    }

    /// One tick followed by a fast-forward bounded by `limit`: the
    /// event-horizon equivalent of a naive tick loop iteration. Returns the
    /// number of dead cycles skipped after the tick.
    pub fn tick_fast_forward(&mut self, limit: u64) -> u64 {
        self.tick();
        self.fast_forward(limit)
    }

    /// Runs `cycles` cycles with no controller intervention, fast-forwarding
    /// over dead spans when enabled (statistics are identical either way).
    pub fn run(&mut self, cycles: u64) {
        let end = self
            .cycle
            .checked_add(cycles)
            // Same corruption argument as the tick counter overflow below.
            // xtask-allow: no-unwrap
            .expect("cycle budget overflow");
        while self.cycle < end {
            self.tick_fast_forward(end);
        }
    }

    /// Aggregate IPC across all SMs (warp instructions per core cycle).
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        let insts: u64 = self.kernel_insts.iter().sum();
        insts as f64 / self.cycle as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::program::ProgramSpec;

    fn kernel(name: &str, gload: f64, seed: u64) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            grid_ctas: 256,
            threads_per_cta: 128,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            program: ProgramSpec {
                body_len: 48,
                gload_frac: gload,
                dep_distance: 6,
                seed,
                ..ProgramSpec::default()
            }
            .generate()
            .expect("valid spec"),
            iterations: 8,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed,
        }
    }

    fn fill_all_sms(gpu: &mut Gpu, k: KernelId) {
        for s in 0..gpu.num_sms() {
            while gpu.try_launch(k, s) {}
        }
    }

    #[test]
    fn single_kernel_progresses_on_all_sms() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let k = gpu.add_kernel(kernel("a", 0.05, 1));
        fill_all_sms(&mut gpu, k);
        gpu.run(2000);
        assert!(gpu.kernel_insts(k) > 10_000);
        for sm in gpu.sms() {
            assert!(sm.stats().insts_issued() > 0, "every SM should work");
        }
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run_once = || {
            let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
            let k = gpu.add_kernel(kernel("a", 0.2, 7));
            fill_all_sms(&mut gpu, k);
            gpu.run(3000);
            (gpu.kernel_insts(k), gpu.mem_stats().total.l2_accesses)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn two_kernels_share_an_sm() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let a = gpu.add_kernel(kernel("a", 0.05, 1));
        let b = gpu.add_kernel(kernel("b", 0.3, 2));
        // Two CTAs of each on SM 0.
        assert!(gpu.try_launch(a, 0));
        assert!(gpu.try_launch(b, 0));
        assert!(gpu.try_launch(a, 0));
        assert!(gpu.try_launch(b, 0));
        gpu.run(4000);
        assert!(gpu.kernel_insts(a) > 0);
        assert!(gpu.kernel_insts(b) > 0);
        let st = gpu.sm(0).stats();
        assert!(st.kernel(0).insts_issued > 0 && st.kernel(1).insts_issued > 0);
    }

    #[test]
    fn halt_releases_resources_and_stops_progress() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let k = gpu.add_kernel(kernel("a", 0.1, 3));
        fill_all_sms(&mut gpu, k);
        gpu.run(500);
        let before = gpu.kernel_insts(k);
        assert!(before > 0);
        gpu.halt_kernel(k);
        assert_eq!(gpu.remaining_ctas(k), 0);
        assert!(!gpu.kernel_has_work(k));
        gpu.run(500);
        assert_eq!(gpu.kernel_insts(k), before, "no progress after halt");
        for sm in gpu.sms() {
            assert_eq!(sm.resident_ctas(), 0);
        }
    }

    #[test]
    fn completed_ctas_are_counted_and_refillable() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let mut desc = kernel("tiny", 0.0, 4);
        desc.iterations = 1;
        desc.grid_ctas = 4;
        let k = gpu.add_kernel(desc);
        assert!(gpu.try_launch(k, 0));
        assert!(gpu.try_launch(k, 0));
        let mut launched = 2;
        for _ in 0..5000 {
            gpu.tick();
            while launched < 4 && gpu.try_launch(k, 0) {
                launched += 1;
            }
            if gpu.kernel_meta(k).completed_ctas == 4 {
                break;
            }
        }
        assert_eq!(gpu.kernel_meta(k).completed_ctas, 4);
        assert_eq!(gpu.remaining_ctas(k), 0);
    }

    #[test]
    fn try_add_kernel_rejects_malformed_and_accepts_valid() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        // A CTA footprint no SM can hold: zero occupancy is a structured
        // error naming the Eq. 1 rule, not a mid-simulation panic.
        let mut bad = kernel("fat", 0.1, 6);
        bad.threads_per_cta = 4096;
        let err = gpu.try_add_kernel(bad).unwrap_err();
        assert_eq!(err.rule(), "eq1-infeasible");
        assert_eq!(gpu.num_kernels(), 0, "rejected kernel takes no slot");
        // A well-formed kernel is registered exactly as via add_kernel.
        let k = gpu.try_add_kernel(kernel("ok", 0.1, 6)).expect("valid");
        assert_eq!(k, KernelId(0));
        assert!(gpu.try_launch(k, 0));
    }

    /// Everything the fast-forward path must reproduce bit-for-bit,
    /// rendered through Debug so every counter is compared.
    fn full_state(gpu: &Gpu) -> (u64, Vec<u64>, String, String) {
        (
            gpu.cycle(),
            gpu.kernel_ids()
                .into_iter()
                .map(|k| gpu.kernel_insts(k))
                .collect(),
            format!("{:?}", gpu.sms().map(Sm::stats).collect::<Vec<_>>()),
            format!("{:?}", gpu.mem_stats()),
        )
    }

    #[test]
    fn fast_forward_matches_naive_tick_loop() {
        let run_with = |ff: bool| {
            let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
            gpu.set_fast_forward(ff);
            let a = gpu.add_kernel(kernel("a", 0.4, 9));
            let b = gpu.add_kernel(kernel("b", 0.05, 11));
            // Sparse residency on a few SMs: plenty of dead cycles.
            assert!(gpu.try_launch(a, 0));
            assert!(gpu.try_launch(a, 1));
            assert!(gpu.try_launch(b, 2));
            gpu.run(20_000);
            (full_state(&gpu), gpu.skipped_cycles())
        };
        let (ff_state, skipped) = run_with(true);
        let (naive_state, zero) = run_with(false);
        assert_eq!(ff_state, naive_state, "fast-forward must be invisible");
        assert_eq!(zero, 0, "disabled mode must not skip");
        assert!(skipped > 0, "memory-bound co-run must have dead cycles");
    }

    #[test]
    fn fast_forward_respects_the_run_boundary() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.set_fast_forward(true);
        let k = gpu.add_kernel(kernel("a", 0.5, 13));
        assert!(gpu.try_launch(k, 0));
        for _ in 0..7 {
            gpu.run(311);
            assert_eq!(gpu.cycle() % 311, 0, "run() may never overshoot");
        }
    }

    #[test]
    fn fast_forward_on_an_idle_gpu_jumps_to_the_limit() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.set_fast_forward(true);
        gpu.run(100_000);
        assert_eq!(gpu.cycle(), 100_000);
        assert!(
            gpu.skipped_cycles() > 99_000,
            "an empty GPU should skip nearly everything, skipped {}",
            gpu.skipped_cycles()
        );
        // Stats must still read as 100k idle cycles.
        assert_eq!(gpu.sm(0).stats().cycles, 100_000);
        assert_eq!(gpu.sm(0).stats().stalls.idle, 200_000, "2 schedulers");
    }

    #[test]
    fn tracing_records_events_without_perturbing_state() {
        use crate::trace::TraceEvent;
        let run = |trace: bool| {
            let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
            let k = gpu.add_kernel(kernel("a", 0.3, 21));
            if trace {
                gpu.enable_trace(4096, 500);
            }
            assert!(gpu.try_launch(k, 0));
            gpu.run(3000);
            gpu.halt_kernel(k);
            (full_state(&gpu), gpu.take_trace())
        };
        let (traced_state, sink) = run(true);
        let (plain_state, no_sink) = run(false);
        assert_eq!(traced_state, plain_state, "tracing must be invisible");
        assert!(no_sink.is_none());
        let sink = sink.expect("tracing was enabled");
        let has = |f: fn(&TraceEvent) -> bool| sink.events().any(f);
        assert!(has(|e| matches!(e, TraceEvent::KernelLaunch { .. })));
        assert!(has(|e| matches!(e, TraceEvent::CtaLaunch { .. })));
        assert!(has(|e| matches!(e, TraceEvent::MshrFill { .. })));
        assert!(has(|e| matches!(e, TraceEvent::StallWindow { .. })));
        assert!(has(
            |e| matches!(e, TraceEvent::KernelHalt { insts, .. } if *insts > 0)
        ));
    }

    #[test]
    fn dispatch_respects_grid_size() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let mut desc = kernel("small", 0.0, 5);
        desc.grid_ctas = 3;
        let k = gpu.add_kernel(desc);
        assert!(gpu.try_launch(k, 0));
        assert!(gpu.try_launch(k, 1));
        assert!(gpu.try_launch(k, 2));
        assert!(!gpu.try_launch(k, 3), "grid exhausted");
        assert!(!gpu.can_launch(k, 3));
    }
}
