//! Experiment runner implementing the paper's equal-work methodology
//! (Sec. V-A): each benchmark's instruction target is recorded from an
//! isolation run of a fixed cycle budget; in a multiprogrammed run each
//! kernel halts (and releases its resources) upon reaching its target, and
//! the run ends when every kernel has finished.
//!
//! Every run is described by a [`SimJob`] — a plain-data value (hardware
//! config + kernels + policy + warm-up + stop condition) executed by the
//! single [`execute`] entry point. Because a job is pure data and
//! `execute` is a pure function of it, batches of jobs run on the
//! [`ws_exec::Pool`] (`pool.run(&jobs, execute)`) with byte-identical
//! results at any worker count. The historical entry points ([`run_isolation`],
//! [`run_with_cta_cap`], [`run_corun`]) are thin wrappers over `execute`.

use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelId, SchedulerKind, StallBreakdown, TraceEvent};

use crate::audit::DecisionAudit;
use crate::policy::{make_controller, Decision, PolicyKind};

/// Global run parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Hardware configuration.
    pub gpu: GpuConfig,
    /// Warp scheduler.
    pub scheduler: SchedulerKind,
    /// Isolation-run cycle budget that defines each benchmark's
    /// instruction target (the paper uses 2 M; the default here is smaller
    /// so the full evaluation regenerates quickly — shapes are stable).
    pub isolation_cycles: u64,
    /// Multiprogrammed runs are aborted at
    /// `isolation_cycles * max_cycle_factor` (safety net; a well-behaved
    /// policy finishes far earlier).
    pub max_cycle_factor: u64,
    /// Event-horizon fast-forward override: `None` follows the process
    /// default ([`gpu_sim::fast_forward_default`], i.e. the
    /// `WS_SIM_FASTFORWARD` env var), `Some(on)` forces it for this job.
    /// Either way the outcome statistics are byte-identical; only
    /// wall-clock time changes.
    pub fast_forward: Option<bool>,
    /// ws-trace capture: `Some` enables the simulator's ring-buffered event
    /// sink and (for the Warped-Slicer policy) the decision audit, both
    /// returned on the [`SimOutcome`]. `None` (the default) keeps the run
    /// allocation-free on the tick path. Statistics are identical either
    /// way; only the outcome's `trace`/`audit` fields change.
    pub trace: Option<TraceOptions>,
}

/// Tunables for ws-trace capture (see [`RunConfig::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Ring-buffer capacity in events; when full, the oldest events are
    /// overwritten (the sink counts the drops).
    pub ring_capacity: usize,
    /// Emit an aggregated stall-breakdown event every this many cycles
    /// (0 disables stall windows).
    pub stall_window: u64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            ring_capacity: 1 << 16,
            stall_window: 5_000,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::isca_baseline(),
            scheduler: SchedulerKind::GreedyThenOldest,
            isolation_cycles: 100_000,
            max_cycle_factor: 30,
            fast_forward: None,
            trace: None,
        }
    }
}

/// Hardware-utilization summary over a run (Fig. 7a inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilizationStats {
    /// ALU pipeline busy fraction.
    pub alu: f64,
    /// SFU pipeline busy fraction.
    pub sfu: f64,
    /// LSU pipeline busy fraction.
    pub lsu: f64,
    /// Time-averaged register-file occupancy.
    pub reg: f64,
    /// Time-averaged shared-memory occupancy.
    pub shmem: f64,
    /// Time-averaged thread occupancy.
    pub threads: f64,
}

/// Cache behaviour summary (Fig. 7b inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// L1 accesses across all SMs.
    pub l1_accesses: u64,
    /// L1 misses across all SMs.
    pub l1_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
}

/// Everything measured over one simulation run.
#[derive(Debug, Clone, Default)]
pub struct AggregateStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Scheduler-cycles (cycles × SMs × schedulers).
    pub sched_cycles: u64,
    /// Warp instructions issued, total.
    pub insts: u64,
    /// Warp instructions issued per kernel slot.
    pub insts_per_kernel: Vec<u64>,
    /// Stall breakdown summed over all schedulers.
    pub stalls: StallBreakdown,
    /// Utilization summary.
    pub util: UtilizationStats,
    /// Cache summary (all kernels).
    pub cache: CacheStats,
    /// Per-kernel L2 MPKI (L2 misses per kilo warp instructions).
    pub l2_mpki_per_kernel: Vec<f64>,
    /// Per-kernel L1 miss rate.
    pub l1_miss_rate_per_kernel: Vec<f64>,
    /// DRAM transactions serviced (reads + writes).
    pub dram_transactions: u64,
    /// Fraction of DRAM data-bus cycles busy.
    pub dram_busy: f64,
    /// Fraction of scheduler-cycles lost to long memory latency.
    pub phi_mem: f64,
}

/// Collects [`AggregateStats`] from a finished (or in-flight) GPU.
#[must_use]
pub fn collect_stats(gpu: &Gpu) -> AggregateStats {
    let cfg = gpu.config();
    let num_sched = u64::from(cfg.sm.num_schedulers);
    let cycles = gpu.cycle();
    let num_kernels = gpu.num_kernels();
    let mut stalls = StallBreakdown::default();
    let mut alu = 0u64;
    let mut sfu = 0u64;
    let mut lsu = 0u64;
    let mut reg = 0.0;
    let mut shm = 0.0;
    let mut thr = 0.0;
    let mut l1_acc = 0u64;
    let mut l1_miss = 0u64;
    let mut l1_acc_k = vec![0u64; num_kernels];
    let mut l1_miss_k = vec![0u64; num_kernels];
    for sm in gpu.sms() {
        let st = sm.stats();
        stalls = StallBreakdown {
            mem: stalls.mem + st.stalls.mem,
            raw: stalls.raw + st.stalls.raw,
            exec: stalls.exec + st.stalls.exec,
            ibuffer: stalls.ibuffer + st.stalls.ibuffer,
            barrier: stalls.barrier + st.stalls.barrier,
            idle: stalls.idle + st.stalls.idle,
        };
        alu += st.alu_busy;
        sfu += st.sfu_busy;
        lsu += st.lsu_busy;
        reg += st.avg_reg_occupancy(cfg.sm.max_registers);
        shm += st.avg_shmem_occupancy(cfg.sm.shared_mem_bytes);
        thr += st.avg_thread_occupancy(cfg.sm.max_threads);
        for k in 0..num_kernels {
            let ks = st.kernel(k);
            l1_acc += ks.l1_accesses;
            l1_miss += ks.l1_misses;
            l1_acc_k[k] += ks.l1_accesses;
            l1_miss_k[k] += ks.l1_misses;
        }
    }
    let n_sms = gpu.num_sms() as u64;
    let n_sms_f = gpu.num_sms() as f64;
    let mem = gpu.mem_stats();
    let insts_per_kernel: Vec<u64> = (0..num_kernels)
        .map(|k| gpu.kernel_insts(KernelId(k)))
        .collect();
    let insts: u64 = insts_per_kernel.iter().sum();
    let sched_cycles = cycles * n_sms * num_sched;
    let denom_units = (cycles * n_sms * num_sched).max(1) as f64;
    AggregateStats {
        cycles,
        sched_cycles,
        insts,
        stalls,
        util: UtilizationStats {
            alu: alu as f64 / denom_units,
            sfu: sfu as f64 / denom_units,
            lsu: lsu as f64 / denom_units,
            reg: reg / n_sms_f,
            shmem: shm / n_sms_f,
            threads: thr / n_sms_f,
        },
        cache: CacheStats {
            l1_accesses: l1_acc,
            l1_misses: l1_miss,
            l2_accesses: mem.total.l2_accesses,
            l2_misses: mem.total.l2_misses,
        },
        l2_mpki_per_kernel: (0..num_kernels)
            .map(|k| {
                let ki = insts_per_kernel[k];
                if ki == 0 {
                    0.0
                } else {
                    mem.kernel(KernelId(k)).l2_misses as f64 * 1000.0 / ki as f64
                }
            })
            .collect(),
        l1_miss_rate_per_kernel: (0..num_kernels)
            .map(|k| {
                if l1_acc_k[k] == 0 {
                    0.0
                } else {
                    l1_miss_k[k] as f64 / l1_acc_k[k] as f64
                }
            })
            .collect(),
        insts_per_kernel,
        dram_transactions: gpu.mem().dram_serviced(),
        dram_busy: gpu.mem().dram_busy_fraction(cycles.max(1)),
        phi_mem: stalls.mem as f64 / sched_cycles.max(1) as f64,
    }
}

/// Result of an isolation run.
#[derive(Debug, Clone)]
pub struct IsolationResult {
    /// Warp instructions issued in the budget — the benchmark's equal-work
    /// target.
    pub target_insts: u64,
    /// Cycles the kernel actually needed to issue `target_insts` alone: the
    /// cycle of its last instruction issue, not the isolation budget. The
    /// two differ when the kernel exhausts its grid (or stalls out) before
    /// the budget; metrics must normalize by *this* value, one per kernel,
    /// never by the shared budget (see [`crate::metrics`]). Always >= 1.
    pub isolated_cycles: u64,
    /// GPU-wide IPC over the budget.
    pub ipc: f64,
    /// Full statistics.
    pub stats: AggregateStats,
}

/// When a simulation job stops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopCondition {
    /// Run exactly this many cycles after the warm-up.
    Cycles(u64),
    /// Run until every kernel reaches its equal-work instruction target
    /// (halting each as it finishes) or the safety cap
    /// `isolation_cycles * max_cycle_factor` is hit.
    Targets(Vec<u64>),
}

/// A complete, self-contained description of one simulation run: hardware
/// configuration, kernels, dispatch policy, warm-up and stop condition.
///
/// Jobs are plain data (`Clone + Send`), so a batch of them can be executed
/// on any thread in any order; [`execute`] is a pure function of the job.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Kernels dispatched at cycle 0, in slot order.
    pub kernels: Vec<KernelDesc>,
    /// CTA-dispatch policy controlling the run.
    pub policy: PolicyKind,
    /// Run parameters (hardware config, scheduler, budgets).
    pub cfg: RunConfig,
    /// Cycles to run before the measurement window opens.
    pub warmup: u64,
    /// When the run ends.
    pub stop: StopCondition,
}

impl SimJob {
    /// The isolation job behind [`run_isolation`]: `desc` alone under
    /// Left-Over for `cfg.isolation_cycles`.
    #[must_use]
    pub fn isolation(desc: &KernelDesc, cfg: &RunConfig) -> Self {
        Self {
            kernels: vec![desc.clone()],
            policy: PolicyKind::LeftOver,
            cfg: cfg.clone(),
            warmup: 0,
            stop: StopCondition::Cycles(cfg.isolation_cycles),
        }
    }

    /// The CTA-capped sampling job behind [`run_with_cta_cap`]: `desc`
    /// alone with at most `cap` CTAs per SM, warmed up for a quarter of the
    /// window and measured for `cycles`.
    #[must_use]
    pub fn cta_cap(desc: &KernelDesc, cap: u32, cycles: u64, cfg: &RunConfig) -> Self {
        Self {
            kernels: vec![desc.clone()],
            policy: PolicyKind::Quota(vec![cap]),
            cfg: cfg.clone(),
            warmup: cycles / 4,
            stop: StopCondition::Cycles(cycles),
        }
    }

    /// The multiprogrammed equal-work job behind [`run_corun`].
    ///
    /// # Panics
    ///
    /// Panics if `descs` and `targets` lengths differ or are empty.
    #[must_use]
    pub fn corun(
        descs: &[&KernelDesc],
        targets: &[u64],
        policy: &PolicyKind,
        cfg: &RunConfig,
    ) -> Self {
        assert!(!descs.is_empty(), "at least one kernel required");
        assert_eq!(descs.len(), targets.len(), "one target per kernel");
        Self {
            kernels: descs.iter().map(|d| (*d).clone()).collect(),
            policy: policy.clone(),
            cfg: cfg.clone(),
            warmup: 0,
            stop: StopCondition::Targets(targets.to_vec()),
        }
    }

    /// The workload label (kernel names joined by `_`, e.g. `"IMG_NN"`).
    #[must_use]
    pub fn label(&self) -> String {
        self.kernels
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
            .join("_")
    }
}

/// Everything [`execute`] measures over one [`SimJob`].
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-kernel instructions issued when the measurement window opened
    /// (end of warm-up).
    pub start_insts: Vec<u64>,
    /// Per-kernel instructions issued at run end.
    pub end_insts: Vec<u64>,
    /// Cycles inside the measurement window (excludes warm-up).
    pub measured_cycles: u64,
    /// Total cycles simulated (includes warm-up).
    pub total_cycles: u64,
    /// Cycle at which each kernel reached its target (`Targets` jobs only;
    /// `None` = not reached).
    pub finish_cycle: Vec<Option<u64>>,
    /// Whether a `Targets` job hit the safety cap.
    pub timed_out: bool,
    /// Full statistics at run end.
    pub stats: AggregateStats,
    /// The partition decision, for dynamic policies.
    pub decision: Option<Decision>,
    /// Simulated cycles the event-horizon fast-forward path skipped
    /// (diagnostic only; 0 when fast-forward is disabled). Deliberately
    /// not part of [`AggregateStats`] so outcome comparisons across
    /// fast-forward modes stay byte-identical.
    pub ff_skipped_cycles: u64,
    /// Cycle at which each kernel last issued an instruction (0 if it never
    /// did). For an isolation job this is the kernel's true isolated
    /// execution time for its target.
    pub last_progress_cycle: Vec<u64>,
    /// Captured simulator events, oldest first ([`RunConfig::trace`] jobs
    /// only). Unlike the statistics, the event *stream* is only comparable
    /// between runs with the same fast-forward setting.
    pub trace: Option<Vec<TraceEvent>>,
    /// The policy's decision audit ([`RunConfig::trace`] jobs under the
    /// Warped-Slicer policy, or any policy configured with
    /// [`WarpedSlicerConfig::audit`](crate::policy::WarpedSlicerConfig)).
    pub audit: Option<DecisionAudit>,
}

impl SimOutcome {
    /// GPU-wide IPC over the measurement window, summed across kernels —
    /// the Fig. 3 sampling metric.
    #[must_use]
    pub fn measured_ipc(&self) -> f64 {
        let issued: u64 = self
            .end_insts
            .iter()
            .zip(&self.start_insts)
            .map(|(e, s)| e - s)
            .sum();
        issued as f64 / self.measured_cycles.max(1) as f64
    }

    /// Interprets the outcome of a [`SimJob::isolation`] job.
    #[must_use]
    pub fn into_isolation(self) -> IsolationResult {
        IsolationResult {
            target_insts: self.end_insts.iter().sum(),
            isolated_cycles: self
                .last_progress_cycle
                .first()
                .copied()
                .unwrap_or(self.total_cycles)
                .max(1),
            ipc: self.stats.insts as f64 / self.measured_cycles.max(1) as f64,
            stats: self.stats,
        }
    }

    /// Interprets the outcome of a [`SimJob::corun`] job, labelling it from
    /// the job it came from.
    ///
    /// # Panics
    ///
    /// Panics if `job` is not a `Targets` job.
    #[must_use]
    pub fn into_corun(self, job: &SimJob) -> CorunResult {
        let StopCondition::Targets(targets) = &job.stop else {
            panic!("into_corun requires a Targets job");
        };
        CorunResult {
            label: job.label(),
            policy: job.policy.to_string(),
            targets: targets.clone(),
            finish_cycle: self.finish_cycle,
            total_cycles: self.total_cycles,
            combined_ipc: targets.iter().sum::<u64>() as f64 / self.total_cycles.max(1) as f64,
            timed_out: self.timed_out,
            stats: self.stats,
            decision: self.decision,
        }
    }
}

/// One fast-forward attempt after a `gpu.tick()`.
///
/// Skipping an `on_cycle` call is only sound if that call would have been a
/// no-op, so the skip is gated on the controller-visible change signature
/// — `(completed CTAs, halted kernels)`, the same key
/// [`crate::policy`]'s `ChangeTracker` watches — being unchanged since the
/// previous iteration, and the jump is clamped to both the stop-condition
/// `boundary` and the controller's own
/// [`Controller::next_intervention`](crate::policy::Controller::next_intervention)
/// timer. See `DESIGN.md` §9 for the full contract.
fn fast_forward_step(
    gpu: &mut Gpu,
    controller: &dyn crate::policy::Controller,
    last_sig: &mut (u64, usize),
    boundary: u64,
) {
    let sig = (gpu.total_completed(), gpu.halted_kernels());
    if sig == *last_sig {
        let limit = controller
            .next_intervention()
            .map_or(boundary, |iv| iv.min(boundary));
        let _ = gpu.fast_forward(limit);
    }
    *last_sig = sig;
}

/// Updates each kernel's last-progress cycle after a tick: any kernel whose
/// instruction count moved issued at the just-ticked cycle. Instruction
/// counts are frozen inside fast-forwarded spans, so this is exact under
/// fast-forward too.
fn note_progress(gpu: &Gpu, ids: &[KernelId], last_insts: &mut [u64], last_cycle: &mut [u64]) {
    for (i, &k) in ids.iter().enumerate() {
        let insts = gpu.kernel_insts(k);
        if let (Some(prev), Some(cell)) = (last_insts.get_mut(i), last_cycle.get_mut(i)) {
            if insts > *prev {
                *prev = insts;
                *cell = gpu.cycle();
            }
        }
    }
}

/// Executes one [`SimJob`] to completion. Pure in the job: the same job
/// always produces the same outcome, on any thread — and, by the
/// event-horizon contract, regardless of whether fast-forward is on.
#[must_use]
pub fn execute(job: &SimJob) -> SimOutcome {
    let mut gpu = Gpu::new(job.cfg.gpu.clone(), job.cfg.scheduler);
    if let Some(on) = job.cfg.fast_forward {
        gpu.set_fast_forward(on);
    }
    if let Some(t) = &job.cfg.trace {
        gpu.enable_trace(t.ring_capacity, t.stall_window);
    }
    let ids: Vec<KernelId> = job
        .kernels
        .iter()
        .map(|d| gpu.add_kernel(d.clone()))
        .collect();
    // A traced Warped-Slicer run implies the decision audit: recording only
    // happens at decision points, so the simulated run is unchanged.
    let policy = match (&job.cfg.trace, &job.policy) {
        (Some(_), PolicyKind::WarpedSlicer(ws)) if !ws.audit => {
            PolicyKind::WarpedSlicer(crate::policy::WarpedSlicerConfig {
                audit: true,
                ..ws.clone()
            })
        }
        _ => job.policy.clone(),
    };
    let mut controller = make_controller(&policy);
    let mut sig = (gpu.total_completed(), gpu.halted_kernels());
    let mut last_insts = vec![0u64; ids.len()];
    let mut last_progress = vec![0u64; ids.len()];
    while gpu.cycle() < job.warmup {
        controller.on_cycle(&mut gpu);
        gpu.tick();
        note_progress(&gpu, &ids, &mut last_insts, &mut last_progress);
        fast_forward_step(&mut gpu, controller.as_ref(), &mut sig, job.warmup);
    }
    let start_insts: Vec<u64> = ids.iter().map(|&k| gpu.kernel_insts(k)).collect();
    let warm_end = gpu.cycle();
    let mut finish: Vec<Option<u64>> = vec![None; ids.len()];
    let mut timed_out = false;
    match &job.stop {
        StopCondition::Cycles(cycles) => {
            let end = warm_end + cycles;
            while gpu.cycle() < end {
                controller.on_cycle(&mut gpu);
                gpu.tick();
                note_progress(&gpu, &ids, &mut last_insts, &mut last_progress);
                fast_forward_step(&mut gpu, controller.as_ref(), &mut sig, end);
            }
        }
        StopCondition::Targets(targets) => {
            let max_cycles = job.cfg.isolation_cycles * job.cfg.max_cycle_factor;
            let mut done = 0usize;
            while done < ids.len() && gpu.cycle() < max_cycles {
                controller.on_cycle(&mut gpu);
                gpu.tick();
                note_progress(&gpu, &ids, &mut last_insts, &mut last_progress);
                for (i, &k) in ids.iter().enumerate() {
                    if finish[i].is_none() && gpu.kernel_insts(k) >= targets[i] {
                        finish[i] = Some(gpu.cycle());
                        gpu.halt_kernel(k);
                        done += 1;
                    }
                }
                // Safe after the target checks: instruction counts are
                // frozen inside a dead span, so no target can be crossed
                // mid-skip.
                fast_forward_step(&mut gpu, controller.as_ref(), &mut sig, max_cycles);
            }
            timed_out = finish.iter().any(Option::is_none);
        }
    }
    SimOutcome {
        end_insts: ids.iter().map(|&k| gpu.kernel_insts(k)).collect(),
        start_insts,
        measured_cycles: gpu.cycle() - warm_end,
        total_cycles: gpu.cycle(),
        finish_cycle: finish,
        timed_out,
        stats: collect_stats(&gpu),
        decision: controller.decision().cloned(),
        ff_skipped_cycles: gpu.skipped_cycles(),
        last_progress_cycle: last_progress,
        trace: gpu.take_trace().map(|t| t.events().copied().collect()),
        audit: controller.audit().cloned(),
    }
}

/// Runs `desc` alone (Left-Over single-kernel dispatch) for
/// `cfg.isolation_cycles` and records its instruction target and solo
/// statistics.
#[must_use]
pub fn run_isolation(desc: &KernelDesc, cfg: &RunConfig) -> IsolationResult {
    execute(&SimJob::isolation(desc, cfg)).into_isolation()
}

/// Runs `desc` with at most `cap` CTAs per SM for `cycles` cycles and
/// returns the GPU-wide IPC — the primitive behind Fig. 3a/3b and the
/// Oracle's per-point measurements.
#[must_use]
pub fn run_with_cta_cap(desc: &KernelDesc, cap: u32, cycles: u64, cfg: &RunConfig) -> f64 {
    execute(&SimJob::cta_cap(desc, cap, cycles, cfg)).measured_ipc()
}

/// Result of a multiprogrammed run.
#[derive(Debug, Clone)]
pub struct CorunResult {
    /// Workload label (e.g. `"IMG_NN"`).
    pub label: String,
    /// Policy that produced this result.
    pub policy: String,
    /// Per-kernel instruction targets.
    pub targets: Vec<u64>,
    /// Cycle at which each kernel reached its target (`None` = timed out).
    pub finish_cycle: Vec<Option<u64>>,
    /// Cycles until every kernel finished (or the safety cap).
    pub total_cycles: u64,
    /// `Σ targets / total_cycles` — the paper's combined-IPC metric.
    pub combined_ipc: f64,
    /// Whether the safety cap was hit.
    pub timed_out: bool,
    /// Full statistics at run end.
    pub stats: AggregateStats,
    /// The partition decision, for dynamic policies.
    pub decision: Option<Decision>,
}

/// Runs the kernels of `descs` concurrently under `policy` with the
/// equal-work targets `targets` (from [`run_isolation`]).
///
/// # Panics
///
/// Panics if `descs` and `targets` lengths differ or are empty.
#[must_use]
pub fn run_corun(
    descs: &[&KernelDesc],
    targets: &[u64],
    policy: &PolicyKind,
    cfg: &RunConfig,
) -> CorunResult {
    let job = SimJob::corun(descs, targets, policy, cfg);
    execute(&job).into_corun(&job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::by_abbrev;

    fn quick_cfg() -> RunConfig {
        RunConfig {
            isolation_cycles: 12_000,
            ..RunConfig::default()
        }
    }

    #[test]
    fn isolation_run_measures_a_target() {
        let cfg = quick_cfg();
        let r = run_isolation(&by_abbrev("IMG").unwrap().desc, &cfg);
        assert!(r.target_insts > 10_000);
        assert!(r.ipc > 0.5);
        assert!(
            r.stats.util.alu > 0.3,
            "IMG is ALU-heavy: {:?}",
            r.stats.util
        );
    }

    #[test]
    fn corun_finishes_both_kernels() {
        let cfg = quick_cfg();
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("BLK").unwrap().desc;
        let ta = run_isolation(&a, &cfg).target_insts;
        let tb = run_isolation(&b, &cfg).target_insts;
        let r = run_corun(&[&a, &b], &[ta, tb], &PolicyKind::Even, &cfg);
        assert!(!r.timed_out, "{r:?}");
        assert!(r.finish_cycle.iter().all(Option::is_some));
        assert!(
            r.total_cycles >= cfg.isolation_cycles,
            "co-run can't beat solo"
        );
        assert!(r.combined_ipc > 0.0);
    }

    #[test]
    fn left_over_approximates_sequential_execution() {
        let cfg = quick_cfg();
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("MM").unwrap().desc;
        let ta = run_isolation(&a, &cfg).target_insts;
        let tb = run_isolation(&b, &cfg).target_insts;
        let r = run_corun(&[&a, &b], &[ta, tb], &PolicyKind::LeftOver, &cfg);
        assert!(!r.timed_out);
        // Sequential would be ~2x the isolation budget.
        let expect = 2 * cfg.isolation_cycles;
        let ratio = r.total_cycles as f64 / expect as f64;
        assert!(
            (0.75..=1.35).contains(&ratio),
            "Left-Over should be near-sequential: {} vs {expect}",
            r.total_cycles
        );
    }

    #[test]
    fn cta_cap_primitive_reproduces_scaling() {
        let cfg = quick_cfg();
        let img = by_abbrev("IMG").unwrap().desc;
        let low = run_with_cta_cap(&img, 1, 6_000, &cfg);
        let high = run_with_cta_cap(&img, 8, 6_000, &cfg);
        assert!(high > 2.0 * low, "IMG scales with CTAs: {low} vs {high}");
    }

    #[test]
    fn stats_are_internally_consistent() {
        let cfg = quick_cfg();
        let r = run_isolation(&by_abbrev("BLK").unwrap().desc, &cfg);
        let s = &r.stats;
        assert_eq!(s.cycles, cfg.isolation_cycles);
        assert_eq!(s.sched_cycles, s.cycles * 16 * 2);
        assert_eq!(s.insts, s.insts_per_kernel.iter().sum::<u64>());
        assert!(s.cache.l1_misses <= s.cache.l1_accesses);
        assert!(s.cache.l2_misses <= s.cache.l2_accesses);
        assert!(s.util.reg > 0.5, "BLK fills the register file");
        assert!(s.phi_mem > 0.2, "BLK is memory bound");
        assert!(s.l2_mpki_per_kernel[0] > 30.0, "BLK is memory class");
    }

    #[test]
    fn isolation_measures_per_kernel_cycles() {
        let cfg = quick_cfg();
        let r = run_isolation(&by_abbrev("IMG").unwrap().desc, &cfg);
        assert!(r.isolated_cycles >= 1);
        assert!(r.isolated_cycles <= cfg.isolation_cycles);
        // IMG keeps issuing through the whole budget, so its true isolated
        // time is (nearly) the budget itself.
        assert!(r.isolated_cycles > cfg.isolation_cycles / 2);
    }

    #[test]
    fn traced_corun_captures_events_and_audit_without_changing_results() {
        let cfg = quick_cfg();
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("NN").unwrap().desc;
        let ta = run_isolation(&a, &cfg).target_insts;
        let tb = run_isolation(&b, &cfg).target_insts;
        let policy =
            PolicyKind::WarpedSlicer(crate::policy::WarpedSlicerConfig::scaled_for(12_000));
        let plain = SimJob::corun(&[&a, &b], &[ta, tb], &policy, &cfg);
        let traced = SimJob {
            cfg: RunConfig {
                trace: Some(TraceOptions::default()),
                ..cfg.clone()
            },
            ..plain.clone()
        };
        let p = execute(&plain);
        let t = execute(&traced);
        // Tracing is observation only: the simulated run is identical.
        assert_eq!(p.total_cycles, t.total_cycles);
        assert_eq!(p.finish_cycle, t.finish_cycle);
        assert_eq!(p.end_insts, t.end_insts);
        assert!(p.trace.is_none() && p.audit.is_none());
        let events = t.trace.expect("trace captured");
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::KernelLaunch { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::KernelHalt { .. })));
        let audit = t.audit.expect("Warped-Slicer audit implied by tracing");
        assert!(audit.scaled_points(0).count() >= 1);
        assert!(audit.scaled_points(1).count() >= 1);
    }

    #[test]
    #[should_panic(expected = "one target per kernel")]
    fn mismatched_targets_rejected() {
        let cfg = quick_cfg();
        let a = by_abbrev("IMG").unwrap().desc;
        let _ = run_corun(&[&a], &[1, 2], &PolicyKind::Even, &cfg);
    }
}
