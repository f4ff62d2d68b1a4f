//! Multiprogramming policies (CTA-dispatch controllers).
//!
//! The simulator exposes launch primitives; a [`Controller`] decides every
//! cycle which kernel's CTAs go where. This module implements the paper's
//! baselines — [`LeftOverController`] (the Hyper-Q/CKE default),
//! [`FcfsController`] (Fig. 2a), [`EvenController`] (even intra-SM split),
//! [`SpatialController`] (inter-SM multitasking), [`QuotaController`]
//! (a fixed CTA-quota intra-SM partition, used by the Oracle search) — and
//! re-exports the dynamic [`WarpedSlicerController`].

mod warped_slicer;

pub use warped_slicer::{WarpedSlicerConfig, WarpedSlicerController};

use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelId, PartitionWindow, Region};

/// Which multiprogramming policy to run.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Kernel 1 receives every resource it can use; later kernels get the
    /// leftovers (the baseline of all figures).
    LeftOver,
    /// First-come-first-serve interleaved allocation (Fig. 2a).
    Fcfs,
    /// Each kernel is confined to a `1/K` slice of every SM resource.
    Even,
    /// Inter-SM slicing: each kernel gets a dedicated group of SMs.
    Spatial,
    /// Fixed intra-SM CTA quotas (used by the Oracle exhaustive search).
    Quota(Vec<u32>),
    /// The paper's contribution: online profiling + water-filling.
    WarpedSlicer(WarpedSlicerConfig),
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LeftOver => write!(f, "Left-Over"),
            Self::Fcfs => write!(f, "FCFS"),
            Self::Even => write!(f, "Even"),
            Self::Spatial => write!(f, "Spatial"),
            Self::Quota(q) => write!(f, "Quota{q:?}"),
            Self::WarpedSlicer(_) => write!(f, "Warped-Slicer"),
        }
    }
}

/// The partitioning outcome a dynamic policy settled on (for Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// CTA quotas per kernel, when intra-SM slicing was chosen.
    pub quotas: Option<Vec<u32>>,
    /// Whether the policy fell back to spatial multitasking.
    pub spatial_fallback: bool,
    /// Predicted normalized performance per kernel at the decision point.
    pub predicted_perf: Vec<f64>,
    /// Cycle at which the decision took effect.
    pub decided_at: u64,
    /// The scaled performance-vs-CTA curves the decision was based on
    /// (per kernel; raw IPC units).
    pub measured_curves: Vec<Vec<f64>>,
}

/// A CTA-dispatch controller driven once per simulated cycle.
pub trait Controller: std::fmt::Debug {
    /// Called before each `gpu.tick()`.
    fn on_cycle(&mut self, gpu: &mut Gpu);

    /// The partition decision, if this policy makes one.
    fn decision(&self) -> Option<&Decision> {
        None
    }

    /// The decision-audit trail, if this policy records one (see
    /// [`crate::audit::DecisionAudit`]; only the Warped-Slicer controller
    /// does, and only when
    /// [`WarpedSlicerConfig::audit`](crate::policy::WarpedSlicerConfig) is
    /// set).
    fn audit(&self) -> Option<&crate::audit::DecisionAudit> {
        None
    }

    /// Earliest future cycle at which this controller may act even though
    /// the GPU's launch-relevant state (completed CTAs, halted kernels) is
    /// unchanged — a timer-driven intervention such as a sampling-phase
    /// boundary or a periodic phase-monitor check.
    ///
    /// The runner's fast-forward path clamps every dead-cycle skip to this
    /// value, so returning `None` promises "I only react to state changes".
    /// Returning `Some(c)` with `c` *later* than the true intervention
    /// cycle is a correctness bug; *earlier* merely forfeits speedup.
    fn next_intervention(&self) -> Option<u64> {
        None
    }
}

/// Builds the controller for `kind`.
#[must_use]
pub fn make_controller(kind: &PolicyKind) -> Box<dyn Controller> {
    match kind {
        PolicyKind::LeftOver => Box::new(LeftOverController::new()),
        PolicyKind::Fcfs => Box::new(FcfsController::new()),
        PolicyKind::Even => Box::new(EvenController::new()),
        PolicyKind::Spatial => Box::new(SpatialController::new()),
        PolicyKind::Quota(q) => Box::new(QuotaController::new(q.clone())),
        PolicyKind::WarpedSlicer(cfg) => Box::new(WarpedSlicerController::new(cfg.clone())),
    }
}

/// Cheap change detector: launch opportunities only appear when a CTA
/// retires, a kernel halts, or the controller itself changed windows.
#[derive(Debug, Default, Clone)]
pub(crate) struct ChangeTracker {
    last: Option<(u64, usize)>,
}

impl ChangeTracker {
    pub(crate) fn changed(&mut self, gpu: &Gpu) -> bool {
        let cur = (gpu.total_completed(), gpu.halted_kernels());
        if self.last == Some(cur) {
            false
        } else {
            self.last = Some(cur);
            true
        }
    }

    /// Forces the next `changed` call to report `true`.
    pub(crate) fn invalidate(&mut self) {
        self.last = None;
    }
}

/// A window that blocks a kernel from an SM entirely.
#[must_use]
pub(crate) fn blocked_window() -> PartitionWindow {
    PartitionWindow {
        regs: Region { start: 0, len: 0 },
        shmem: Region { start: 0, len: 0 },
        max_ctas: 0,
        max_threads: 0,
    }
}

/// The even-partitioning window for kernel-slot `i` of `k` kernels: slice
/// `i` of every resource.
#[must_use]
pub(crate) fn even_window(cfg: &GpuConfig, i: usize, k: usize) -> PartitionWindow {
    let k32 = k as u32;
    let i32 = i as u32;
    let reg_slice = cfg.sm.max_registers / k32;
    let shm_slice = cfg.sm.shared_mem_bytes / k32;
    PartitionWindow {
        regs: Region {
            start: i32 * reg_slice,
            len: reg_slice,
        },
        shmem: Region {
            start: i32 * shm_slice,
            len: shm_slice,
        },
        max_ctas: (cfg.sm.max_ctas / k32).max(1),
        max_threads: (cfg.sm.max_threads / k32).max(1),
    }
}

/// Packed quota windows: kernel `i` gets a contiguous region sized for
/// `quotas[i]` CTAs of its footprint, laid out back to back (Fig. 2d).
#[must_use]
pub(crate) fn quota_windows(
    cfg: &GpuConfig,
    descs: &[&KernelDesc],
    quotas: &[u32],
) -> Vec<PartitionWindow> {
    let mut reg_cursor = 0u32;
    let mut shm_cursor = 0u32;
    descs
        .iter()
        .zip(quotas)
        .map(|(d, &q)| {
            let reg_len = (d.regs_per_cta() * q).min(cfg.sm.max_registers - reg_cursor);
            let shm_len = (d.shmem_per_cta * q).min(cfg.sm.shared_mem_bytes - shm_cursor);
            let w = PartitionWindow {
                regs: Region {
                    start: reg_cursor,
                    len: reg_len,
                },
                shmem: Region {
                    start: shm_cursor,
                    len: shm_len,
                },
                max_ctas: q,
                max_threads: (d.threads_per_cta * q).min(cfg.sm.max_threads),
            };
            reg_cursor += reg_len;
            shm_cursor += shm_len;
            w
        })
        .collect()
}

/// Fills every SM with CTAs, trying kernels in `order`, optionally
/// restricted by `allowed(sm, kernel)`.
pub(crate) fn sweep_launch(
    gpu: &mut Gpu,
    order: &[KernelId],
    allowed: impl Fn(usize, KernelId) -> bool,
) {
    for sm in 0..gpu.num_sms() {
        for &k in order {
            if !allowed(sm, k) {
                continue;
            }
            while gpu.try_launch(k, sm) {}
        }
    }
}

/// The Left-Over policy: kernels are served strictly in arrival order.
#[derive(Debug, Default)]
pub struct LeftOverController {
    tracker: ChangeTracker,
}

impl LeftOverController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Controller for LeftOverController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        if self.tracker.changed(gpu) {
            let order = gpu.kernel_ids();
            sweep_launch(gpu, &order, |_, _| true);
        }
    }
}

/// FCFS interleaved allocation: kernels take turns claiming resources, so
/// their CTAs interleave in the register file and shared memory (Fig. 2a).
#[derive(Debug, Default)]
pub struct FcfsController {
    tracker: ChangeTracker,
    next: usize,
}

impl FcfsController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Controller for FcfsController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        if !self.tracker.changed(gpu) {
            return;
        }
        let ids = gpu.kernel_ids();
        let k = ids.len();
        for sm in 0..gpu.num_sms() {
            // Alternate kernels one CTA at a time until nothing fits.
            let mut stuck = 0;
            while stuck < k {
                let kid = ids[self.next % k];
                self.next += 1;
                if gpu.try_launch(kid, sm) {
                    stuck = 0;
                } else {
                    stuck += 1;
                }
            }
        }
    }
}

/// Even intra-SM partitioning: each kernel is confined to a `1/K` slice of
/// every SM resource (Fig. 2c).
#[derive(Debug, Default)]
pub struct EvenController {
    tracker: ChangeTracker,
    configured: bool,
    released: bool,
}

impl EvenController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Controller for EvenController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        // The kernel list is built only in the branches that use it: this
        // runs every simulated cycle, and `kernel_ids` allocates.
        if !self.configured {
            self.configured = true;
            let cfg = gpu.config().clone();
            let ids = gpu.kernel_ids();
            for sm in 0..gpu.num_sms() {
                for (i, &k) in ids.iter().enumerate() {
                    gpu.set_window(sm, k, Some(even_window(&cfg, i, ids.len())));
                }
            }
            self.tracker.invalidate();
        }
        // Once any kernel finishes its work, survivors may use everything.
        if !self.released && gpu.halted_kernels() > 0 {
            self.released = true;
            let ids = gpu.kernel_ids();
            for sm in 0..gpu.num_sms() {
                for &k in &ids {
                    gpu.set_window(sm, k, None);
                }
            }
            self.tracker.invalidate();
        }
        if self.tracker.changed(gpu) {
            let ids = gpu.kernel_ids();
            sweep_launch(gpu, &ids, |_, _| true);
        }
    }
}

/// Spatial multitasking: SMs are split into one group per kernel.
#[derive(Debug, Default)]
pub struct SpatialController {
    tracker: ChangeTracker,
}

impl SpatialController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Group assignment: kernel owning SM `sm` out of `k` kernels over
    /// `num_sms` SMs (contiguous equal groups).
    #[must_use]
    pub fn owner_of(sm: usize, num_sms: usize, k: usize) -> usize {
        (sm * k / num_sms).min(k - 1)
    }
}

impl Controller for SpatialController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        if !self.tracker.changed(gpu) {
            return;
        }
        let ids = gpu.kernel_ids();
        let k = ids.len();
        let n = gpu.num_sms();
        let all_alive = gpu.halted_kernels() == 0;
        sweep_launch(gpu, &ids, |sm, kid| {
            if all_alive {
                Self::owner_of(sm, n, k) == kid.0
            } else {
                true // survivors expand over the whole GPU
            }
        });
    }
}

/// Fixed CTA-quota intra-SM partitioning on every SM (Fig. 2d). This is
/// both the Oracle search's building block and the mechanism the
/// Warped-Slicer applies after its decision.
#[derive(Debug)]
pub struct QuotaController {
    quotas: Vec<u32>,
    tracker: ChangeTracker,
    configured: bool,
    released: bool,
    decision: Decision,
}

impl QuotaController {
    /// Creates a controller enforcing `quotas[i]` CTAs of kernel-slot `i`
    /// per SM.
    #[must_use]
    pub fn new(quotas: Vec<u32>) -> Self {
        Self {
            decision: Decision {
                quotas: Some(quotas.clone()),
                spatial_fallback: false,
                predicted_perf: Vec::new(),
                decided_at: 0,
                measured_curves: Vec::new(),
            },
            quotas,
            tracker: ChangeTracker::default(),
            configured: false,
            released: false,
        }
    }
}

impl Controller for QuotaController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        // As in `EvenController`: no per-cycle `kernel_ids` allocation.
        if !self.configured {
            self.configured = true;
            let cfg = gpu.config().clone();
            let ids = gpu.kernel_ids();
            let descs: Vec<KernelDesc> = ids.iter().map(|&k| gpu.kernel_desc(k).clone()).collect();
            let desc_refs: Vec<&KernelDesc> = descs.iter().collect();
            let windows = quota_windows(&cfg, &desc_refs, &self.quotas);
            for sm in 0..gpu.num_sms() {
                for (&k, w) in ids.iter().zip(&windows) {
                    gpu.set_window(sm, k, Some(*w));
                }
            }
            self.tracker.invalidate();
        }
        if !self.released && gpu.halted_kernels() > 0 {
            self.released = true;
            let ids = gpu.kernel_ids();
            for sm in 0..gpu.num_sms() {
                for &k in &ids {
                    gpu.set_window(sm, k, None);
                }
            }
            self.tracker.invalidate();
        }
        if self.tracker.changed(gpu) {
            let ids = gpu.kernel_ids();
            sweep_launch(gpu, &ids, |_, _| true);
        }
    }

    fn decision(&self) -> Option<&Decision> {
        Some(&self.decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, SchedulerKind};
    use ws_workloads::{by_abbrev, suite};

    fn gpu_with(abbrevs: &[&str]) -> Gpu {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        for a in abbrevs {
            gpu.add_kernel(by_abbrev(a).unwrap().desc);
        }
        gpu
    }

    #[test]
    fn left_over_starves_the_second_kernel() {
        let mut gpu = gpu_with(&["IMG", "NN"]);
        let mut c = LeftOverController::new();
        for _ in 0..2000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert!(gpu.kernel_insts(KernelId(0)) > 0);
        assert_eq!(
            gpu.kernel_insts(KernelId(1)),
            0,
            "kernel 2 must wait while kernel 1 has CTAs left"
        );
    }

    #[test]
    fn even_splits_resources_in_half() {
        let mut gpu = gpu_with(&["IMG", "NN"]);
        let mut c = EvenController::new();
        for _ in 0..3000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        // Both kernels run everywhere, each capped at 4 CTAs per SM.
        for sm in gpu.sms() {
            assert!(sm.kernel_ctas(0) <= 4);
            assert!(sm.kernel_ctas(1) <= 4);
            assert!(sm.kernel_ctas(0) >= 1);
            assert!(sm.kernel_ctas(1) >= 1);
        }
        assert!(gpu.kernel_insts(KernelId(1)) > 0);
    }

    #[test]
    fn spatial_separates_sm_groups() {
        let mut gpu = gpu_with(&["IMG", "NN"]);
        let mut c = SpatialController::new();
        for _ in 0..1000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        for s in 0..16 {
            let sm = gpu.sm(s);
            if s < 8 {
                assert!(sm.kernel_ctas(0) > 0 && sm.kernel_ctas(1) == 0);
            } else {
                assert!(sm.kernel_ctas(1) > 0 && sm.kernel_ctas(0) == 0);
            }
        }
    }

    #[test]
    fn quota_controller_enforces_quotas() {
        let mut gpu = gpu_with(&["IMG", "NN"]);
        let mut c = QuotaController::new(vec![5, 3]);
        for _ in 0..3000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        for sm in gpu.sms() {
            assert!(sm.kernel_ctas(0) <= 5);
            assert!(sm.kernel_ctas(1) <= 3);
        }
        assert_eq!(
            c.decision().unwrap().quotas.as_deref(),
            Some([5u32, 3].as_slice())
        );
    }

    #[test]
    fn quota_release_on_halt_lets_survivor_expand() {
        let mut gpu = gpu_with(&["IMG", "NN"]);
        let mut c = QuotaController::new(vec![4, 4]);
        for _ in 0..500 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        gpu.halt_kernel(KernelId(1));
        for _ in 0..4000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        // NN gone; IMG should now exceed its old quota of 4 somewhere.
        assert!(
            gpu.sms().any(|sm| sm.kernel_ctas(0) > 4),
            "survivor should expand past its quota"
        );
    }

    #[test]
    fn fcfs_interleaves_both_kernels_immediately() {
        let mut gpu = gpu_with(&["IMG", "NN"]);
        let mut c = FcfsController::new();
        c.on_cycle(&mut gpu);
        let sm = gpu.sm(0);
        assert!(sm.kernel_ctas(0) > 0 && sm.kernel_ctas(1) > 0);
    }

    #[test]
    fn owner_of_partitions_evenly() {
        let owners: Vec<usize> = (0..16)
            .map(|s| SpatialController::owner_of(s, 16, 2))
            .collect();
        assert_eq!(owners.iter().filter(|&&o| o == 0).count(), 8);
        assert_eq!(owners.iter().filter(|&&o| o == 1).count(), 8);
        let owners3: Vec<usize> = (0..16)
            .map(|s| SpatialController::owner_of(s, 16, 3))
            .collect();
        for k in 0..3 {
            let n = owners3.iter().filter(|&&o| o == k).count();
            assert!(n >= 5, "group {k} too small: {owners3:?}");
        }
    }

    #[test]
    fn even_window_slices_do_not_overlap() {
        let cfg = GpuConfig::isca_baseline();
        let w0 = even_window(&cfg, 0, 2);
        let w1 = even_window(&cfg, 1, 2);
        assert_eq!(w0.regs.end(), w1.regs.start);
        assert_eq!(w0.shmem.end(), w1.shmem.start);
        assert_eq!(w0.max_ctas, 4);
    }

    #[test]
    fn quota_windows_pack_back_to_back() {
        let cfg = GpuConfig::isca_baseline();
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("NN").unwrap().desc;
        let ws = quota_windows(&cfg, &[&a, &b], &[5, 3]);
        assert_eq!(ws[0].regs.start, 0);
        assert_eq!(ws[0].regs.len, 5 * a.regs_per_cta());
        assert_eq!(ws[1].regs.start, ws[0].regs.end());
        assert_eq!(ws[1].regs.len, 3 * b.regs_per_cta());
        assert_eq!(ws[0].max_ctas, 5);
        assert_eq!(ws[1].max_threads, 3 * b.threads_per_cta);
    }

    #[test]
    fn all_benchmarks_launch_under_every_static_policy() {
        // Smoke: every suite kernel can co-run under each static policy
        // without panicking.
        for policy in [PolicyKind::LeftOver, PolicyKind::Even, PolicyKind::Spatial] {
            let mut gpu = gpu_with(&["MM", "BLK"]);
            let mut c = make_controller(&policy);
            for _ in 0..500 {
                c.on_cycle(&mut gpu);
                gpu.tick();
            }
            let _ = suite();
            assert!(gpu.kernel_insts(KernelId(0)) > 0, "{policy}");
        }
    }
}
