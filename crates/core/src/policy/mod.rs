//! Multiprogramming policies (CTA-dispatch controllers).
//!
//! The simulator exposes launch primitives; a [`Controller`] decides every
//! cycle which kernel's CTAs go where. Every policy of the paper's Fig. 2
//! is one mechanism with different settings: a private `Slicing` (no
//! windows, an even or quota-sized slice of every SM, an SM-ownership
//! split, or the Fig. 4 profiling plan) that is installed, released on the
//! first halt, and launched through. [`make_controller`] maps the
//! baselines — Left-Over (the Hyper-Q/CKE default), FCFS (Fig. 2a), Even
//! (even intra-SM split), Spatial (inter-SM multitasking) and Quota (a
//! fixed CTA-quota intra-SM partition, used by the Oracle search) — onto
//! one static controller; the dynamic [`WarpedSlicerController`] drives the
//! same `Slicing` from its phase machine.

mod warped_slicer;

pub use warped_slicer::{WarpedSlicerConfig, WarpedSlicerController};

use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelId, PartitionWindow, Region};

use crate::profiler::ProfilePlan;

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
    let slicing = match kind {
        PolicyKind::LeftOver | PolicyKind::Fcfs => Slicing::Shared,
        PolicyKind::Even => Slicing::Even,
        PolicyKind::Spatial => Slicing::Spatial,
        PolicyKind::Quota(q) => Slicing::Quota(q.clone()),
        PolicyKind::WarpedSlicer(cfg) => {
            return Box::new(WarpedSlicerController::new(cfg.clone()));
        }
    };
    Box::new(SliceController::new(
        slicing,
        matches!(kind, PolicyKind::Fcfs),
    ))
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

/// How a policy slices the SMs between kernels — the one mechanism behind
/// every policy of Fig. 2. [`Slicing::install`] is the only code that
/// writes partition windows and [`Slicing::launch`] the only code that
/// launches CTAs, for the static baselines and the Warped-Slicer alike.
#[derive(Debug)]
enum Slicing {
    /// No windows: kernels share every SM (Left-Over, FCFS, and every
    /// policy after [`Slicing::release`]).
    Shared,
    /// Kernel-slot `i` of `K` gets slice `i` of every SM resource (Fig. 2c).
    Even,
    /// No windows; each SM launches only its owner's CTAs ([`owner_of`];
    /// inter-SM slicing).
    Spatial,
    /// Kernel-slot `i` gets a contiguous region sized for `quotas[i]` CTAs
    /// of its footprint, packed back to back on every SM (Fig. 2d).
    Quota(Vec<u32>),
    /// The Fig. 4 profiling plan: each SM holds up to its assignment's
    /// quota of one kernel, and every other kernel is blocked from it.
    Profile(ProfilePlan),
}

impl Slicing {
    /// Writes the window of every `(sm, kernel)` pair of the current kernel
    /// set (`None` where this slicing leaves the pair unconstrained).
    fn install(&self, gpu: &mut Gpu) {
        let ids = gpu.kernel_ids();
        for sm in 0..gpu.num_sms() {
            let descs: Vec<&KernelDesc> = ids.iter().map(|&k| gpu.kernel_desc(k)).collect();
            let windows = self.windows(gpu.config(), &descs, sm);
            for (i, &k) in ids.iter().enumerate() {
                gpu.set_window(sm, k, windows.get(i).copied());
            }
        }
    }

    /// The first-halt rule: once any kernel halts, the survivors may use
    /// everything, so every window is cleared and the ownership mask
    /// lifted.
    fn release(&mut self, gpu: &mut Gpu) {
        *self = Self::Shared;
        self.install(gpu);
    }

    /// Fills every SM with CTAs in kernel order, each SM restricted to its
    /// owner's kernel while `Spatial` is live. Given FCFS's cursor, kernels
    /// instead take turns one CTA at a time until nothing fits (Fig. 2a),
    /// the cursor carrying the turn across calls.
    fn launch(&self, gpu: &mut Gpu, fcfs_cursor: Option<&mut usize>) {
        let ids = gpu.kernel_ids();
        let (n, k) = (gpu.num_sms(), ids.len());
        if let Some(next) = fcfs_cursor {
            for sm in 0..n {
                let mut stuck = 0;
                while stuck < k {
                    let kid = ids[*next % k];
                    *next += 1;
                    if gpu.try_launch(kid, sm) {
                        stuck = 0;
                    } else {
                        stuck += 1;
                    }
                }
            }
            return;
        }
        let spatial = matches!(self, Self::Spatial);
        sweep_launch(gpu, &ids, |sm, kid| !spatial || owner_of(sm, n, k) == kid.0);
    }

    /// The windows of kernel-slots `0..descs.len()` on SM `sm` (empty when
    /// this slicing installs none).
    fn windows(&self, cfg: &GpuConfig, descs: &[&KernelDesc], sm: usize) -> Vec<PartitionWindow> {
        let res = &cfg.sm;
        match self {
            Self::Shared | Self::Spatial => Vec::new(),
            Self::Even => {
                let k = descs.len() as u32;
                (0..k)
                    .map(|i| {
                        let reg_slice = res.max_registers / k;
                        let shm_slice = res.shared_mem_bytes / k;
                        PartitionWindow {
                            regs: Region {
                                start: i * reg_slice,
                                len: reg_slice,
                            },
                            shmem: Region {
                                start: i * shm_slice,
                                len: shm_slice,
                            },
                            max_ctas: (res.max_ctas / k).max(1),
                            max_threads: (res.max_threads / k).max(1),
                        }
                    })
                    .collect()
            }
            Self::Quota(quotas) => {
                let mut reg_cursor = 0u32;
                let mut shm_cursor = 0u32;
                descs
                    .iter()
                    .zip(quotas)
                    .map(|(d, &q)| {
                        let reg_len = (d.regs_per_cta() * q).min(res.max_registers - reg_cursor);
                        let shm_len = (d.shmem_per_cta * q).min(res.shared_mem_bytes - shm_cursor);
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
                            max_threads: (d.threads_per_cta * q).min(res.max_threads),
                        };
                        reg_cursor += reg_len;
                        shm_cursor += shm_len;
                        w
                    })
                    .collect()
            }
            Self::Profile(plan) => {
                let Some(a) = plan.assignments.iter().find(|a| a.sm == sm) else {
                    return Vec::new();
                };
                (0..descs.len())
                    .map(|i| {
                        if i == a.kernel {
                            PartitionWindow {
                                regs: Region::whole(res.max_registers),
                                shmem: Region::whole(res.shared_mem_bytes),
                                max_ctas: a.quota,
                                max_threads: res.max_threads,
                            }
                        } else {
                            PartitionWindow {
                                regs: Region { start: 0, len: 0 },
                                shmem: Region { start: 0, len: 0 },
                                max_ctas: 0,
                                max_threads: 0,
                            }
                        }
                    })
                    .collect()
            }
        }
    }
}

/// The kernel owning SM `sm` out of `k` kernels over `num_sms` SMs under
/// spatial slicing (contiguous equal groups).
fn owner_of(sm: usize, num_sms: usize, k: usize) -> usize {
    (sm * k / num_sms).min(k - 1)
}

/// Fills every SM with CTAs, trying kernels in `order`, restricted by
/// `allowed(sm, kernel)`.
fn sweep_launch(gpu: &mut Gpu, order: &[KernelId], allowed: impl Fn(usize, KernelId) -> bool) {
    for sm in 0..gpu.num_sms() {
        for &k in order {
            if !allowed(sm, k) {
                continue;
            }
            while gpu.try_launch(k, sm) {}
        }
    }
}

/// Every static policy: its [`Slicing`] is installed on the first cycle
/// (a kernel that arrives later gets no window), released on the first
/// halt, and launched through whenever the GPU's launch state changes.
#[derive(Debug)]
struct SliceController {
    slicing: Slicing,
    tracker: ChangeTracker,
    installed: bool,
    released: bool,
    /// FCFS's turn counter; `None` for every other policy.
    fcfs_cursor: Option<usize>,
    /// A Quota policy's fixed decision.
    decision: Option<Decision>,
}

impl SliceController {
    fn new(slicing: Slicing, fcfs: bool) -> Self {
        let decision = match &slicing {
            Slicing::Quota(q) => Some(Decision {
                quotas: Some(q.clone()),
                spatial_fallback: false,
                predicted_perf: Vec::new(),
                decided_at: 0,
                measured_curves: Vec::new(),
            }),
            _ => None,
        };
        Self {
            slicing,
            tracker: ChangeTracker::default(),
            installed: false,
            released: false,
            fcfs_cursor: fcfs.then_some(0),
            decision,
        }
    }
}

impl Controller for SliceController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        if !self.installed {
            self.installed = true;
            self.slicing.install(gpu);
            self.tracker.invalidate();
        }
        if !self.released && gpu.halted_kernels() > 0 {
            self.released = true;
            self.slicing.release(gpu);
            self.tracker.invalidate();
        }
        if self.tracker.changed(gpu) {
            self.slicing.launch(gpu, self.fcfs_cursor.as_mut());
        }
    }

    fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
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
        let mut c = make_controller(&PolicyKind::LeftOver);
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
        let mut c = make_controller(&PolicyKind::Even);
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
        let mut c = make_controller(&PolicyKind::Spatial);
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
        let mut c = make_controller(&PolicyKind::Quota(vec![5, 3]));
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
        let mut c = make_controller(&PolicyKind::Quota(vec![4, 4]));
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
        let mut c = make_controller(&PolicyKind::Fcfs);
        c.on_cycle(&mut gpu);
        let sm = gpu.sm(0);
        assert!(sm.kernel_ctas(0) > 0 && sm.kernel_ctas(1) > 0);
    }

    #[test]
    fn owner_of_partitions_evenly() {
        let owners: Vec<usize> = (0..16).map(|s| owner_of(s, 16, 2)).collect();
        assert_eq!(owners.iter().filter(|&&o| o == 0).count(), 8);
        assert_eq!(owners.iter().filter(|&&o| o == 1).count(), 8);
        let owners3: Vec<usize> = (0..16).map(|s| owner_of(s, 16, 3)).collect();
        for k in 0..3 {
            let n = owners3.iter().filter(|&&o| o == k).count();
            assert!(n >= 5, "group {k} too small: {owners3:?}");
        }
    }

    #[test]
    fn even_window_slices_do_not_overlap() {
        let cfg = GpuConfig::isca_baseline();
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("NN").unwrap().desc;
        let ws = Slicing::Even.windows(&cfg, &[&a, &b], 0);
        let (w0, w1) = (ws[0], ws[1]);
        assert_eq!(w0.regs.end(), w1.regs.start);
        assert_eq!(w0.shmem.end(), w1.shmem.start);
        assert_eq!(w0.max_ctas, 4);
    }

    #[test]
    fn quota_windows_pack_back_to_back() {
        let cfg = GpuConfig::isca_baseline();
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("NN").unwrap().desc;
        let ws = Slicing::Quota(vec![5, 3]).windows(&cfg, &[&a, &b], 0);
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
