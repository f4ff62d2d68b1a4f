//! The Warped-Slicer dynamic intra-SM slicing controller (Sec. IV).
//!
//! Lifecycle: *profile* (each SM holds a different CTA count of one kernel;
//! Fig. 4) → *sample* (5 K-cycle IPC / `φ_mem` measurement per SM) →
//! *decide* (bandwidth-scaled curves into the water-filling partitioner;
//! fall back to spatial multitasking when the predicted loss exceeds
//! `1/K × 120 %`) → *run* (fixed CTA quotas per SM, Fig. 2d/2e), with an
//! optional phase monitor that re-triggers sampling on sustained IPC shifts.

use gpu_sim::{Gpu, KernelDesc};

use crate::audit::{AuditEvent, DecisionAudit};
use crate::decider::Decider;
use crate::phase::PhaseMonitor;
use crate::policy::{ChangeTracker, Controller, Decision, Slicing};
use crate::profiler::{build_curves, BandwidthSample, ProfilePlan, ProfileSample, ProfileTiming};
use crate::store::{KernelSignature, SharedCurveStore, StoreEntry};

/// Phase-monitor window length in cycles.
const PHASE_WINDOW: u64 = 5_000;

/// Windows to wait after a decision before arming the phase monitor, so the
/// drain of over-quota profile CTAs (Fig. 2e) is not mistaken for a program
/// phase change.
const PHASE_SETTLE_WINDOWS: u64 = 4;

/// Tunables for the Warped-Slicer controller.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpedSlicerConfig {
    /// Warm-up / sample / decision-delay cycle counts.
    pub timing: ProfileTiming,
    /// Per-kernel performance-loss threshold above which the controller
    /// falls back to spatial multitasking. `None` selects the paper's
    /// `1/K × 120 %`.
    pub loss_threshold: Option<f64>,
    /// Apply the Eq. 3 bandwidth-interference scaling factor (ablation
    /// hook; the paper always scales).
    pub enable_scaling: bool,
    /// Monitor per-kernel IPC after the decision and re-profile on
    /// sustained change (Sec. IV-B).
    pub enable_phase_monitor: bool,
    /// Record a [`DecisionAudit`] of every scaling application,
    /// water-filling grant, fallback verdict, and phase-monitor window.
    /// Recording happens only at decision points, so the simulated run is
    /// identical either way; off by default to keep decisions
    /// allocation-free.
    pub audit: bool,
    /// Plan the profiling ramp from `ws-predict` static curves: each
    /// kernel's SM group concentrates its CTA counts in a window around the
    /// predicted knee (guarding the feasibility bound) instead of the plain
    /// `1..=N` ramp. On by default; `false` profiles the plain ramp.
    pub predict: bool,
    /// Attach a shared ws-store performance-curve cache. Before installing
    /// profiling windows the controller looks every kernel's signature up
    /// in the store; when all of them hit, the memoized curves go straight
    /// to Algorithm 1 water-filling and the profiling sweep is skipped
    /// entirely. Cold decisions insert their accepted curves; a
    /// phase-monitor trigger invalidates exactly the triggered kernel's
    /// key before the re-profile replaces it. `None` (the default) keeps
    /// the controller store-free.
    pub store: Option<SharedCurveStore>,
}

impl Default for WarpedSlicerConfig {
    fn default() -> Self {
        Self {
            timing: ProfileTiming::default(),
            loss_threshold: None,
            enable_scaling: true,
            enable_phase_monitor: true,
            audit: false,
            predict: true,
            store: None,
        }
    }
}

impl WarpedSlicerConfig {
    /// Profile timing proportional to the experiment's cycle budget.
    ///
    /// The paper profiles for 20 K + 5 K cycles out of 2 M-cycle runs
    /// (~1 % overhead). When an experiment scales the run budget down, the
    /// profile phases scale with it (capped at the paper's values) so the
    /// relative overhead matches the paper's.
    #[must_use]
    pub fn scaled_for(isolation_cycles: u64) -> Self {
        Self {
            timing: ProfileTiming {
                warmup: (isolation_cycles / 15).clamp(1_000, 20_000),
                sample: (isolation_cycles / 40).clamp(500, 5_000),
                algorithm_delay: 0,
            },
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Warmup { until: u64 },
    Sampling { until: u64 },
    Deciding { until: u64 },
    Run,
}

#[derive(Debug, Clone, Copy, Default)]
struct SmSnap {
    insts: u64,
    mem_stalls: u64,
    cycles: u64,
    dram_transactions: u64,
}

/// The dynamic Warped-Slicer CTA-dispatch controller.
#[derive(Debug)]
pub struct WarpedSlicerController {
    cfg: WarpedSlicerConfig,
    /// The decision rules `cfg` configures.
    decider: Decider,
    phase: Phase,
    tracker: ChangeTracker,
    /// The installed slicing: the profiling plan while sampling, then the
    /// decision's quotas or spatial split, then `Shared` after the first
    /// halt.
    slicing: Slicing,
    snapshots: Vec<SmSnap>,
    decision: Option<Decision>,
    released: bool,
    monitors: Vec<PhaseMonitor>,
    last_kernel_insts: Vec<u64>,
    last_phase_check: u64,
    phase_armed_at: u64,
    dram_busy_snap: u64,
    reprofiles: u32,
    last_samples: Vec<ProfileSample>,
    known_kernels: usize,
    audit: DecisionAudit,
    store_keys: Vec<Option<KernelSignature>>,
    warm_decisions: u32,
}

impl WarpedSlicerController {
    /// Creates the controller.
    #[must_use]
    pub fn new(cfg: WarpedSlicerConfig) -> Self {
        Self {
            decider: Decider {
                predict: cfg.predict,
                loss_threshold: cfg.loss_threshold,
            },
            cfg,
            phase: Phase::Init,
            tracker: ChangeTracker::default(),
            slicing: Slicing::Shared,
            snapshots: Vec::new(),
            decision: None,
            released: false,
            monitors: Vec::new(),
            last_kernel_insts: Vec::new(),
            last_phase_check: 0,
            phase_armed_at: 0,
            dram_busy_snap: 0,
            reprofiles: 0,
            last_samples: Vec::new(),
            known_kernels: 0,
            audit: DecisionAudit::default(),
            store_keys: Vec::new(),
            warm_decisions: 0,
        }
    }

    /// The raw per-SM samples behind the most recent decision (for
    /// diagnostics and the experiment harness).
    #[must_use]
    pub fn last_samples(&self) -> &[ProfileSample] {
        &self.last_samples
    }

    /// How many times the phase monitor forced a re-profile.
    #[must_use]
    pub fn reprofile_count(&self) -> u32 {
        self.reprofiles
    }

    /// How many decisions were made from memoized ws-store curves (the
    /// profiling sweep skipped entirely).
    #[must_use]
    pub fn warm_decision_count(&self) -> u32 {
        self.warm_decisions
    }

    /// The installed profiling plan. Phase-machine invariant: only the
    /// Warmup and Sampling phases read it, and `enter_profile` installed it
    /// before entering them.
    fn profile_plan(&self) -> &ProfilePlan {
        match &self.slicing {
            Slicing::Profile(plan) => plan,
            _ => panic!("sampling requires an installed profile plan"),
        }
    }

    /// The current kernels' descriptors and Eq. 1 CTA bounds.
    fn kernels(gpu: &Gpu) -> (Vec<&KernelDesc>, Vec<u32>) {
        let descs: Vec<&KernelDesc> = gpu
            .kernel_ids()
            .iter()
            .map(|&k| gpu.kernel_desc(k))
            .collect();
        let max = descs
            .iter()
            .map(|d| d.max_ctas_per_sm(&gpu.config().sm).max(1))
            .collect();
        (descs, max)
    }

    /// Derives the per-kernel store signatures for the current kernel set
    /// (static analysis only; runs at decision points, never per tick).
    /// Kernel ids are dense and a registered kernel's descriptor never
    /// changes, so the keys are re-derived only when kernels arrive.
    fn derive_store_keys(&mut self, gpu: &Gpu) {
        if self.store_keys.len() == gpu.num_kernels() {
            return;
        }
        // A kernel the launch pre-flight rejects has no static features and
        // so no key: it gets no store, and counts as a permanent miss
        // rather than failing the decision, which then profiles as usual.
        let (descs, _) = Self::kernels(gpu);
        self.store_keys = descs
            .iter()
            .map(|d| KernelSignature::derive(d, gpu.config()).ok())
            .collect();
    }

    /// The ws-store lookup-before-profile path: when a store is attached
    /// and *every* kernel's signature hits, the memoized curves go straight
    /// to water-filling and no profiling windows are ever installed.
    /// Returns whether a warm decision was made.
    fn try_store_decision(&mut self, gpu: &mut Gpu) -> bool {
        let Some(store) = self.cfg.store.clone() else {
            return false;
        };
        if gpu.num_kernels() == 0 {
            return false;
        }
        self.derive_store_keys(gpu);
        let curves: Vec<Option<Vec<f64>>> = store.with(|s| {
            self.store_keys
                .iter()
                .map(|sig| {
                    let sig = sig.as_ref()?;
                    s.lookup(&sig.key).map(|e| e.perf.clone())
                })
                .collect()
        });
        if self.cfg.audit {
            for (i, (sig, curve)) in self.store_keys.iter().zip(&curves).enumerate() {
                let Some(sig) = sig else { continue };
                match curve {
                    Some(perf) => self.audit.record(AuditEvent::StoreHit {
                        kernel: i,
                        sig: sig.key.kernel_sig,
                        perf: perf.clone(),
                    }),
                    None => self.audit.record(AuditEvent::StoreMiss {
                        kernel: i,
                        sig: sig.key.kernel_sig,
                    }),
                }
            }
        }
        let Some(curves) = curves.into_iter().collect::<Option<Vec<Vec<f64>>>>() else {
            return false;
        };
        // Warm hit: no samples back this decision.
        self.last_samples.clear();
        self.warm_decisions += 1;
        self.conclude(gpu, curves);
        true
    }

    /// Inserts (or replaces) the accepted measured curves into the
    /// attached store after a cold decision.
    fn store_insert(&mut self, gpu: &Gpu, curves: &[Vec<f64>]) {
        let Some(store) = self.cfg.store.clone() else {
            return;
        };
        self.derive_store_keys(gpu);
        store.with(|s| {
            for (sig, perf) in self.store_keys.iter().zip(curves) {
                if let Some(sig) = sig {
                    let _ = s.insert(sig.key, StoreEntry::measured(sig, perf.clone()));
                }
            }
        });
    }

    /// Invalidates exactly one kernel's store entry (a phase-monitor
    /// trigger: the memoized curve no longer describes the kernel).
    fn store_invalidate(&mut self, kernel: usize) {
        let Some(store) = self.cfg.store.clone() else {
            return;
        };
        let Some(Some(sig)) = self.store_keys.get(kernel).copied() else {
            return;
        };
        let removed = store.with(|s| s.invalidate(&sig.key));
        if removed && self.cfg.audit {
            self.audit.record(AuditEvent::StoreInvalidate {
                kernel,
                sig: sig.key.kernel_sig,
            });
        }
    }

    fn enter_profile(&mut self, gpu: &mut Gpu) {
        if self.try_store_decision(gpu) {
            return;
        }
        let now = gpu.cycle();
        let (descs, max) = Self::kernels(gpu);
        let audit = self.cfg.audit.then_some(&mut self.audit);
        let plan = self.decider.plan(&descs, &max, gpu.config(), audit);
        self.slicing = Slicing::Profile(ProfilePlan::build(gpu.num_sms(), &plan.windows));
        self.slicing.install(gpu);
        self.phase = Phase::Warmup {
            until: now + self.cfg.timing.warmup,
        };
        self.tracker.invalidate();
    }

    fn take_snapshots(&mut self, gpu: &Gpu) {
        self.snapshots = self
            .profile_plan()
            .assignments
            .iter()
            .map(|a| {
                let st = gpu.sm(a.sm).stats();
                SmSnap {
                    insts: st.kernel(a.kernel).insts_issued,
                    mem_stalls: st.stalls.mem,
                    cycles: st.cycles,
                    dram_transactions: gpu.mem_stats().dram_by_sm(a.sm),
                }
            })
            .collect();
        self.dram_busy_snap = gpu.mem().dram_busy_cycles();
    }

    fn decide(&mut self, gpu: &mut Gpu) {
        let plan = self.profile_plan();
        let num_sched = gpu.config().sm.num_schedulers;
        let sample_cycles = self.cfg.timing.sample.max(1);
        let num_channels = gpu.mem().num_channels() as u64;
        let dram_busy = (gpu.mem().dram_busy_cycles() - self.dram_busy_snap) as f64
            / (sample_cycles * num_channels) as f64;
        // Per-SM fair share of DRAM transaction capacity over the window.
        let burst = (f64::from(gpu.config().mem.timing.t_burst)
            * gpu.config().core_per_dram_clock())
        .max(1.0);
        let fair = (num_channels * sample_cycles) as f64 / burst / gpu.num_sms() as f64;
        let samples: Vec<ProfileSample> = plan
            .assignments
            .iter()
            .zip(&self.snapshots)
            .map(|(a, snap)| {
                let st = gpu.sm(a.sm).stats();
                let d_cycles = (st.cycles - snap.cycles).max(1);
                let d_insts = st.kernel(a.kernel).insts_issued - snap.insts;
                let d_mem = st.stalls.mem - snap.mem_stalls;
                let d_dram = gpu.mem_stats().dram_by_sm(a.sm) - snap.dram_transactions;
                ProfileSample {
                    kernel: a.kernel,
                    ctas: a.quota,
                    ipc_sampled: d_insts as f64 / d_cycles as f64,
                    phi_mem: if self.cfg.enable_scaling {
                        d_mem as f64 / (d_cycles * u64::from(num_sched)) as f64
                    } else {
                        0.0
                    },
                    bandwidth: self.cfg.enable_scaling.then_some(BandwidthSample {
                        sm_transactions: d_dram,
                        fair_transactions: fair,
                        dram_busy: dram_busy.clamp(0.0, 1.0),
                    }),
                }
            })
            .collect();

        self.last_samples = samples.clone();
        let (_, max) = Self::kernels(gpu);
        let curves = build_curves(&samples, &max, self.cfg.audit.then_some(&mut self.audit));
        self.store_insert(gpu, &curves);
        self.conclude(gpu, curves);
    }

    /// Hands per-kernel curves to the Decider's decision tail and installs
    /// (or schedules) its decision. Both the cold path (freshly measured
    /// curves) and the ws-store warm path (memoized curves) end here, which
    /// is what makes a warm-hit decision byte-identical to the cold-path
    /// decision for the same curves.
    fn conclude(&mut self, gpu: &mut Gpu, curves: Vec<Vec<f64>>) {
        let now = gpu.cycle();
        let (descs, _) = Self::kernels(gpu);
        let audit = self.cfg.audit.then_some(&mut self.audit);
        self.decision = Some(
            self.decider
                .decide(&descs, &gpu.config().sm, curves, now, audit),
        );
        if self.cfg.timing.algorithm_delay > 0 {
            self.phase = Phase::Deciding {
                until: now + self.cfg.timing.algorithm_delay,
            };
        } else {
            self.apply_decision(gpu);
        }
    }

    /// Installs the decision over the profiling windows: its quotas
    /// (Fig. 2d), or the spatial split when it fell back.
    fn apply_decision(&mut self, gpu: &mut Gpu) {
        // Phase-machine invariant: Applying follows Deciding, which stored
        // the decision. xtask-allow: no-unwrap
        let decision = self.decision.as_ref().expect("apply requires a decision");
        self.slicing = match &decision.quotas {
            Some(quotas) => Slicing::Quota(quotas.clone()),
            None => Slicing::Spatial,
        };
        self.slicing.install(gpu);
        let ids = gpu.kernel_ids();
        self.phase = Phase::Run;
        self.last_phase_check = gpu.cycle();
        self.phase_armed_at = gpu.cycle() + PHASE_SETTLE_WINDOWS * PHASE_WINDOW;
        self.last_kernel_insts = ids.iter().map(|&k| gpu.kernel_insts(k)).collect();
        self.monitors = ids.iter().map(|_| PhaseMonitor::paper_default()).collect();
        self.tracker.invalidate();
    }

    fn run_phase_monitor(&mut self, gpu: &mut Gpu) {
        let now = gpu.cycle();
        if now - self.last_phase_check < PHASE_WINDOW {
            return;
        }
        if now < self.phase_armed_at {
            // Settling: track instruction counts but do not feed monitors.
            self.last_phase_check = now;
            let ids = gpu.kernel_ids();
            for (i, &k) in ids.iter().enumerate() {
                self.last_kernel_insts[i] = gpu.kernel_insts(k);
            }
            return;
        }
        let window = (now - self.last_phase_check) as f64;
        self.last_phase_check = now;
        let ids = gpu.kernel_ids();
        let mut trigger = false;
        for (i, &k) in ids.iter().enumerate() {
            let insts = gpu.kernel_insts(k);
            let ipc = (insts - self.last_kernel_insts[i]) as f64 / window;
            self.last_kernel_insts[i] = insts;
            if gpu.kernel_meta(k).halted {
                continue;
            }
            let baseline = self.monitors[i].baseline();
            let triggered = self.monitors[i].observe(ipc);
            if self.cfg.audit {
                self.audit.record(AuditEvent::PhaseSample {
                    kernel: i,
                    cycle: now,
                    ipc,
                    baseline,
                    triggered,
                });
            }
            if triggered {
                trigger = true;
                // The memoized curve no longer describes this kernel:
                // invalidate exactly its key, so the re-profile below
                // misses, measures fresh, and replaces the entry.
                self.store_invalidate(i);
            }
        }
        if trigger {
            self.reprofiles += 1;
            self.enter_profile(gpu);
        }
    }
}

impl Controller for WarpedSlicerController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        let now = gpu.cycle();
        // A kernel arriving mid-run (Fig. 2e: "re-partitioning for the
        // third kernel") launches a fresh profiling phase over the new
        // kernel set; resident CTAs of the old set drain naturally.
        let nk = gpu.num_kernels();
        if self.known_kernels != nk {
            let first = self.known_kernels == 0;
            self.known_kernels = nk;
            if !first && !self.released {
                self.reprofiles += 1;
                self.enter_profile(gpu);
            }
        }
        match self.phase {
            Phase::Init => self.enter_profile(gpu),
            Phase::Warmup { until } if now >= until => {
                self.take_snapshots(gpu);
                self.phase = Phase::Sampling {
                    until: now + self.cfg.timing.sample,
                };
            }
            Phase::Sampling { until } if now >= until => self.decide(gpu),
            Phase::Deciding { until } if now >= until => self.apply_decision(gpu),
            Phase::Run if self.cfg.enable_phase_monitor && !self.released => {
                self.run_phase_monitor(gpu);
            }
            _ => {}
        }

        // Endgame: once any kernel halts, survivors get everything.
        if !self.released && gpu.halted_kernels() > 0 {
            self.released = true;
            self.slicing.release(gpu);
            self.phase = Phase::Run;
            self.tracker.invalidate();
        }

        if self.tracker.changed(gpu) {
            self.slicing.launch(gpu, None);
        }
    }

    fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    fn audit(&self) -> Option<&DecisionAudit> {
        self.cfg.audit.then_some(&self.audit)
    }

    fn next_intervention(&self) -> Option<u64> {
        match self.phase {
            // Init transitions on the very next `on_cycle`, so nothing may
            // be skipped.
            Phase::Init => Some(0),
            Phase::Warmup { until } | Phase::Sampling { until } | Phase::Deciding { until } => {
                Some(until)
            }
            Phase::Run if self.cfg.enable_phase_monitor && !self.released => {
                Some(self.last_phase_check + PHASE_WINDOW)
            }
            Phase::Run => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, SchedulerKind};
    use ws_workloads::by_abbrev;

    fn fast_cfg() -> WarpedSlicerConfig {
        WarpedSlicerConfig {
            timing: ProfileTiming {
                warmup: 2_000,
                sample: 2_000,
                algorithm_delay: 0,
            },
            // The plain 1..=N ramp: these tests pin its CTA counts.
            predict: false,
            ..WarpedSlicerConfig::default()
        }
    }

    fn run_pair(
        a: &str,
        b: &str,
        cycles: u64,
        cfg: WarpedSlicerConfig,
    ) -> (Gpu, WarpedSlicerController) {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.add_kernel(by_abbrev(a).unwrap().desc);
        gpu.add_kernel(by_abbrev(b).unwrap().desc);
        let mut c = WarpedSlicerController::new(cfg);
        for _ in 0..cycles {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        (gpu, c)
    }

    #[test]
    fn profiling_assigns_ramped_cta_counts() {
        let (gpu, c) = run_pair("IMG", "NN", 1_500, fast_cfg());
        assert!(matches!(c.phase, Phase::Warmup { .. }));
        // During profiling, SM 0 holds 1 CTA of IMG, SM 7 holds 8.
        assert_eq!(gpu.sm(0).kernel_ctas(0), 1);
        assert_eq!(gpu.sm(7).kernel_ctas(0), 8);
        assert_eq!(gpu.sm(0).kernel_ctas(1), 0, "exclusive profiling SMs");
        assert_eq!(gpu.sm(8).kernel_ctas(1), 1);
        assert_eq!(gpu.sm(15).kernel_ctas(1), 8);
    }

    #[test]
    fn predicted_windows_shape_the_profiling_ramp() {
        let cfg = WarpedSlicerConfig {
            predict: true,
            audit: true,
            ..fast_cfg()
        };
        let (gpu, c) = run_pair("IMG", "NN", 1_500, cfg);
        assert!(matches!(c.phase, Phase::Warmup { .. }));
        // The windowed ramp still anchors both ends of each group: 1 CTA on
        // the group's first SM, the guard at the feasibility bound on its
        // last (IMG and NN both cap at 8).
        assert_eq!(gpu.sm(0).kernel_ctas(0), 1);
        assert_eq!(gpu.sm(7).kernel_ctas(0), 8);
        assert_eq!(gpu.sm(8).kernel_ctas(1), 1);
        assert_eq!(gpu.sm(15).kernel_ctas(1), 8);
        // The audit holds the predicted curve and chosen window per kernel.
        let audit = c.audit.clone();
        for k in 0..2 {
            let (perf, knee) = audit.predicted_curve(k).expect("predicted curve");
            assert_eq!(perf.len(), 8);
            assert!((1..=8).contains(&knee));
        }
        assert!(audit
            .events
            .iter()
            .any(|e| matches!(e, AuditEvent::SweepWindow { .. })));
    }

    #[test]
    fn predicted_windows_still_reach_a_co_location_decision() {
        let cfg = WarpedSlicerConfig {
            predict: true,
            ..fast_cfg()
        };
        let (_, c) = run_pair("IMG", "NN", 40_000, cfg);
        let d = c.decision().expect("decision after sampling");
        assert!(!d.spatial_fallback, "IMG+NN should still co-locate");
        let quotas = d.quotas.as_ref().expect("feasible quotas");
        assert_eq!(quotas.len(), 2);
        assert!(quotas.iter().all(|&q| (1..=8).contains(&q)), "{quotas:?}");
    }

    #[test]
    fn decision_is_made_and_applied() {
        // Long enough for the profile-phase CTAs (which may exceed the new
        // quotas; Fig. 2e drains them naturally) to retire.
        let (gpu, c) = run_pair("IMG", "NN", 40_000, fast_cfg());
        let d = c.decision().expect("decision after sampling");
        assert!(!d.spatial_fallback, "IMG+NN should co-locate");
        let quotas = d.quotas.as_ref().unwrap();
        assert_eq!(quotas.len(), 2);
        // The paper's Fig. 3b intuition: IMG (saturating compute) gets more
        // CTAs than cache-sensitive NN's thrash point would allow it.
        assert!(quotas[0] >= 3, "IMG quota: {quotas:?}");
        assert!(quotas[1] <= 5, "NN quota: {quotas:?}");
        // Quotas enforced once the profile-phase residents have drained.
        for sm in gpu.sms() {
            assert!(sm.kernel_ctas(0) <= quotas[0]);
            assert!(sm.kernel_ctas(1) <= quotas[1]);
        }
    }

    #[test]
    fn tight_threshold_forces_spatial_fallback() {
        let cfg = WarpedSlicerConfig {
            loss_threshold: Some(0.001),
            ..fast_cfg()
        };
        let (gpu, c) = run_pair("LBM", "BLK", 12_000, cfg);
        let d = c.decision().expect("decision");
        assert!(
            d.spatial_fallback,
            "near-zero loss tolerance must fall back"
        );
        assert!(d.quotas.is_none());
        // Spatial mode: each kernel on its own SM group (new launches).
        let left_has_k1 = (0..8).any(|s| gpu.sm(s).kernel_ctas(1) > 0);
        assert!(!left_has_k1, "kernel 1 must not launch on kernel 0's SMs");
    }

    #[test]
    fn algorithm_delay_defers_application() {
        let cfg = WarpedSlicerConfig {
            timing: ProfileTiming {
                warmup: 1_000,
                sample: 1_000,
                algorithm_delay: 5_000,
            },
            ..fast_cfg()
        };
        let (_, c) = run_pair("IMG", "NN", 3_000, cfg.clone());
        assert!(matches!(c.phase, Phase::Deciding { .. }));
        let (_, c) = run_pair("IMG", "NN", 9_000, cfg);
        assert!(matches!(c.phase, Phase::Run));
    }

    #[test]
    fn halt_releases_partitions() {
        let (mut gpu, mut c) = run_pair("IMG", "NN", 12_000, fast_cfg());
        gpu.halt_kernel(gpu_sim::KernelId(1));
        for _ in 0..5_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert!(
            gpu.sms().any(|sm| sm.kernel_ctas(0) > 6),
            "IMG should expand once NN halts"
        );
    }

    #[test]
    fn stable_kernels_do_not_reprofile() {
        let (_, c) = run_pair("IMG", "NN", 40_000, fast_cfg());
        assert_eq!(c.reprofile_count(), 0);
    }

    #[test]
    fn late_arriving_kernel_triggers_repartitioning() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.add_kernel(by_abbrev("IMG").unwrap().desc);
        let mut c = WarpedSlicerController::new(fast_cfg());
        for _ in 0..8_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        let first = c.decision().expect("single-kernel decision").clone();
        assert_eq!(first.quotas.as_ref().map(Vec::len), Some(1));
        // A second kernel arrives: the controller must re-profile and make
        // a two-kernel decision.
        gpu.add_kernel(by_abbrev("NN").unwrap().desc);
        for _ in 0..8_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert!(c.reprofile_count() >= 1);
        let second = c.decision().expect("two-kernel decision");
        assert!(second.decided_at > first.decided_at);
        if let Some(q) = &second.quotas {
            assert_eq!(q.len(), 2, "{q:?}");
        }
        // The newcomer actually runs.
        assert!(gpu.kernel_insts(gpu_sim::KernelId(1)) > 0);
    }

    #[test]
    fn audit_records_a_replayable_decision() {
        let cfg = WarpedSlicerConfig {
            audit: true,
            ..fast_cfg()
        };
        let (_, c) = run_pair("IMG", "NN", 12_000, cfg);
        let audit = c.audit().expect("audit enabled");
        let d = c.decision().expect("decision made");
        let quotas = d.quotas.as_ref().expect("IMG+NN co-locate");
        // Every kernel's Eq. 2-4 applications were recorded with their
        // inputs, and the water-filling decision replays from the trace to
        // the same quota vector.
        assert!(audit.scaled_points(0).count() >= 1);
        assert!(audit.scaled_points(1).count() >= 1);
        assert_eq!(audit.last_quotas(), Some(quotas.as_slice()));
        let replayed = audit.replay_water_fill().expect("complete decision");
        assert_eq!(&replayed.ctas, quotas);
    }

    #[test]
    fn audit_is_off_by_default() {
        let (_, c) = run_pair("IMG", "NN", 12_000, fast_cfg());
        assert!(c.audit().is_none());
        assert!(c.decision().is_some());
    }

    #[test]
    fn both_kernels_progress_under_warped_slicer() {
        let (gpu, _) = run_pair("MM", "BLK", 15_000, fast_cfg());
        assert!(gpu.kernel_insts(gpu_sim::KernelId(0)) > 1_000);
        assert!(gpu.kernel_insts(gpu_sim::KernelId(1)) > 1_000);
    }

    #[test]
    fn store_warm_hit_skips_profiling_and_matches_cold_decision() {
        let store = SharedCurveStore::with_capacity(8);
        let cfg = WarpedSlicerConfig {
            store: Some(store.clone()),
            ..fast_cfg()
        };
        // First arrival: cold — pays the profiling sweep, inserts curves.
        let (_, cold) = run_pair("IMG", "NN", 12_000, cfg.clone());
        let cold_d = cold.decision().expect("cold decision").clone();
        assert_eq!(cold.warm_decision_count(), 0);
        assert!(
            cold_d.decided_at >= 4_000,
            "cold path pays warmup + sample ({})",
            cold_d.decided_at
        );
        assert_eq!(store.with(|s| s.len()), 2, "both curves memoized");

        // Repeat arrival: warm — decides immediately from the store, and
        // the decision is byte-identical to the cold one.
        let (_, warm) = run_pair("IMG", "NN", 200, cfg);
        assert_eq!(warm.warm_decision_count(), 1);
        let warm_d = warm.decision().expect("warm decision");
        assert!(
            warm_d.decided_at < 10,
            "no profiling phases on the warm path ({})",
            warm_d.decided_at
        );
        assert_eq!(warm_d.quotas, cold_d.quotas);
        assert_eq!(warm_d.spatial_fallback, cold_d.spatial_fallback);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&warm_d.predicted_perf), bits(&cold_d.predicted_perf));
        assert_eq!(warm_d.measured_curves.len(), cold_d.measured_curves.len());
        for (w, c) in warm_d.measured_curves.iter().zip(&cold_d.measured_curves) {
            assert_eq!(bits(w), bits(c), "warm curves bit-equal to cold");
        }
        assert!(warm.last_samples().is_empty(), "warm path has no samples");
    }

    #[test]
    fn store_keys_follow_kernel_arrivals() {
        // Keys are derived once per kernel set; a late arrival must extend
        // them, or its curve would never reach the store.
        let store = SharedCurveStore::with_capacity(8);
        let cfg = WarpedSlicerConfig {
            store: Some(store.clone()),
            ..fast_cfg()
        };
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.add_kernel(by_abbrev("IMG").unwrap().desc);
        let mut c = WarpedSlicerController::new(cfg.clone());
        for _ in 0..8_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert_eq!(store.with(|s| s.len()), 1, "IMG alone memoized");
        gpu.add_kernel(by_abbrev("NN").unwrap().desc);
        for _ in 0..8_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert_eq!(store.with(|s| s.len()), 2, "the newcomer's curve memoized");
        let (_, warm) = run_pair("IMG", "NN", 200, cfg);
        assert_eq!(warm.warm_decision_count(), 1, "the pair now decides warm");
    }

    #[test]
    fn store_audit_records_misses_then_hits() {
        let store = SharedCurveStore::with_capacity(8);
        let cfg = WarpedSlicerConfig {
            store: Some(store.clone()),
            audit: true,
            ..fast_cfg()
        };
        let (_, cold) = run_pair("IMG", "NN", 12_000, cfg.clone());
        let misses = cold
            .audit()
            .expect("audit enabled")
            .events
            .iter()
            .filter(|e| matches!(e, AuditEvent::StoreMiss { .. }))
            .count();
        assert_eq!(misses, 2, "first arrival misses both kernels");
        let (_, warm) = run_pair("IMG", "NN", 200, cfg);
        let audit = warm.audit().expect("audit enabled");
        let hits = audit
            .events
            .iter()
            .filter(|e| matches!(e, AuditEvent::StoreHit { .. }))
            .count();
        assert_eq!(hits, 2, "repeat arrival hits both kernels");
        // Warm decisions stay replayable from the audit alone.
        let d = warm.decision().expect("warm decision");
        let quotas = d.quotas.as_ref().expect("co-located");
        let replayed = audit.replay_water_fill().expect("complete decision");
        assert_eq!(&replayed.ctas, quotas);
    }
}
