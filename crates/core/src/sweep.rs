//! Prediction-driven pruning of the Fig. 3 profiling sweep.
//!
//! The full Fig. 3 sweep samples every CTA count `1..=N` per kernel. The
//! `ws-predict` static analyzer ([`ws_analyze::predict_kernel`]) predicts
//! each kernel's performance knee without simulating a cycle, which lets
//! the profiler concentrate its samples in a ±1 window around the
//! predicted knee and skip most of the tail.
//!
//! ## The sweep-pruning contract
//!
//! Water-filling consumes curves through `staircase`, which normalizes by
//! the curve's peak and keeps only *strictly increasing* prefix steps. A
//! pruned curve therefore yields **bit-identical quotas** to the full
//! sweep iff no unsampled point exceeds the maximum of the sampled prefix.
//! Statically that cannot be guaranteed — predictions err — so pruning is
//! *checked, never trusted*: every pruned sweep samples a guard point at
//! the feasibility bound `N` (plus a midpoint when the skipped gap is
//! wide), and [`accept_pruned`] only accepts when
//!
//! 1. every guard sample is at or below the sampled prefix maximum, and
//! 2. the curve is non-rising at the window's right edge
//!    (`curve[hi] <= curve[hi-1]`), i.e. the knee is visibly behind us.
//!
//! When either check fails the kernel falls back to the full sweep
//! (a second batch round in [`profile_curves_planned`]); the escape hatch
//! `WS_PREDICT=0` disables pruning globally. Accepted gaps are filled by
//! linear interpolation between sampled points — interpolated values are
//! bounded by their sampled endpoints, so they can never introduce a new
//! staircase step, which is what makes the accepted-pruned curve
//! water-fill-equivalent to the full sweep.

use std::sync::OnceLock;

use crate::profiler::interpolate_counts;
use crate::runner::{RunConfig, SimJob, SimStream};
use gpu_sim::{GpuConfig, KernelDesc};
use ws_analyze::{predict_kernel, PerfCurve};

/// Whether prediction-driven sweep pruning is enabled by default, read
/// once from the `WS_PREDICT` environment variable. On unless the
/// variable is set to `0`, `false`, or `off` — the escape hatch for
/// comparing against the unpruned Fig. 3 sweep.
#[must_use]
pub fn predict_default() -> bool {
    // One flag read from the environment once per process, the same for
    // every run; xtask-allow: no-global-state
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("WS_PREDICT") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off"
        ),
        Err(_) => true,
    })
}

/// One kernel's profiling window over the CTA axis: sample CTA counts
/// `lo..=hi` densely, guard the skipped tail, interpolate the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepWindow {
    /// First CTA count of the dense window (>= 1).
    pub lo: u32,
    /// Last CTA count of the dense window (`lo <= hi <= max`).
    pub hi: u32,
    /// The kernel's Eq. 1 feasibility bound `N` (curve length).
    pub max: u32,
}

impl SweepWindow {
    /// The unpruned window: sample every count `1..=max`.
    #[must_use]
    pub fn full(max: u32) -> Self {
        let max = max.max(1);
        Self {
            lo: 1,
            hi: max,
            max,
        }
    }

    /// A ±1 window around a predicted knee, clamped to `[1, max]`. The
    /// dense prefix always starts at 1 (water-filling needs the ramp up to
    /// the knee); `hi` is where dense sampling stops.
    #[must_use]
    pub fn around_knee(knee: u32, max: u32) -> Self {
        let max = max.max(1);
        Self {
            lo: 1,
            hi: knee.saturating_add(1).clamp(1, max),
            max,
        }
    }

    /// Whether this window samples the whole curve.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.lo <= 1 && self.hi >= self.max
    }

    /// The single most informative CTA count when only one sample can be
    /// taken: the predicted knee for a pruned window (the dense edge `hi`
    /// backs off the `+1` guard [`SweepWindow::around_knee`] added), the
    /// feasibility bound for a full window. One-SM profiling groups probe
    /// this count — a knee sample anchors the curve's ramp, where the
    /// guard-bound sample alone would flatline it.
    #[must_use]
    pub fn knee_cap(&self) -> u32 {
        if self.is_full() {
            self.max.max(1)
        } else {
            self.hi.saturating_sub(1).max(self.lo).max(1)
        }
    }

    /// The CTA counts a pruned offline sweep actually simulates: the dense
    /// prefix `lo..=hi`, a guard at `max`, and a midpoint guard when the
    /// skipped gap spans more than two counts. Sorted, deduplicated.
    #[must_use]
    pub fn planned_caps(&self) -> Vec<u32> {
        let mut caps: Vec<u32> = (self.lo.max(1)..=self.hi.min(self.max)).collect();
        if self.hi < self.max {
            let gap = self.max - self.hi;
            if gap > 2 {
                caps.push(self.hi + gap / 2);
            }
            caps.push(self.max);
        }
        caps.dedup();
        caps
    }
}

/// The one predict → window rule: a kernel whose `ws-predict` static
/// curve resolves gets a ±1 window around the predicted knee, returned
/// with that curve; a kernel the prediction's pre-flight rejects keeps its
/// full `1..=max` window — pruning is an optimization, never a gate.
#[must_use]
pub fn predicted_window(
    desc: &KernelDesc,
    max: u32,
    cfg: &GpuConfig,
) -> (SweepWindow, Option<PerfCurve>) {
    match predict_kernel(desc, cfg) {
        Ok(curve) => (SweepWindow::around_knee(curve.knee, max), Some(curve)),
        Err(_) => (SweepWindow::full(max), None),
    }
}

/// A per-kernel set of [`SweepWindow`]s for one profiling sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// One window per kernel, in kernel order.
    pub windows: Vec<SweepWindow>,
}

impl SweepPlan {
    /// The unpruned plan: full windows for every kernel.
    #[must_use]
    pub fn full(max_ctas: &[u32]) -> Self {
        Self {
            windows: max_ctas.iter().map(|&m| SweepWindow::full(m)).collect(),
        }
    }

    /// Builds a pruned plan from `ws-predict` static predictions: each
    /// kernel gets the window [`predicted_window`] picks for it.
    #[must_use]
    pub fn from_predictions(descs: &[&KernelDesc], max_ctas: &[u32], cfg: &GpuConfig) -> Self {
        let windows = descs
            .iter()
            .zip(max_ctas)
            .map(|(desc, &max)| predicted_window(desc, max, cfg).0)
            .collect();
        Self { windows }
    }

    /// Total simulation samples this plan schedules (first round).
    #[must_use]
    pub fn planned_samples(&self) -> usize {
        self.windows.iter().map(|w| w.planned_caps().len()).sum()
    }

    /// Samples the full (unpruned) sweep would schedule.
    #[must_use]
    pub fn full_samples(&self) -> usize {
        self.windows.iter().map(|w| w.max.max(1) as usize).sum()
    }

    /// Samples the plan avoids relative to the full sweep (before any
    /// fall-back rounds).
    #[must_use]
    pub fn samples_saved(&self) -> usize {
        self.full_samples().saturating_sub(self.planned_samples())
    }
}

/// Applies the sweep-pruning acceptance check to one kernel's sampled
/// points (`(cta_count, ipc)` pairs covering [`SweepWindow::planned_caps`])
/// and, on acceptance, synthesizes the full-length curve by linear
/// interpolation over the unsampled gap.
///
/// Returns `None` when the guards reject pruning — the sampled evidence is
/// consistent with the curve still rising past the window, so the caller
/// must sample the remaining counts to preserve water-fill equivalence.
#[must_use]
pub fn accept_pruned(samples: &[(u32, f64)], window: &SweepWindow) -> Option<Vec<f64>> {
    let n = window.max.max(1) as usize;
    let value_at =
        |cap: u32| -> Option<f64> { samples.iter().find(|(c, _)| *c == cap).map(|(_, v)| *v) };
    if window.is_full() {
        // Nothing was skipped: the samples *are* the curve.
        let curve: Option<Vec<f64>> = (1..=window.max).map(value_at).collect();
        return curve;
    }
    let prefix: Vec<f64> = (window.lo..=window.hi).map_while(value_at).collect();
    if prefix.len() != (window.hi - window.lo + 1) as usize || prefix.len() < 2 {
        return None;
    }
    let prefix_max = prefix.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // Guard 1: the curve must be non-rising at the window's right edge.
    let mut tail = prefix.iter().rev();
    let (last, before) = (tail.next()?, tail.next()?);
    if last > before {
        return None;
    }
    // Guard 2: every sampled point beyond the window stays at or below the
    // sampled prefix maximum (otherwise an unsampled point may form a new
    // staircase step and change the water-fill).
    let guards: Vec<(u32, f64)> = samples
        .iter()
        .copied()
        .filter(|(c, _)| *c > window.hi)
        .collect();
    if guards.is_empty() || guards.iter().any(|(_, v)| *v > prefix_max) {
        return None;
    }
    // Accepted: interpolate the gap between the window edge and the guards.
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0u32; n];
    for &(cap, v) in samples {
        if (1..=window.max).contains(&cap) {
            let j = (cap - 1) as usize;
            if let (Some(s), Some(c)) = (sums.get_mut(j), counts.get_mut(j)) {
                *s += v;
                *c += 1;
            }
        }
    }
    Some(interpolate_counts(&sums, &counts))
}

/// Result of a planned (possibly pruned) offline sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSweep {
    /// Full-length per-kernel curves: `curves[i][j]` = IPC of kernel `i` at
    /// `j + 1` CTAs (sampled or interpolated).
    pub curves: Vec<Vec<f64>>,
    /// Whether kernel `i`'s pruned window was accepted (`true`) or fell
    /// back to the full sweep (`false`).
    pub pruned: Vec<bool>,
    /// Simulation samples actually run, across both rounds.
    pub samples_run: usize,
}

/// Per-kernel bookkeeping for the pipelined sweep drain loop.
#[derive(Debug, Default, Clone)]
struct KernelProgress {
    /// Samples collected so far, `(cta_count, ipc)`.
    samples: Vec<(u32, f64)>,
    /// Outstanding jobs of the kernel's current round.
    pending: usize,
    /// Whether the full-sweep fallback round has been submitted.
    fallback: bool,
    /// The finished full-length curve, once decided.
    curve: Option<Vec<f64>>,
    /// Whether the pruned window was accepted.
    pruned: bool,
}

impl KernelProgress {
    /// Finalizes a fully sampled kernel: sort by CTA count, strip counts.
    fn finalize_full(&mut self) {
        let mut full = self.samples.clone();
        full.sort_by_key(|&(c, _)| c);
        self.curve = Some(full.iter().map(|&(_, v)| v).collect());
    }

    /// Accounts one delivered (kernel, cap) result against the current
    /// round; returns whether that delivery completed the round. A
    /// delivery with nothing outstanding is a double-delivery of some
    /// (kernel, cap) result — a checked invariant, because a saturating
    /// decrement would report it as a *spurious round completion* and
    /// re-run acceptance (or re-submit a fallback) on a half-sampled
    /// round. In release builds the duplicate is dropped instead.
    fn deliver(&mut self) -> bool {
        if self.pending == 0 {
            gpu_sim::strict_assert!(
                false,
                "duplicate delivery: sweep result arrived with no round outstanding"
            );
            return false;
        }
        self.pending -= 1;
        self.pending == 0
    }
}

/// Samples per-kernel performance-vs-CTA curves *offline*: the one
/// profile → [`accept_pruned`] → full-sweep-fallback loop. Each kernel's
/// [`SweepWindow::planned_caps`] run as independent [`SimJob::cta_cap`]
/// simulations of `window` cycles on `pool`; [`accept_pruned`] runs per
/// kernel, and every kernel whose pruning was rejected samples its
/// remaining CTA counts. Accepted kernels get interpolated full-length
/// curves; rejected kernels get fully sampled ones — either way
/// `curves[i]` has length `max(1, windows[i].max)`. Under
/// [`SweepPlan::full`] this is the dense Fig. 3 sweep: every count
/// `1..=max` is sampled and `curves[i][j]` is the measured IPC at `j + 1`
/// CTAs.
///
/// This is the batch analogue of the online profiling phase: where the
/// live controller samples all points simultaneously on disjoint SM groups
/// of one GPU, each point here gets its own dedicated simulation, trading
/// simulated time for sampling noise.
///
/// The sweep is **pipelined**, not staged: all planned samples go into one
/// [`SimStream`], acceptance for a kernel runs on the drain thread the
/// moment its last window sample finishes, and a rejected kernel's
/// full-sweep fallback jobs are re-submitted into the same stream
/// immediately — no global barrier between the rounds, so kernel A's
/// fallback simulates while kernel B's first-round windows are still in
/// flight. The result is byte-identical to draining each round as a
/// barriered batch, and to any worker count: samples are keyed by
/// `(kernel, cta_count)` and the acceptance check is order-insensitive.
/// The barriered shape was measured slower on cold co-run decisions, which
/// is why this loop streams.
///
/// # Panics
///
/// Panics if `descs` and `plan.windows` lengths differ, and re-raises the
/// lowest-submission-index job panic after the stream drains.
#[must_use]
pub fn profile_curves_planned(
    pool: &ws_exec::Pool,
    descs: &[&KernelDesc],
    plan: &SweepPlan,
    window: u64,
    cfg: &RunConfig,
) -> PlannedSweep {
    assert_eq!(
        descs.len(),
        plan.windows.len(),
        "one sweep window per kernel"
    );
    let mut stream = SimStream::new(pool);
    // tags[job id] = (kernel index, cta cap) — stream ids are sequential.
    let mut tags: Vec<(usize, u32)> = Vec::new();
    let mut kernels: Vec<KernelProgress> = vec![KernelProgress::default(); descs.len()];
    for ((i, desc), w) in descs.iter().enumerate().zip(&plan.windows) {
        let caps = w.planned_caps();
        if let Some(k) = kernels.get_mut(i) {
            k.pending = caps.len();
        }
        for &cap in &caps {
            tags.push((i, cap));
            stream.submit_job(&SimJob::cta_cap(desc, cap, window, cfg));
        }
    }
    let mut samples_run = tags.len();
    let mut first_panic: Option<ws_exec::JobPanic> = None;

    while let Some((id, result)) = stream.next() {
        let Some(&(i, cap)) = tags.get(id.0) else {
            continue;
        };
        match result {
            Ok(out) => {
                if let Some(k) = kernels.get_mut(i) {
                    k.samples.push((cap, out.measured_ipc()));
                }
            }
            Err(p) => {
                if first_panic.as_ref().is_none_or(|q| p.id < q.id) {
                    first_panic = Some(p);
                }
            }
        }
        let round_done = kernels.get_mut(i).is_some_and(KernelProgress::deliver);
        if !round_done {
            continue;
        }
        let (Some(k), Some(w), Some(desc)) =
            (kernels.get_mut(i), plan.windows.get(i), descs.get(i))
        else {
            continue;
        };
        if k.fallback {
            // The fallback round just finished: the kernel is fully
            // sampled.
            k.finalize_full();
            continue;
        }
        let mut sorted = k.samples.clone();
        sorted.sort_by_key(|&(c, _)| c);
        match accept_pruned(&sorted, w) {
            Some(curve) => {
                k.pruned = !w.is_full();
                k.curve = Some(curve);
            }
            None => {
                // Rejected: re-submit the missing counts into the same
                // stream, right now — other kernels' windows keep
                // simulating underneath this drain loop.
                k.fallback = true;
                let have: Vec<u32> = sorted.iter().map(|&(c, _)| c).collect();
                let mut missing = 0usize;
                for cap in 1..=w.max.max(1) {
                    if !have.contains(&cap) {
                        tags.push((i, cap));
                        stream.submit_job(&SimJob::cta_cap(desc, cap, window, cfg));
                        missing += 1;
                    }
                }
                samples_run += missing;
                if let Some(k) = kernels.get_mut(i) {
                    k.pending = missing;
                    if missing == 0 {
                        // Every count was already sampled (a window whose
                        // guards rejected but whose caps covered 1..=max).
                        k.finalize_full();
                    }
                }
            }
        }
    }
    if let Some(p) = first_panic {
        panic!("{p}");
    }

    PlannedSweep {
        curves: kernels
            .iter()
            .map(|k| k.curve.clone().unwrap_or_default())
            .collect(),
        pruned: kernels.iter().map(|k| k.pruned).collect(),
        samples_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVec;
    use crate::waterfill::{water_fill, KernelCurve};

    fn window(knee: u32, max: u32) -> SweepWindow {
        SweepWindow::around_knee(knee, max)
    }

    fn samples_for(curve: &[f64], w: &SweepWindow) -> Vec<(u32, f64)> {
        w.planned_caps()
            .iter()
            .map(|&cap| (cap, curve.get((cap - 1) as usize).copied().unwrap_or(0.0)))
            .collect()
    }

    #[test]
    fn full_window_covers_everything_and_saves_nothing() {
        let w = SweepWindow::full(8);
        assert!(w.is_full());
        assert_eq!(w.planned_caps(), (1..=8).collect::<Vec<_>>());
        let plan = SweepPlan::full(&[8, 6]);
        assert_eq!(plan.samples_saved(), 0);
    }

    #[test]
    fn knee_window_samples_prefix_guard_and_midpoint() {
        let w = window(2, 8);
        assert_eq!(
            w,
            SweepWindow {
                lo: 1,
                hi: 3,
                max: 8
            }
        );
        // Dense prefix 1..=3, midpoint (3 + 5/2 = 5), guard at 8.
        assert_eq!(w.planned_caps(), vec![1, 2, 3, 5, 8]);
        let plan = SweepPlan {
            windows: vec![w, SweepWindow::full(6)],
        };
        assert_eq!(plan.planned_samples(), 5 + 6);
        assert_eq!(plan.full_samples(), 8 + 6);
        assert_eq!(plan.samples_saved(), 3);
    }

    #[test]
    fn knee_near_max_degenerates_to_full() {
        let w = window(7, 8);
        assert!(w.is_full());
        assert_eq!(w.planned_caps().len(), 8);
    }

    #[test]
    fn declining_tail_is_accepted_and_interpolated() {
        // A cache-sensitive shape: peak at 2, declining tail.
        let full = [0.8, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4];
        let w = window(2, 8);
        let curve = accept_pruned(&samples_for(&full, &w), &w).expect("accepted");
        assert_eq!(curve.len(), 8);
        // Sampled points are exact.
        for &cap in &[1usize, 2, 3, 5, 8] {
            assert!((curve[cap - 1] - full[cap - 1]).abs() < 1e-12, "{curve:?}");
        }
        // Interpolated points never exceed the sampled prefix max.
        let prefix_max = 1.0;
        assert!(curve.iter().all(|&v| v <= prefix_max + 1e-12));
    }

    #[test]
    fn rising_tail_is_rejected() {
        // Compute-scaling shape: still rising at the window edge and the
        // guard at max exceeds the prefix — both guards must fire.
        let full = [0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0];
        let w = window(2, 8);
        assert!(accept_pruned(&samples_for(&full, &w), &w).is_none());
    }

    #[test]
    fn hidden_hump_is_caught_by_the_guard() {
        // Flat through the window, but an unsampled hump at the guard
        // point: the guard sample exceeds the prefix max, so pruning is
        // rejected even though the window edge is non-rising.
        let full = [0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.3];
        let w = window(2, 8);
        assert!(accept_pruned(&samples_for(&full, &w), &w).is_none());
    }

    #[test]
    fn missing_samples_reject() {
        let w = window(2, 8);
        assert!(accept_pruned(&[(1, 0.5)], &w).is_none());
    }

    #[test]
    fn accepted_pruned_curve_is_water_fill_equivalent() {
        // The contract in one test: for a declining-tail curve paired with
        // a compute kernel, the accepted pruned curve and the full curve
        // produce identical quotas.
        let cache = [0.8, 1.0, 0.7, 0.6, 0.5, 0.45, 0.4, 0.35];
        let compute = [0.25, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0];
        let w = window(2, 8);
        let pruned = accept_pruned(&samples_for(&cache, &w), &w).expect("accepted");
        let cap = ResourceVec {
            regs: 32768,
            shmem: 48 * 1024,
            threads: 1536,
            ctas: 8,
        };
        let cost_a = ResourceVec {
            regs: 3072,
            shmem: 0,
            threads: 192,
            ctas: 1,
        };
        let cost_b = ResourceVec {
            regs: 4096,
            shmem: 0,
            threads: 128,
            ctas: 1,
        };
        let with = |perf: Vec<f64>| {
            water_fill(
                &[
                    KernelCurve {
                        perf,
                        cta_cost: cost_a,
                    },
                    KernelCurve {
                        perf: compute.to_vec(),
                        cta_cost: cost_b,
                    },
                ],
                cap,
            )
            .expect("feasible")
        };
        assert_eq!(with(pruned).ctas, with(cache.to_vec()).ctas);
    }

    #[test]
    fn predict_default_reads_env_once() {
        // Whatever the ambient value, the gate is stable across calls.
        assert_eq!(predict_default(), predict_default());
    }

    #[test]
    fn knee_cap_is_the_predicted_knee_for_pruned_windows() {
        assert_eq!(window(2, 8).knee_cap(), 2);
        assert_eq!(window(4, 8).knee_cap(), 4);
        // Full windows probe the feasibility bound, like the plain ramp.
        assert_eq!(SweepWindow::full(8).knee_cap(), 8);
        assert_eq!(SweepWindow::full(1).knee_cap(), 1);
        // A knee at 1 keeps the cap at least 1.
        assert_eq!(window(1, 8).knee_cap(), 1);
    }

    #[test]
    fn deliver_counts_down_and_completes_the_round_once() {
        let mut k = KernelProgress {
            pending: 2,
            ..KernelProgress::default()
        };
        assert!(!k.deliver(), "first of two results: round still open");
        assert!(k.deliver(), "second result completes the round");
    }

    #[test]
    fn duplicate_delivery_is_a_checked_invariant() {
        let mut k = KernelProgress {
            pending: 1,
            ..KernelProgress::default()
        };
        assert!(k.deliver());
        // A second delivery of the same (kernel, cap) result must not be
        // reported as another round completion: strict builds panic,
        // release builds drop the duplicate.
        if let Some(completed) = crate::strict::violation("duplicate delivery", || k.deliver()) {
            assert!(!completed);
            assert_eq!(k.pending, 0);
        }
    }
}
