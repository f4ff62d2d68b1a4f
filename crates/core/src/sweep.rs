//! Prediction-driven pruning of the Fig. 3 profiling sweep.
//!
//! The full sweep samples every CTA count `1..=N` per kernel. A pruned
//! [`SweepWindow`] samples the dense prefix up to one past the `ws-predict`
//! knee, a guard at `N` and a midpoint guard when the skipped gap is wide.
//! Pruning is *checked, never trusted*: [`accept_pruned`] accepts only
//! when the curve is non-rising at the window's right edge and every guard
//! sample stays at or below the sampled prefix maximum. Water-filling
//! keeps only strictly increasing staircase steps, and interpolated points
//! are bounded by their sampled endpoints, so an accepted curve yields the
//! full sweep's quotas bit for bit (DESIGN.md §12). A rejected kernel
//! falls back to the full sweep (a second round in
//! [`profile_curves_planned`]); [`SweepPlan::full`] turns pruning off.

use crate::decider::{Decider, SampleRounds};
use crate::profiler::interpolate_counts;
use crate::runner::{execute, RunConfig, SimJob, SimOutcome};
use gpu_sim::{GpuConfig, KernelDesc};

/// One kernel's profiling window over the CTA axis: sample CTA counts
/// `1..=hi` densely, guard the skipped tail, interpolate the rest.
/// [`SweepWindow::full`] and [`SweepWindow::around_knee`] are the only
/// constructors, so `1 <= hi <= max` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepWindow {
    /// Last CTA count of the dense prefix.
    hi: u32,
    /// The kernel's Eq. 1 feasibility bound `N` (curve length).
    max: u32,
}

impl SweepWindow {
    /// The unpruned window: sample every count `1..=max`.
    #[must_use]
    pub fn full(max: u32) -> Self {
        let max = max.max(1);
        Self { hi: max, max }
    }

    /// A ±1 window around a predicted knee, clamped to `[1, max]`. The
    /// dense prefix always starts at 1 (water-filling needs the ramp up to
    /// the knee); `hi` is where dense sampling stops.
    #[must_use]
    pub fn around_knee(knee: u32, max: u32) -> Self {
        let max = max.max(1);
        Self {
            hi: knee.saturating_add(1).clamp(1, max),
            max,
        }
    }

    /// Last CTA count of the dense prefix `1..=hi`.
    #[must_use]
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// The kernel's Eq. 1 feasibility bound `N` (curve length).
    #[must_use]
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Whether this window samples the whole curve.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.hi == self.max
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
            self.max
        } else {
            self.hi.saturating_sub(1).max(1)
        }
    }

    /// The CTA counts a pruned offline sweep actually simulates: the dense
    /// prefix `1..=hi`, a guard at `max`, and a midpoint guard when the
    /// skipped gap spans more than two counts. Strictly increasing.
    #[must_use]
    pub fn planned_caps(&self) -> Vec<u32> {
        let mut caps: Vec<u32> = (1..=self.hi).collect();
        if self.hi < self.max {
            let gap = self.max - self.hi;
            if gap > 2 {
                caps.push(self.hi + gap / 2);
            }
            caps.push(self.max);
        }
        caps
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
    /// kernel gets the window the `Decider::plan` rule picks for it.
    #[must_use]
    pub fn from_predictions(descs: &[&KernelDesc], max_ctas: &[u32], cfg: &GpuConfig) -> Self {
        let decider = Decider {
            predict: true,
            loss_threshold: None,
        };
        decider.plan(descs, max_ctas, cfg, None)
    }

    /// Total simulation samples this plan schedules (first round).
    #[must_use]
    pub fn planned_samples(&self) -> usize {
        self.windows.iter().map(|w| w.planned_caps().len()).sum()
    }

    /// Samples the full (unpruned) sweep would schedule.
    #[must_use]
    pub fn full_samples(&self) -> usize {
        self.windows.iter().map(|w| w.max as usize).sum()
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
    let n = window.max as usize;
    let value_at =
        |cap: u32| -> Option<f64> { samples.iter().find(|(c, _)| *c == cap).map(|(_, v)| *v) };
    if window.is_full() {
        // Nothing was skipped: the samples *are* the curve.
        let curve: Option<Vec<f64>> = (1..=window.max).map(value_at).collect();
        return curve;
    }
    let prefix: Vec<f64> = (1..=window.hi).map_while(value_at).collect();
    if prefix.len() != window.hi as usize || prefix.len() < 2 {
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

/// Samples per-kernel performance-vs-CTA curves *offline*: a stream
/// driver over each kernel's `SampleRounds`, the one profile →
/// [`accept_pruned`] → full-sweep-fallback rule. Every sample is an
/// independent [`SimJob::cta_cap`] simulation of `window` cycles on
/// `pool`. `curves[i]` has length `windows[i].max()`: interpolated
/// for an accepted window, fully sampled for a rejected or full one. Under
/// [`SweepPlan::full`] this is the dense Fig. 3 sweep.
///
/// All planned samples go into one [`ws_exec::Stream`]; each result is
/// delivered to the rounds on the drain thread, and a rejected window's
/// fallback samples are submitted into the same stream at once, with no
/// barrier between rounds (DESIGN.md §14). The result is byte-identical at
/// any worker count.
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
    let mut rounds = Vec::with_capacity(plan.windows.len());
    let mut queue = Vec::new();
    for (kernel, w) in plan.windows.iter().enumerate() {
        let (r, caps) = SampleRounds::open(w);
        rounds.push(r);
        queue.extend(caps.into_iter().map(|cap| (kernel, cap)));
    }
    let mut stream = pool.stream::<SimOutcome>();
    // tags[job id] = (kernel index, cta cap) — stream ids are sequential.
    let mut tags: Vec<(usize, u32)> = Vec::new();
    let mut first_panic: Option<ws_exec::JobPanic> = None;
    loop {
        for (kernel, cap) in queue.drain(..) {
            tags.push((kernel, cap));
            if let Some(desc) = descs.get(kernel) {
                let job = SimJob::cta_cap(desc, cap, window, cfg);
                stream.submit(move || execute(&job));
            }
        }
        let Some((id, result)) = stream.next() else {
            break;
        };
        let Some(&(kernel, cap)) = tags.get(id.0) else {
            continue;
        };
        let ipc = match result {
            Ok(out) => Some(out.measured_ipc()),
            Err(p) => {
                if first_panic.as_ref().is_none_or(|q| p.id < q.id) {
                    first_panic = Some(p);
                }
                None
            }
        };
        let Some(r) = rounds.get_mut(kernel) else {
            continue;
        };
        // A rejected window's fallback round goes into the same stream at
        // the top of the next iteration, while other kernels' windows keep
        // simulating underneath.
        queue.extend(r.sample(cap, ipc).into_iter().map(|c| (kernel, c)));
    }
    if let Some(p) = first_panic {
        panic!("{p}");
    }
    let (curves, pruned) = rounds.into_iter().map(SampleRounds::finish).unzip();
    PlannedSweep {
        curves,
        pruned,
        samples_run: tags.len(),
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
        assert_eq!((w.hi(), w.max()), (3, 8));
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
    fn every_constructible_window_plans_a_valid_ramp() {
        for max in 1..=32u32 {
            let windows = std::iter::once(SweepWindow::full(max))
                .chain((0..=40).map(|knee| SweepWindow::around_knee(knee, max)));
            for w in windows {
                let caps = w.planned_caps();
                assert_eq!(caps.first(), Some(&1), "{w:?}");
                assert_eq!(caps.last(), Some(&w.max()), "{w:?}");
                assert_eq!(w.max(), max, "{w:?}");
                assert!(caps.windows(2).all(|p| p[0] < p[1]), "{w:?}: {caps:?}");
                assert!((1..=w.hi()).all(|c| caps.contains(&c)), "{w:?}");
                assert!(caps.contains(&w.knee_cap()), "{w:?}");
                assert_eq!(w.is_full(), w.hi() == w.max(), "{w:?}");
            }
        }
    }
}
