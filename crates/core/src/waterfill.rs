//! The discrete water-filling partitioning algorithm (Algorithm 1).
//!
//! Given each kernel's performance-vs-CTA-count curve and per-CTA resource
//! footprint, find the CTA quota vector `(T_1..T_K)` that maximizes the
//! *minimum* normalized performance across kernels, subject to the SM's
//! capacity (Eq. 1):
//!
//! ```text
//! max  min_i P(i, T_i)   s.t.  Σ_i R_{T_i} <= R_tot
//! ```
//!
//! The algorithm runs in `O(KN)` time and space (K kernels, N CTA counts):
//! it repeatedly picks the kernel whose current normalized performance is
//! lowest and grants it the minimum number of additional CTAs that yields an
//! incremental performance improvement, until resources run out or every
//! kernel is saturated. This mirrors classical water-filling in
//! communication systems, adapted to discrete, non-convex curves.

use crate::resources::ResourceVec;

/// One kernel's input to the partitioner.
#[derive(Debug, Clone)]
pub struct KernelCurve {
    /// `perf[j]` is the measured/predicted performance with `j + 1` CTAs.
    /// Values need not be normalized; the algorithm normalizes to the
    /// curve's maximum. Non-monotonic (even non-convex) curves are fine.
    pub perf: Vec<f64>,
    /// Resource footprint of one CTA.
    pub cta_cost: ResourceVec,
}

/// The partitioner's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// CTAs granted to each kernel.
    pub ctas: Vec<u32>,
    /// Normalized performance `P(i, T_i)` each kernel achieves at its grant.
    pub perf: Vec<f64>,
}

impl Partition {
    /// The minimum normalized performance across kernels (the objective of
    /// Eq. 1).
    #[must_use]
    pub fn min_perf(&self) -> f64 {
        self.perf.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Per-kernel performance loss `1 - P(i, T_i)` relative to each
    /// kernel's solo peak.
    #[must_use]
    pub fn losses(&self) -> Vec<f64> {
        self.perf.iter().map(|p| 1.0 - p).collect()
    }
}

/// Whether Algorithm 1 is defined on `kernels`: at least one kernel, and
/// every curve non-empty with only finite, non-negative entries. A NaN,
/// infinite or negative entry breaks the peak normalization, so such a
/// curve would be granted CTAs at a performance it never reaches.
fn curves_are_valid(kernels: &[KernelCurve]) -> bool {
    !kernels.is_empty()
        && kernels
            .iter()
            .all(|k| !k.perf.is_empty() && k.perf.iter().all(|p| p.is_finite() && *p >= 0.0))
}

/// The curve's peak normaliser: its maximum, or 1 for an all-zero curve.
fn norm_of(perf: &[f64]) -> f64 {
    let peak = perf.iter().copied().fold(0.0f64, f64::max);
    if peak > 0.0 {
        peak
    } else {
        1.0
    }
}

/// One kernel's progress up the monotone staircase of its curve during the
/// main loop.
///
/// The staircase is the sequence of points whose normalized performance
/// beats every point before it; a lane walks it in place. It starts at
/// `(1 CTA, perf[0] / norm)`, matching the initial grant `T_i = 1`, and its
/// next step is the first later point strictly above the current level.
struct Lane<'a> {
    /// The curve after the point currently achieved.
    rest: &'a [f64],
    /// The curve's peak normaliser.
    norm: f64,
    cta_cost: &'a ResourceVec,
    /// Normalized performance at the point currently achieved.
    level: f64,
    /// CTAs granted so far (the `T_i` being built up).
    ctas: u32,
    /// Saturated: no further step exists or the next step does not fit.
    full: bool,
}

impl<'a> Lane<'a> {
    /// A lane at its initial one-CTA grant, or `None` for an empty curve.
    fn new(k: &'a KernelCurve) -> Option<Self> {
        let (&first, rest) = k.perf.split_first()?;
        let norm = norm_of(&k.perf);
        Some(Self {
            rest,
            norm,
            cta_cost: &k.cta_cost,
            level: first / norm,
            ctas: 1,
            full: false,
        })
    }

    /// The next step: how many more CTAs it takes, its offset into
    /// `rest`, and its normalized performance.
    fn next_step(&self) -> Option<(u32, usize, f64)> {
        (1u32..)
            .zip(self.rest.iter().enumerate())
            .find_map(|(d_t, (at, &p))| {
                let q = p / self.norm;
                (q > self.level).then_some((d_t, at, q))
            })
    }
}

/// One Algorithm 1 grant, for decision-audit traces: after the grant, the
/// lane for `kernel` holds `ctas` CTAs at normalized performance `perf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterFillStep {
    /// Kernel whose lane was raised (the initial one-CTA grants are
    /// recorded too, in kernel order).
    pub kernel: usize,
    /// The lane's CTA total after the grant.
    pub ctas: u32,
    /// The lane's normalized performance after the grant.
    pub perf: f64,
}

/// Runs Algorithm 1.
///
/// Returns `None` when even one CTA per kernel does not fit in `total` (the
/// caller should then fall back to spatial multitasking), or when a curve is
/// empty or holds a non-finite or negative value.
///
/// # Examples
///
/// A kernel that keeps scaling shares an SM with one that thrashes the L1
/// past two CTAs; the partitioner gives the scaler the slots the thrasher
/// cannot use:
///
/// ```
/// use warped_slicer::waterfill::{water_fill, KernelCurve};
/// use warped_slicer::resources::ResourceVec;
///
/// let cta = |threads| ResourceVec { regs: 2048, shmem: 0, threads, ctas: 1 };
/// let scaler = KernelCurve {
///     perf: vec![0.25, 0.5, 0.75, 1.0],
///     cta_cost: cta(128),
/// };
/// let thrasher = KernelCurve {
///     perf: vec![0.9, 1.0, 0.6, 0.4],
///     cta_cost: cta(128),
/// };
/// let cap = ResourceVec { regs: 32768, shmem: 48 * 1024, threads: 1536, ctas: 8 };
/// let p = water_fill(&[scaler, thrasher], cap).expect("feasible");
/// assert_eq!(p.ctas, vec![4, 2]);
/// ```
#[must_use]
pub fn water_fill(kernels: &[KernelCurve], total: ResourceVec) -> Option<Partition> {
    water_fill_with(kernels, total, &mut |_| {})
}

/// [`water_fill`] with a step sink for audit trails: every grant — the K
/// initial one-CTA grants and each main-loop raise — is passed to `step` in
/// execution order. On an infeasible instance the sink has seen the grants
/// made before the algorithm gave up.
#[must_use]
pub(crate) fn water_fill_with(
    kernels: &[KernelCurve],
    total: ResourceVec,
    step: &mut impl FnMut(WaterFillStep),
) -> Option<Partition> {
    if !curves_are_valid(kernels) {
        return None;
    }

    // Initialization: one CTA per kernel (lines 6-15).
    let mut left = total;
    let mut lanes: Vec<Lane> = Vec::with_capacity(kernels.len());
    for (i, k) in kernels.iter().enumerate() {
        if !left.covers(&k.cta_cost) {
            return None;
        }
        left = left.saturating_sub(&k.cta_cost);
        let lane = Lane::new(k)?;
        step(WaterFillStep {
            kernel: i,
            ctas: 1,
            perf: lane.level,
        });
        lanes.push(lane);
    }

    // Main loop (lines 16-32): raise the worst performer step by step.
    loop {
        let mut selected: Option<usize> = None;
        let mut min_perf = f64::INFINITY;
        for (i, lane) in lanes.iter().enumerate() {
            if !lane.full && lane.level < min_perf {
                min_perf = lane.level;
                selected = Some(i);
            }
        }
        let Some(sel) = selected else {
            break; // every kernel full
        };
        let Some(lane) = lanes.get_mut(sel) else {
            break;
        };
        match lane.next_step() {
            Some((d_t, at, level)) => {
                let need = lane.cta_cost.times(u64::from(d_t));
                if left.covers(&need) {
                    left = left.saturating_sub(&need);
                    lane.rest = lane.rest.get(at + 1..).unwrap_or_default();
                    lane.level = level;
                    lane.ctas += d_t;
                    step(WaterFillStep {
                        kernel: sel,
                        ctas: lane.ctas,
                        perf: level,
                    });
                } else {
                    lane.full = true;
                }
            }
            // No further incremental improvement exists for this kernel.
            None => lane.full = true,
        }
    }

    let p = Partition {
        ctas: lanes.iter().map(|lane| lane.ctas).collect(),
        perf: lanes.iter().map(|lane| lane.level).collect(),
    };
    if gpu_sim::invariant::enabled() {
        assert_partition_feasible(kernels, &total, &p);
        strict_oracle_check(kernels, total, &p);
    }
    Some(p)
}

/// Panics if `p` is not a feasible answer to Eq. 1 for `kernels` under
/// `total`: wrong arity, a zero-CTA grant, or an aggregate footprint the SM
/// cannot hold.
///
/// [`water_fill`] runs this on every partition it returns when strict
/// invariants are compiled in (see [`gpu_sim::invariant::enabled`]); it is
/// public so policies that post-process partitions can re-validate them.
pub fn assert_partition_feasible(kernels: &[KernelCurve], total: &ResourceVec, p: &Partition) {
    assert!(
        p.ctas.len() == kernels.len() && p.perf.len() == kernels.len(),
        "infeasible partition: {} quotas / {} perf entries for {} kernels",
        p.ctas.len(),
        p.perf.len(),
        kernels.len()
    );
    let mut used = ResourceVec::zero();
    for (i, (k, &t)) in kernels.iter().zip(&p.ctas).enumerate() {
        assert!(t >= 1, "infeasible partition: kernel {i} granted zero CTAs");
        used = used.plus(&k.cta_cost.times(u64::from(t)));
    }
    assert!(
        total.covers(&used),
        "infeasible partition: quotas {:?} need {used:?} but the SM only has \
         {total:?} (Eq. 1 violated)",
        p.ctas
    );
}

/// For small instances, checks the water-filling answer against the
/// exhaustive [`brute_force`] optimum on the Eq. 1 objective.
fn strict_oracle_check(kernels: &[KernelCurve], total: ResourceVec, p: &Partition) {
    let states: usize = kernels
        .iter()
        .map(|k| k.perf.len())
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    if kernels.len() > 3 || states > 4096 {
        return;
    }
    if let Some(oracle) = brute_force(kernels, total) {
        assert!(
            p.min_perf() >= oracle.min_perf() - 1e-9,
            "water-filling lost to the exhaustive oracle: min perf {} at \
             quotas {:?} vs {} at {:?}",
            p.min_perf(),
            p.ctas,
            oracle.min_perf(),
            oracle.ctas
        );
    }
}

/// Exhaustive-search reference: maximizes the same objective by trying every
/// feasible CTA combination (`O(N^K)`). Used by tests and the Oracle policy.
///
/// Tie-breaking: among partitions with equal minimum performance, prefers
/// the one with the larger *sum* of normalized performance. Returns `None`
/// on the same invalid curves as [`water_fill`].
#[must_use]
pub fn brute_force(kernels: &[KernelCurve], total: ResourceVec) -> Option<Partition> {
    if !curves_are_valid(kernels) {
        return None;
    }
    let norm: Vec<Vec<f64>> = kernels
        .iter()
        .map(|k| {
            let d = norm_of(&k.perf);
            k.perf.iter().map(|p| p / d).collect()
        })
        .collect();
    let mut best: Option<(f64, f64, Vec<u32>)> = None;
    let mut current = vec![1u32; kernels.len()];
    search(kernels, &norm, total, 0, &mut current, &mut best);
    let (_, _, ctas) = best?;
    let perf = ctas
        .iter()
        .zip(&norm)
        // u32 -> usize never truncates. xtask-allow: no-lossy-cast
        .map(|(&t, n)| n.get(t as usize - 1).copied().unwrap_or(0.0))
        .collect();
    Some(Partition { ctas, perf })
}

fn search(
    kernels: &[KernelCurve],
    norm: &[Vec<f64>],
    left: ResourceVec,
    i: usize,
    current: &mut Vec<u32>,
    best: &mut Option<(f64, f64, Vec<u32>)>,
) {
    let Some(kernel) = kernels.get(i) else {
        // Leaf: every kernel has a tentative grant; score the combination.
        let mut min_p = f64::INFINITY;
        let mut sum_p = 0.0;
        for (n, &t) in norm.iter().zip(current.iter()) {
            // u32 -> usize never truncates. xtask-allow: no-lossy-cast
            let p = n.get(t as usize - 1).copied().unwrap_or(0.0);
            min_p = min_p.min(p);
            sum_p += p;
        }
        let better = match best {
            None => true,
            Some((bm, bs, _)) => {
                min_p > *bm + 1e-12 || ((min_p - *bm).abs() <= 1e-12 && sum_p > *bs)
            }
        };
        if better {
            *best = Some((min_p, sum_p, current.clone()));
        }
        return;
    };
    let max_t = u32::try_from(kernel.perf.len()).unwrap_or(u32::MAX);
    for t in 1..=max_t {
        let need = kernel.cta_cost.times(u64::from(t));
        if !left.covers(&need) {
            break;
        }
        if let Some(slot) = current.get_mut(i) {
            *slot = t;
        }
        search(
            kernels,
            norm,
            left.saturating_sub(&need),
            i + 1,
            current,
            best,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(regs: u64, threads: u64) -> ResourceVec {
        ResourceVec {
            regs,
            shmem: 0,
            threads,
            ctas: 1,
        }
    }

    fn cap() -> ResourceVec {
        ResourceVec {
            regs: 32768,
            shmem: 48 * 1024,
            threads: 1536,
            ctas: 8,
        }
    }

    #[test]
    fn single_kernel_gets_peak() {
        // Saturating curve peaking at 6 CTAs.
        let k = KernelCurve {
            perf: vec![0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.0, 1.0],
            cta_cost: cost(1000, 64),
        };
        let p = water_fill(&[k], cap()).unwrap();
        assert_eq!(p.ctas, vec![6], "no CTAs wasted past the plateau");
        assert!((p.perf[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig3b_sweet_spot() {
        // The IMG + NN illustration: an even split starves IMG by ~30%,
        // while 60/40 loses only ~10% each. 8 slots, symmetric costs.
        let img = KernelCurve {
            perf: vec![0.24, 0.47, 0.66, 0.84, 0.90, 0.95, 0.99, 1.0],
            cta_cost: cost(1792 * 2, 128),
        };
        let nn = KernelCurve {
            perf: vec![0.71, 0.90, 1.0, 1.0, 0.76, 0.67, 0.61, 0.57],
            cta_cost: cost(1792 * 2, 128),
        };
        let p = water_fill(&[img.clone(), nn.clone()], cap()).unwrap();
        // IMG should get more CTAs than an even split would give it.
        assert!(p.ctas[0] >= 4, "IMG CTAs: {:?}", p.ctas);
        assert!(p.ctas[1] <= 4);
        assert!(p.min_perf() > 0.8, "min perf {:?}", p.perf);
        // And it should match the exhaustive optimum on the objective.
        let b = brute_force(&[img, nn], cap()).unwrap();
        assert!((p.min_perf() - b.min_perf()).abs() < 1e-9);
    }

    #[test]
    fn respects_resource_capacity() {
        let k1 = KernelCurve {
            perf: vec![0.5, 0.8, 1.0],
            cta_cost: cost(12000, 512),
        };
        let k2 = KernelCurve {
            perf: vec![0.6, 0.9, 1.0],
            cta_cost: cost(12000, 512),
        };
        let p = water_fill(&[k1.clone(), k2.clone()], cap()).unwrap();
        let used = k1
            .cta_cost
            .times(u64::from(p.ctas[0]))
            .plus(&k2.cta_cost.times(u64::from(p.ctas[1])));
        assert!(cap().covers(&used));
        // 32768 regs / 12000 per CTA = at most 2 total... threads: 1536/512=3.
        assert!(p.ctas[0] + p.ctas[1] <= 2);
    }

    #[test]
    fn infeasible_pair_returns_none() {
        let huge = KernelCurve {
            perf: vec![1.0],
            cta_cost: cost(20000, 1024),
        };
        assert!(water_fill(&[huge.clone(), huge], cap()).is_none());
        assert!(water_fill(&[], cap()).is_none());
    }

    #[test]
    fn all_zero_curve_is_granted_one_cta() {
        // An all-zero curve has no improving step past its first entry; it
        // used to leave the staircase empty and panic on lookup. It should
        // simply keep its initial one-CTA grant at zero performance.
        let dead = KernelCurve {
            perf: vec![0.0, 0.0, 0.0],
            cta_cost: cost(1000, 64),
        };
        let live = KernelCurve {
            perf: vec![0.5, 1.0],
            cta_cost: cost(1000, 64),
        };
        let p = water_fill(&[dead, live], cap()).unwrap();
        assert_eq!(p.ctas, vec![1, 2]);
        assert!((p.perf[0] - 0.0).abs() < 1e-12);
        assert!((p.perf[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_curve_returns_none() {
        let k = KernelCurve {
            perf: vec![],
            cta_cost: cost(1, 1),
        };
        assert!(water_fill(&[k], cap()).is_none());
    }

    #[test]
    fn worst_performer_is_raised_first() {
        // Kernel A saturates instantly; kernel B needs CTAs. B should get
        // the lion's share of the 8 slots.
        let a = KernelCurve {
            perf: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            cta_cost: cost(100, 32),
        };
        let b = KernelCurve {
            perf: vec![0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
            cta_cost: cost(100, 32),
        };
        let p = water_fill(&[a, b], cap()).unwrap();
        assert_eq!(p.ctas, vec![1, 7]);
    }

    #[test]
    fn non_convex_curve_skips_the_valley() {
        // Perf dips at 3-4 CTAs and recovers at 5: the staircase jumps
        // straight from 2 to 5.
        let k = KernelCurve {
            perf: vec![0.4, 0.6, 0.5, 0.55, 1.0],
            cta_cost: cost(1000, 64),
        };
        let p = water_fill(&[k], cap()).unwrap();
        assert_eq!(p.ctas, vec![5]);
    }

    #[test]
    fn three_kernels_partition() {
        let mk = |peak_at: usize| KernelCurve {
            perf: (1..=8)
                .map(|j| (j as f64 / peak_at as f64).min(1.0))
                .collect(),
            cta_cost: cost(2000, 128),
        };
        let p = water_fill(&[mk(2), mk(4), mk(6)], cap()).unwrap();
        assert_eq!(p.ctas.len(), 3);
        let total: u32 = p.ctas.iter().sum();
        assert!(total <= 8);
        // The slow-saturating kernel gets the most CTAs.
        assert!(p.ctas[2] >= p.ctas[1] && p.ctas[1] >= p.ctas[0]);
    }

    #[test]
    #[should_panic(expected = "Eq. 1 violated")]
    fn infeasible_partition_is_rejected() {
        let k = KernelCurve {
            perf: vec![0.5, 1.0],
            cta_cost: cost(20000, 512),
        };
        // Two CTAs each need 40000 registers; the SM has 32768.
        let bogus = Partition {
            ctas: vec![2],
            perf: vec![1.0],
        };
        assert_partition_feasible(&[k], &cap(), &bogus);
    }

    #[test]
    #[should_panic(expected = "zero CTAs")]
    fn zero_cta_grant_is_rejected() {
        let k = KernelCurve {
            perf: vec![1.0],
            cta_cost: cost(1, 1),
        };
        let bogus = Partition {
            ctas: vec![0],
            perf: vec![0.0],
        };
        assert_partition_feasible(&[k], &cap(), &bogus);
    }

    #[test]
    fn water_fill_output_is_feasible() {
        // assert_partition_feasible also runs inside water_fill under strict
        // invariants; exercise the public entry point explicitly too.
        let ks = [
            KernelCurve {
                perf: vec![0.3, 0.6, 1.0],
                cta_cost: cost(4000, 256),
            },
            KernelCurve {
                perf: vec![0.8, 1.0],
                cta_cost: cost(6000, 256),
            },
        ];
        let p = water_fill(&ks, cap()).unwrap();
        assert_partition_feasible(&ks, &cap(), &p);
    }

    #[test]
    fn traced_steps_end_at_the_final_quotas() {
        let scaler = KernelCurve {
            perf: vec![0.25, 0.5, 0.75, 1.0],
            cta_cost: cost(2048, 128),
        };
        let thrasher = KernelCurve {
            perf: vec![0.9, 1.0, 0.6, 0.4],
            cta_cost: cost(2048, 128),
        };
        let mut steps = Vec::new();
        let p = water_fill_with(&[scaler, thrasher], cap(), &mut |s| steps.push(s)).unwrap();
        // The first K steps are the initial one-CTA grants, in kernel order.
        assert_eq!(
            steps[0],
            WaterFillStep {
                kernel: 0,
                ctas: 1,
                perf: 0.25
            }
        );
        assert_eq!(steps[1].kernel, 1);
        assert_eq!(steps[1].ctas, 1);
        // Each kernel's last recorded grant is its final quota.
        for (i, &quota) in p.ctas.iter().enumerate() {
            let last = steps.iter().rev().find(|s| s.kernel == i).unwrap();
            assert_eq!(last.ctas, quota);
        }
        // And the untraced entry point agrees.
        assert_eq!(
            water_fill(
                &[
                    KernelCurve {
                        perf: vec![0.25, 0.5, 0.75, 1.0],
                        cta_cost: cost(2048, 128)
                    },
                    KernelCurve {
                        perf: vec![0.9, 1.0, 0.6, 0.4],
                        cta_cost: cost(2048, 128)
                    },
                ],
                cap()
            )
            .unwrap(),
            p
        );
    }

    /// The precomputed staircase `water_fill` walked before it walked each
    /// curve in place, verbatim: `q[d]` is the best performance reachable
    /// with `m[d]` CTAs, strictly increasing in both.
    struct Staircase {
        q: Vec<f64>,
        m: Vec<u32>,
    }

    fn staircase(perf: &[f64]) -> Staircase {
        let peak = perf.iter().copied().fold(0.0f64, f64::max);
        let norm = if peak > 0.0 { peak } else { 1.0 };
        let mut q = Vec::new();
        let mut m = Vec::new();
        let mut best = f64::NEG_INFINITY;
        for (ctas, &p) in (1u32..).zip(perf.iter()) {
            let p = p / norm;
            if p > best {
                best = p;
                q.push(p);
                m.push(ctas);
            }
        }
        Staircase { q, m }
    }

    /// Algorithm 1 over precomputed staircases, as `water_fill_with` ran it
    /// before the in-place walk (without the strict-invariant checks).
    fn reference_water_fill(
        kernels: &[KernelCurve],
        total: ResourceVec,
        step: &mut impl FnMut(WaterFillStep),
    ) -> Option<Partition> {
        struct RefLane<'a> {
            stair: Staircase,
            cta_cost: &'a ResourceVec,
            step: usize,
            ctas: u32,
            full: bool,
        }
        let perf = |lane: &RefLane| lane.stair.q.get(lane.step).copied().unwrap_or(0.0);
        if kernels.is_empty() || kernels.iter().any(|k| k.perf.is_empty()) {
            return None;
        }
        let mut left = total;
        let mut lanes = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            if !left.covers(&k.cta_cost) {
                return None;
            }
            left = left.saturating_sub(&k.cta_cost);
            let lane = RefLane {
                stair: staircase(&k.perf),
                cta_cost: &k.cta_cost,
                step: 0,
                ctas: 1,
                full: false,
            };
            step(WaterFillStep {
                kernel: i,
                ctas: 1,
                perf: perf(&lane),
            });
            lanes.push(lane);
        }
        loop {
            let mut selected: Option<usize> = None;
            let mut min_perf = f64::INFINITY;
            for (i, lane) in lanes.iter().enumerate() {
                if !lane.full && perf(lane) < min_perf {
                    min_perf = perf(lane);
                    selected = Some(i);
                }
            }
            let Some(sel) = selected else {
                break;
            };
            let lane = &mut lanes[sel];
            match (lane.stair.m.get(lane.step), lane.stair.m.get(lane.step + 1)) {
                (Some(&cur), Some(&next)) => {
                    let d_t = next - cur;
                    let need = lane.cta_cost.times(u64::from(d_t));
                    if left.covers(&need) {
                        left = left.saturating_sub(&need);
                        lane.step += 1;
                        lane.ctas += d_t;
                        step(WaterFillStep {
                            kernel: sel,
                            ctas: lane.ctas,
                            perf: perf(lane),
                        });
                    } else {
                        lane.full = true;
                    }
                }
                _ => lane.full = true,
            }
        }
        Some(Partition {
            ctas: lanes.iter().map(|lane| lane.ctas).collect(),
            perf: lanes.iter().map(perf).collect(),
        })
    }

    /// A random curve of 1..=8 points drawn from a few levels, so plateaus,
    /// ties and zeros are common, with a falling tail half the time.
    fn random_curve(rng: &mut gpu_sim::SimRng) -> Vec<f64> {
        const LEVELS: [f64; 6] = [0.0, 0.25, 0.5, 0.5, 0.75, 1.0];
        let n = 1 + rng.range_usize(8);
        let mut perf: Vec<f64> = (0..n)
            .map(|_| match LEVELS.get(rng.range_usize(LEVELS.len() + 2)) {
                Some(&level) => level * 3.0,
                None => rng.unit_f64() * 3.0,
            })
            .collect();
        if rng.range_u64(2) == 0 {
            let from = rng.range_usize(n);
            for j in from..n {
                perf[j] = perf[from] * 0.8f64.powi(i32::try_from(j - from).unwrap_or(0));
            }
        }
        perf
    }

    #[test]
    fn in_place_staircase_matches_the_precomputed_one() {
        let mut rng = gpu_sim::SimRng::seed_from_u64(0x57a1_0001);
        let mut raises = 0usize;
        for case in 0..3_000 {
            let k = 2 + rng.range_usize(3);
            let ks: Vec<KernelCurve> = (0..k)
                .map(|_| KernelCurve {
                    perf: random_curve(&mut rng),
                    cta_cost: cost(1000 + 1000 * rng.range_u64(8), 32 * (1 + rng.range_u64(8))),
                })
                .collect();
            let (mut steps, mut ref_steps) = (Vec::new(), Vec::new());
            let p = water_fill_with(&ks, cap(), &mut |s| steps.push(s));
            let r = reference_water_fill(&ks, cap(), &mut |s| ref_steps.push(s));
            let bits = |p: &Option<Partition>| {
                p.as_ref().map(|p| {
                    (
                        p.ctas.clone(),
                        p.perf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    )
                })
            };
            assert_eq!(bits(&p), bits(&r), "case {case}: {ks:?}");
            let step_bits = |s: &[WaterFillStep]| {
                s.iter()
                    .map(|s| (s.kernel, s.ctas, s.perf.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                step_bits(&steps),
                step_bits(&ref_steps),
                "case {case}: {ks:?}"
            );
            raises += steps.len().saturating_sub(k);
        }
        assert!(raises > 3_000, "the cases exercise the main loop");
    }

    #[test]
    fn non_finite_or_negative_curves_are_rejected() {
        // Each of these used to be partitioned and misreported against a
        // linear partner: NaN first gave `ctas [1, 4]` at `perf [1, 1]`
        // (one CTA at the two-CTA peak), `[inf, 0.5]` gave perf 0 and
        // `[-1, -0.5]` gave perf -0.5.
        let partner = KernelCurve {
            perf: vec![0.25, 0.5, 0.75, 1.0],
            cta_cost: cost(1000, 64),
        };
        for bad in [
            vec![f64::NAN, 1.0, 1.0, 1.0],
            vec![f64::INFINITY, 0.5],
            vec![-1.0, -0.5],
            vec![0.5, f64::NEG_INFINITY],
        ] {
            let ks = [
                partner.clone(),
                KernelCurve {
                    perf: bad.clone(),
                    cta_cost: cost(1000, 64),
                },
            ];
            assert_eq!(water_fill(&ks, cap()), None, "{bad:?}");
            assert_eq!(brute_force(&ks, cap()), None, "{bad:?}");
            let mut steps = Vec::new();
            assert_eq!(water_fill_with(&ks, cap(), &mut |s| steps.push(s)), None);
            assert!(steps.is_empty(), "{bad:?}: no grant before the refusal");
        }
    }

    #[test]
    fn matches_brute_force_on_taxing_cases() {
        // A deterministic battery of awkward shapes.
        let shapes: Vec<Vec<f64>> = vec![
            vec![0.9, 0.2, 1.0, 0.1, 0.95, 0.97, 0.99, 1.0],
            vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3],
            vec![0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 1.0],
            vec![0.5; 8],
        ];
        for a in &shapes {
            for b in &shapes {
                let ks = [
                    KernelCurve {
                        perf: a.clone(),
                        cta_cost: cost(3000, 128),
                    },
                    KernelCurve {
                        perf: b.clone(),
                        cta_cost: cost(2000, 192),
                    },
                ];
                let wf = water_fill(&ks, cap()).unwrap();
                let bf = brute_force(&ks, cap()).unwrap();
                assert!(
                    wf.min_perf() >= bf.min_perf() - 1e-9,
                    "waterfill {:?} vs brute {:?} on {a:?}/{b:?}",
                    wf,
                    bf
                );
            }
        }
    }
}
