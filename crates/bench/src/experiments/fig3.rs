//! Fig. 3a: normalized performance vs. CTA occupancy per benchmark, and
//! Fig. 3b: the sweet-spot identification for the IMG + NN pair.

use warped_slicer::Decider;
#[cfg(test)]
use ws_workloads::ScalingArchetype;
use ws_workloads::{by_abbrev, suite, Benchmark};

use crate::context::ExperimentContext;
use crate::report::{f2, Table};

/// One benchmark's occupancy-scaling curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// The benchmark.
    pub bench: Benchmark,
    /// Raw GPU IPC at 1..=max CTAs per SM.
    pub ipc: Vec<f64>,
}

impl Curve {
    /// The curve normalized to its peak.
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        let peak = self.ipc.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        self.ipc.iter().map(|x| x / peak).collect()
    }

    /// Index (0-based) of the peak.
    #[must_use]
    pub fn peak_index(&self) -> usize {
        self.ipc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }
}

/// Sweeps benchmarks over every CTA count up to their baseline occupancy,
/// submitting all `Σ max_ctas` points as one job batch.
pub fn sweep_all(ctx: &ExperimentContext, benches: &[&Benchmark], window: u64) -> Vec<Curve> {
    let max_ctas: Vec<u32> = benches.iter().map(|b| b.max_ctas_baseline()).collect();
    ctx.cta_sweeps(benches, &max_ctas, window)
        .into_iter()
        .zip(benches)
        .map(|(ipc, b)| Curve {
            bench: (*b).clone(),
            ipc,
        })
        .collect()
}

/// Sweeps one benchmark over every CTA count.
pub fn sweep(ctx: &ExperimentContext, bench: &Benchmark, window: u64) -> Curve {
    sweep_all(ctx, &[bench], window).swap_remove(0)
}

/// Sweeps the full suite (Fig. 3a).
pub fn compute(ctx: &ExperimentContext, window: u64) -> Vec<Curve> {
    let benches = suite();
    sweep_all(ctx, &benches.iter().collect::<Vec<_>>(), window)
}

/// Renders Fig. 3a.
#[must_use]
pub fn render(curves: &[Curve]) -> String {
    let mut t = Table::new(vec![
        "App", "Class", "1", "2", "3", "4", "5", "6", "7", "8", "PeakIPC",
    ]);
    for c in curves {
        let norm = c.normalized();
        let mut cells = vec![
            c.bench.abbrev.to_string(),
            format!("{:?}", c.bench.archetype),
        ];
        for j in 0..8 {
            cells.push(norm.get(j).map_or(String::new(), |v| f2(*v)));
        }
        cells.push(f2(c.ipc.iter().copied().fold(0.0f64, f64::max)));
        t.row(cells);
    }
    format!(
        "Fig. 3a: normalized IPC vs. CTAs per SM (isolation)\n{}",
        t.render()
    )
}

/// Machine-readable Fig. 3a data (raw IPC, one row per benchmark x CTA
/// count) for external plotting.
#[must_use]
pub fn csv(curves: &[Curve]) -> String {
    let mut t = Table::new(vec!["app", "archetype", "ctas", "ipc", "normalized"]);
    for c in curves {
        let norm = c.normalized();
        for (j, (&ipc, &n)) in c.ipc.iter().zip(&norm).enumerate() {
            t.row(vec![
                c.bench.abbrev.to_string(),
                format!("{:?}", c.bench.archetype),
                format!("{}", j + 1),
                format!("{ipc:.4}"),
                format!("{n:.4}"),
            ]);
        }
    }
    t.to_csv()
}

/// Fig. 3b data: the two mirrored curves and the sweet spot the
/// water-filling algorithm picks for IMG + NN.
#[derive(Debug, Clone)]
pub struct SweetSpot {
    /// IMG's curve.
    pub img: Curve,
    /// NN's curve.
    pub nn: Curve,
    /// CTA split chosen by Algorithm 1 on the measured curves.
    pub chosen: Vec<u32>,
    /// Normalized per-kernel performance at the chosen split.
    pub perf: Vec<f64>,
}

/// Computes Fig. 3b.
pub fn compute_sweet_spot(ctx: &ExperimentContext, window: u64) -> SweetSpot {
    // Static suite abbreviations. xtask-allow: no-unwrap
    let img_bench = by_abbrev("IMG").expect("IMG in suite");
    let nn_bench = by_abbrev("NN").expect("NN in suite"); // xtask-allow: no-unwrap
    let mut curves = sweep_all(ctx, &[&img_bench, &nn_bench], window);
    let nn = curves.swap_remove(1);
    let img = curves.swap_remove(0);
    let d = Decider::WITHOUT_FALLBACK.decide(
        &[&img.bench.desc, &nn.bench.desc],
        &ctx.cfg.gpu.sm,
        vec![img.ipc.clone(), nn.ipc.clone()],
        0,
        None,
    );
    SweetSpot {
        img,
        nn,
        // Invariant: both kernels fit one CTA each on the ISCA baseline SM,
        // and a Decider without fallback keeps every feasible partition.
        // xtask-allow: no-unwrap
        chosen: d.quotas.expect("IMG+NN is feasible"),
        perf: d.predicted_perf,
    }
}

/// Renders Fig. 3b.
#[must_use]
pub fn render_sweet_spot(s: &SweetSpot) -> String {
    let img = s.img.normalized();
    let nn = s.nn.normalized();
    let mut t = Table::new(vec!["IMG CTAs", "IMG perf", "NN CTAs", "NN perf", "min"]);
    // Mirrored axes as in the figure: every row is a complete split of the
    // 8 CTA slots (IMG k, NN max-k).
    let max = img.len().max(nn.len());
    for i in 0..max.saturating_sub(1) {
        let img_n = i + 1;
        let nn_n = max - 1 - i;
        let pi = img.get(img_n - 1).copied().unwrap_or(0.0);
        let pn = nn.get(nn_n - 1).copied().unwrap_or(0.0);
        t.row(vec![
            format!("{img_n}"),
            f2(pi),
            format!("{nn_n}"),
            f2(pn),
            f2(pi.min(pn)),
        ]);
    }
    format!(
        "Fig. 3b: sweet-spot identification for IMG + NN\n{}\nWater-filling picks IMG={} NN={} (normalized perf {} / {})\n",
        t.render(),
        s.chosen[0],
        s.chosen[1],
        f2(s.perf[0]),
        f2(s.perf[1]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetypes_emerge_from_sweeps() {
        // Memory-bound kernels need a window long enough for the DRAM
        // queues to reach equilibrium.
        let ctx = ExperimentContext::new(12_000);
        let curves = compute(&ctx, 12_000);
        for c in &curves {
            let norm = c.normalized();
            let peak = c.peak_index();
            match c.bench.archetype {
                ScalingArchetype::ComputeNonSaturating => {
                    // Still climbing near the end.
                    assert!(
                        peak + 1 >= norm.len().saturating_sub(1),
                        "{}: peak at {peak} of {}",
                        c.bench.abbrev,
                        norm.len()
                    );
                    assert!(norm[0] < 0.5, "{} grows a lot", c.bench.abbrev);
                }
                ScalingArchetype::ComputeSaturating => {
                    assert!(norm[0] < 0.6, "{} starts low", c.bench.abbrev);
                    let half = norm.len() / 2;
                    assert!(norm[half] > 0.6, "{} saturates", c.bench.abbrev);
                }
                ScalingArchetype::MemorySaturating => {
                    // Bandwidth-bound: already substantial at one CTA and
                    // near peak within the first half of the range.
                    let half = norm.len().div_ceil(2);
                    let early_peak = norm.iter().take(half).copied().fold(0.0f64, f64::max);
                    assert!(
                        norm[0] > 0.4 && early_peak > 0.78,
                        "{} saturates fast: {norm:?}",
                        c.bench.abbrev
                    );
                }
                ScalingArchetype::CacheSensitive => {
                    assert!(
                        peak < norm.len() - 1,
                        "{} peaks early: {norm:?}",
                        c.bench.abbrev
                    );
                    assert!(
                        *norm.last().unwrap() < 0.9,
                        "{} declines: {norm:?}",
                        c.bench.abbrev
                    );
                }
            }
        }
    }

    #[test]
    fn sweet_spot_is_asymmetric() {
        let ctx = ExperimentContext::new(6_000);
        let s = compute_sweet_spot(&ctx, 6_000);
        // IMG keeps scaling, NN thrashes: IMG gets more CTAs than NN.
        assert!(s.chosen[0] > s.chosen[1], "{:?}", s.chosen);
        assert!(render_sweet_spot(&s).contains("Water-filling picks"));
    }
}
