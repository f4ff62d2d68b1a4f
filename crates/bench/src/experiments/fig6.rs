//! Fig. 6: normalized combined IPC of all 30 application pairs under
//! Spatial, Even, and Warped-Slicer (Dynamic), normalized to the Left-Over
//! baseline — optionally with the exhaustive Oracle.

use std::sync::Arc;

use gpu_sim::KernelDesc;
use warped_slicer::{run_oracle, CorunResult, RunConfig};
use ws_workloads::{all_pairs, Benchmark, Pair, PairCategory};

use crate::context::ExperimentContext;
use crate::report::{f2, gmean, Table};

/// Results for one pair under every policy.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// The workload pair.
    pub pair: Pair,
    /// Left-Over baseline run.
    pub left_over: CorunResult,
    /// Spatial multitasking run.
    pub spatial: CorunResult,
    /// Even intra-SM partitioning run.
    pub even: CorunResult,
    /// Warped-Slicer run.
    pub dynamic: CorunResult,
    /// Best exhaustive result, when the Oracle search was enabled.
    pub oracle_ipc: Option<f64>,
}

impl PairResult {
    /// Normalized IPC of `r` against this pair's Left-Over baseline.
    #[must_use]
    pub fn normalized(&self, r: &CorunResult) -> f64 {
        r.combined_ipc / self.left_over.combined_ipc.max(1e-12)
    }

    /// (spatial, even, dynamic, oracle) normalized IPCs.
    #[must_use]
    pub fn normalized_all(&self) -> (f64, f64, f64, Option<f64>) {
        (
            self.normalized(&self.spatial),
            self.normalized(&self.even),
            self.normalized(&self.dynamic),
            self.oracle_ipc
                .map(|o| o / self.left_over.combined_ipc.max(1e-12)),
        )
    }
}

/// The full Fig. 6 dataset.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// Per-pair results in Table III order.
    pub pairs: Vec<PairResult>,
}

impl Fig6Data {
    /// Pairs belonging to `category`.
    pub fn category(&self, category: PairCategory) -> impl Iterator<Item = &PairResult> {
        self.pairs
            .iter()
            .filter(move |p| p.pair.category == category)
    }

    /// Geometric-mean normalized IPC over all pairs per policy:
    /// (spatial, even, dynamic, oracle-if-any).
    #[must_use]
    pub fn gmeans(&self) -> (f64, f64, f64, Option<f64>) {
        let collect =
            |f: &dyn Fn(&PairResult) -> f64| -> Vec<f64> { self.pairs.iter().map(f).collect() };
        let spatial = gmean(&collect(&|p| p.normalized(&p.spatial)));
        let even = gmean(&collect(&|p| p.normalized(&p.even)));
        let dynamic = gmean(&collect(&|p| p.normalized(&p.dynamic)));
        let oracle = if self.pairs.iter().all(|p| p.oracle_ipc.is_some()) {
            let os: Vec<f64> = self
                .pairs
                .iter()
                // Invariant: the all() guard above established oracle_ipc
                // is Some for every pair. xtask-allow: no-unwrap
                .map(|p| p.normalized_all().3.expect("checked"))
                .collect();
            Some(gmean(&os))
        } else {
            None
        };
        (spatial, even, dynamic, oracle)
    }
}

/// Runs one pair under every policy.
pub fn run_pair(ctx: &ExperimentContext, pair: &Pair, with_oracle: bool) -> PairResult {
    run_pairs(ctx, std::slice::from_ref(pair), with_oracle).swap_remove(0)
}

/// Runs every pair under every policy as one job batch (`pairs x 4` corun
/// jobs), then — when requested — fans the per-pair exhaustive Oracle
/// searches out over the pool.
pub fn run_pairs(ctx: &ExperimentContext, pairs: &[Pair], with_oracle: bool) -> Vec<PairResult> {
    let workloads: Vec<Vec<&Benchmark>> = pairs.iter().map(|p| vec![&p.a, &p.b]).collect();
    let results = ctx.policy_batch(&workloads);
    let oracle: Vec<Option<f64>> = if with_oracle {
        // Targets are already memoized by the corun batch, so each job is
        // pure search over one pair's quota grid. The pool's job closures
        // are `'static`, so each job owns its inputs: the kernel descs,
        // the (caller-resolved) instruction targets, and a shared config.
        let cfg = Arc::new(ctx.cfg.clone());
        let searches: Vec<(KernelDesc, KernelDesc, Vec<u64>, Arc<RunConfig>)> = pairs
            .iter()
            .map(|p| {
                let targets = ctx.targets(&[&p.a, &p.b]);
                (
                    p.a.desc.clone(),
                    p.b.desc.clone(),
                    targets,
                    Arc::clone(&cfg),
                )
            })
            .collect();
        ctx.pool().run(&searches, |(a, b, targets, cfg)| {
            Some(run_oracle(&[a, b], targets, cfg).best.combined_ipc)
        })
    } else {
        vec![None; pairs.len()]
    };
    pairs
        .iter()
        .zip(results)
        .zip(oracle)
        .map(
            |((pair, [left_over, spatial, even, dynamic]), oracle_best)| {
                // The Oracle is the best of *everything*, including Dynamic
                // itself.
                let oracle_ipc = oracle_best.map(|o| o.max(dynamic.combined_ipc));
                PairResult {
                    pair: pair.clone(),
                    left_over,
                    spatial,
                    even,
                    dynamic,
                    oracle_ipc,
                }
            },
        )
        .collect()
}

/// Runs all 30 pairs. `with_oracle` adds the exhaustive search (slow).
pub fn compute(ctx: &ExperimentContext, with_oracle: bool) -> Fig6Data {
    Fig6Data {
        pairs: run_pairs(ctx, &all_pairs(), with_oracle),
    }
}

/// Machine-readable Fig. 6 data: one row per pair with normalized IPCs.
#[must_use]
pub fn csv(data: &Fig6Data) -> String {
    let mut t = Table::new(vec![
        "pair",
        "category",
        "spatial",
        "even",
        "dynamic",
        "oracle",
        "leftover_ipc",
    ]);
    for p in &data.pairs {
        let (s, e, d, o) = p.normalized_all();
        t.row(vec![
            p.pair.label(),
            p.pair.category.to_string(),
            format!("{s:.4}"),
            format!("{e:.4}"),
            format!("{d:.4}"),
            o.map_or(String::new(), |o| format!("{o:.4}")),
            format!("{:.4}", p.left_over.combined_ipc),
        ]);
    }
    t.to_csv()
}

/// Renders the Fig. 6 table (three category blocks + GMEAN row).
#[must_use]
pub fn render(data: &Fig6Data) -> String {
    let mut out = String::from("Fig. 6: normalized IPC (vs. Left-Over)\n");
    for cat in [
        PairCategory::ComputeCache,
        PairCategory::ComputeMemory,
        PairCategory::ComputeCompute,
    ] {
        out.push_str(&format!("\n({cat})\n"));
        let mut t = Table::new(vec!["Pair", "Spatial", "Even", "Dynamic", "Oracle"]);
        let mut sp = Vec::new();
        let mut ev = Vec::new();
        let mut dy = Vec::new();
        let mut or = Vec::new();
        for p in data.category(cat) {
            let (s, e, d, o) = p.normalized_all();
            sp.push(s);
            ev.push(e);
            dy.push(d);
            if let Some(o) = o {
                or.push(o);
            }
            t.row(vec![
                p.pair.label(),
                f2(s),
                f2(e),
                f2(d),
                o.map_or(String::from("-"), f2),
            ]);
        }
        t.row(vec![
            "GMEAN".to_string(),
            f2(gmean(&sp)),
            f2(gmean(&ev)),
            f2(gmean(&dy)),
            if or.is_empty() {
                "-".to_string()
            } else {
                f2(gmean(&or))
            },
        ]);
        out.push_str(&t.render());
    }
    let (s, e, d, o) = data.gmeans();
    out.push_str(&format!(
        "\nGMEAN of ALL 30 pairs: Spatial {} | Even {} | Dynamic {} | Oracle {}\n",
        f2(s),
        f2(e),
        f2(d),
        o.map_or("-".to_string(), f2)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::by_abbrev;

    #[test]
    fn single_pair_produces_consistent_normalization() {
        let ctx = ExperimentContext::new(10_000);
        let pair = Pair {
            a: by_abbrev("IMG").unwrap(),
            b: by_abbrev("NN").unwrap(),
            category: PairCategory::ComputeCache,
        };
        let r = run_pair(&ctx, &pair, false);
        let (s, e, d, o) = r.normalized_all();
        assert!(o.is_none());
        assert!(s > 0.5 && e > 0.5 && d > 0.5, "({s}, {e}, {d})");
        assert!((r.normalized(&r.left_over) - 1.0).abs() < 1e-12);
        assert!(!r.left_over.timed_out);
    }
}
