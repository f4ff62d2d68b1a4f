//! Sec. V-H: the "less contended" configuration — 256 KB register file,
//! 96 KB shared memory, 32 CTA slots and 64 warps per SM. The paper reports
//! Warped-Slicer still improving performance and fairness by ~26 %.

use gpu_sim::GpuConfig;
use warped_slicer::{fairness, PolicyKind, RunConfig};
use ws_workloads::Pair;

use crate::context::ExperimentContext;
use crate::report::{f2, gmean, Table};

/// One pair's outcome under the large configuration.
#[derive(Debug, Clone)]
pub struct LargeRow {
    /// Workload label.
    pub label: String,
    /// Dynamic combined IPC normalized to Left-Over.
    pub dynamic_ipc: f64,
    /// Dynamic fairness normalized to Left-Over.
    pub dynamic_fairness: f64,
}

/// Runs the subset pairs (or any provided list) under the Sec. V-H config,
/// submitting all `pairs x 2` runs as one job batch.
pub fn compute(isolation_cycles: u64, pairs: &[Pair]) -> Vec<LargeRow> {
    compute_on(&ExperimentContext::new(isolation_cycles), pairs)
}

/// [`compute`] with `ctx`'s run configuration (its GPU swapped for the
/// large one) and on its pool, so an observer of `ctx` sees the
/// simulations it runs.
pub fn compute_on(ctx: &ExperimentContext, pairs: &[Pair]) -> Vec<LargeRow> {
    let ctx = ctx.for_config(RunConfig {
        gpu: GpuConfig::large(),
        ..ctx.cfg.clone()
    });
    let runs: Vec<(Vec<&ws_workloads::Benchmark>, PolicyKind)> = pairs
        .iter()
        .flat_map(|p| {
            [
                (vec![&p.a, &p.b], PolicyKind::LeftOver),
                (vec![&p.a, &p.b], ctx.dynamic_policy()),
            ]
        })
        .collect();
    let results = ctx.corun_batch(&runs);
    pairs
        .iter()
        .zip(results.chunks(2))
        .map(|(p, chunk)| {
            let [lo, dy] = chunk else {
                unreachable!("corun_batch returns two results per pair")
            };
            let iso = ctx.isolated_cycles(&[&p.a, &p.b]);
            LargeRow {
                label: format!("{}_{}", p.a.abbrev, p.b.abbrev),
                dynamic_ipc: dy.combined_ipc / lo.combined_ipc.max(1e-12),
                dynamic_fairness: fairness(dy, &iso) / fairness(lo, &iso).max(1e-12),
            }
        })
        .collect()
}

/// Renders Sec. V-H.
#[must_use]
pub fn render(rows: &[LargeRow]) -> String {
    let mut t = Table::new(vec!["Pair", "Dynamic IPC vs LO", "Dynamic fairness vs LO"]);
    for r in rows {
        t.row(vec![
            r.label.clone(),
            f2(r.dynamic_ipc),
            f2(r.dynamic_fairness),
        ]);
    }
    let g_ipc = gmean(&rows.iter().map(|r| r.dynamic_ipc).collect::<Vec<_>>());
    let g_fair = gmean(&rows.iter().map(|r| r.dynamic_fairness).collect::<Vec<_>>());
    t.row(vec!["GMEAN".to_string(), f2(g_ipc), f2(g_fair)]);
    format!(
        "Sec. V-H: large configuration (256KB RF, 96KB shm, 32 CTAs, 64 warps)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig10::subset_pairs;

    #[test]
    fn large_config_still_benefits_from_slicing() {
        let pairs = vec![subset_pairs().remove(1)]; // MM_BLK
        let rows = compute(10_000, &pairs);
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].dynamic_ipc > 0.9,
            "dynamic should not collapse: {}",
            rows[0].dynamic_ipc
        );
        assert!(render(&rows).contains("GMEAN"));
    }
}
