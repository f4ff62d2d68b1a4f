//! Ablations beyond the paper's own sensitivity studies (DESIGN.md §5):
//! the bandwidth-interference scaling factor on/off, the spatial-fallback
//! threshold sweep, and the phase monitor on/off.

use warped_slicer::{Decider, PolicyKind, WarpedSlicerConfig};
use ws_workloads::{Benchmark, Pair};

use crate::context::ExperimentContext;
use crate::report::{f2, gmean, Table};

/// One ablation variant and its geomean normalized IPC.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Geomean combined IPC over the pairs, normalized to the default
    /// Warped-Slicer configuration.
    pub ipc_vs_default: f64,
}

/// One fixed-quota policy per pair, derived from *offline* isolation CTA
/// sweeps plus Algorithm 1 — the upper bound on what the online profiler's
/// curves could achieve (no sampling noise, no co-run interference, but also
/// no runtime adaptivity and an offline cost the paper's design avoids).
///
/// One sweep covers the distinct kernels of `pairs` in first-seen order, so
/// a kernel shared by several pairs is swept once. Every `(kernel, cap)`
/// sample is an independent simulation, so each curve equals the one a
/// sweep of its pair alone measures.
pub fn offline_curve_policies(ctx: &ExperimentContext, pairs: &[Pair]) -> Vec<PolicyKind> {
    let window = (ctx.cfg.isolation_cycles / 8).max(2_000);
    let mut kernels: Vec<&Benchmark> = Vec::new();
    let members: Vec<[usize; 2]> = pairs
        .iter()
        .map(|p| {
            [&p.a, &p.b].map(|b| {
                kernels
                    .iter()
                    .position(|k| k.desc == b.desc)
                    .unwrap_or_else(|| {
                        kernels.push(b);
                        kernels.len() - 1
                    })
            })
        })
        .collect();
    let max_ctas: Vec<u32> = kernels
        .iter()
        .map(|b| b.desc.max_ctas_per_sm(&ctx.cfg.gpu.sm).max(1))
        .collect();
    let curves = ctx.cta_sweeps(&kernels, &max_ctas, window);
    members
        .iter()
        .map(|ids| {
            let descs = ids.map(|i| &kernels[i].desc);
            let pair_curves = ids.map(|i| curves[i].clone()).to_vec();
            let d = Decider::WITHOUT_FALLBACK.decide(&descs, &ctx.cfg.gpu.sm, pair_curves, 0, None);
            d.quotas.map_or(PolicyKind::Spatial, PolicyKind::Quota)
        })
        .collect()
}

/// Runs the ablation battery over `pairs`.
pub fn compute(ctx: &ExperimentContext, pairs: &[Pair]) -> Vec<AblationRow> {
    let base_cfg = WarpedSlicerConfig::scaled_for(ctx.cfg.isolation_cycles);
    let variants: Vec<(String, WarpedSlicerConfig)> = vec![
        ("default".into(), base_cfg.clone()),
        (
            "no bandwidth scaling (Eq.3 off)".into(),
            WarpedSlicerConfig {
                enable_scaling: false,
                ..base_cfg.clone()
            },
        ),
        (
            "no phase monitor".into(),
            WarpedSlicerConfig {
                enable_phase_monitor: false,
                ..base_cfg.clone()
            },
        ),
        (
            "loss threshold 10%".into(),
            WarpedSlicerConfig {
                loss_threshold: Some(0.10),
                ..base_cfg.clone()
            },
        ),
        (
            "loss threshold 30%".into(),
            WarpedSlicerConfig {
                loss_threshold: Some(0.30),
                ..base_cfg.clone()
            },
        ),
        (
            "loss threshold 100% (never fall back)".into(),
            WarpedSlicerConfig {
                loss_threshold: Some(1.0),
                ..base_cfg
            },
        ),
    ];
    // All `variants x pairs` runs go out as one job batch.
    let runs: Vec<(Vec<&Benchmark>, PolicyKind)> = variants
        .iter()
        .flat_map(|(_, cfg)| {
            pairs
                .iter()
                .map(move |p| (vec![&p.a, &p.b], PolicyKind::WarpedSlicer(cfg.clone())))
        })
        .collect();
    let corun = ctx.corun_batch(&runs);
    let mut rows = Vec::new();
    let mut baseline: Option<f64> = None;
    for ((label, _), chunk) in variants.iter().zip(corun.chunks(pairs.len().max(1))) {
        let ipcs: Vec<f64> = chunk.iter().map(|r| r.combined_ipc).collect();
        let g = gmean(&ipcs);
        let base = *baseline.get_or_insert(g);
        rows.push(AblationRow {
            label: label.clone(),
            ipc_vs_default: g / base,
        });
    }
    // Offline-curve quotas: how much is lost to *online* profiling noise?
    {
        let offline: Vec<(Vec<&Benchmark>, PolicyKind)> = pairs
            .iter()
            .zip(offline_curve_policies(ctx, pairs))
            .map(|(p, policy)| (vec![&p.a, &p.b], policy))
            .collect();
        let ipcs: Vec<f64> = ctx
            .corun_batch(&offline)
            .iter()
            .map(|r| r.combined_ipc)
            .collect();
        let g = gmean(&ipcs);
        let base = baseline.unwrap_or(g);
        rows.push(AblationRow {
            label: "offline curves + water-fill (no profiling phase)".into(),
            ipc_vs_default: g / base,
        });
    }
    rows
}

/// Renders the ablation table.
#[must_use]
pub fn render(rows: &[AblationRow]) -> String {
    let mut t = Table::new(vec!["Variant", "IPC vs default"]);
    for r in rows {
        t.row(vec![r.label.clone(), f2(r.ipc_vs_default)]);
    }
    format!("Ablations: Warped-Slicer design choices\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig10::subset_pairs;

    #[test]
    fn ablations_run_and_default_is_unity() {
        let ctx = ExperimentContext::new(10_000);
        let pairs = vec![subset_pairs().remove(1)];
        let rows = compute(&ctx, &pairs);
        assert_eq!(rows.len(), 7);
        assert!((rows[0].ipc_vs_default - 1.0).abs() < 1e-12);
        for r in &rows {
            assert!(r.ipc_vs_default > 0.5, "{}: {}", r.label, r.ipc_vs_default);
        }
        assert!(render(&rows).contains("Eq.3"));
    }

    #[test]
    fn batched_offline_policies_equal_per_pair_sweeps() {
        let ctx = ExperimentContext::new(2_000);
        // MM_BLK and MM_IMG share MM: the batch sweeps it once.
        let subset = subset_pairs();
        let pairs = vec![subset[1].clone(), subset[3].clone()];
        let per_pair: Vec<PolicyKind> = pairs
            .iter()
            .flat_map(|p| offline_curve_policies(&ctx, std::slice::from_ref(p)))
            .collect();
        assert_eq!(offline_curve_policies(&ctx, &pairs), per_pair);
    }
}
