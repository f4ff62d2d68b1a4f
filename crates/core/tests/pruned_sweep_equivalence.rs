//! End-to-end acceptance test for the prediction-driven sweep pruner: the
//! pruned offline sweep (`WS_PREDICT=1` behaviour, [`SweepPlan`] built from
//! `ws-predict` static curves) must reproduce the full sweep's
//! (`WS_PREDICT=0`) water-filling quotas on every Fig. 3 pair of the
//! Table II suite. Pruning is an optimization: it may skip simulation
//! samples, never change a co-location decision.
//!
//! Both sweeps run at a short profiling window so the whole 30-pair check
//! stays test-suite fast; the guards inside `accept_pruned` are what make
//! the equivalence hold regardless of window length.

use std::collections::BTreeMap;

use gpu_sim::{GpuConfig, KernelDesc};
use warped_slicer::resources::ResourceVec;
use warped_slicer::sweep::{profile_curves_planned, SweepPlan};
use warped_slicer::waterfill::{water_fill, KernelCurve};
use warped_slicer::RunConfig;
use ws_workloads::{all_pairs, suite, Benchmark};

const WINDOW: u64 = 3_000;

#[test]
fn pruned_sweep_reproduces_full_sweep_quotas_on_every_fig3_pair() {
    let gpu = GpuConfig::isca_baseline();
    let cfg = RunConfig::default();
    let pool = ws_exec::Pool::from_env();
    let benches = suite();
    let descs: Vec<&KernelDesc> = benches.iter().map(|b| &b.desc).collect();
    let maxes: Vec<u32> = benches.iter().map(Benchmark::max_ctas_baseline).collect();

    // WS_PREDICT=0 analogue: the dense 1..=N sweep of Fig. 3.
    let full = profile_curves_planned(&pool, &descs, &SweepPlan::full(&maxes), WINDOW, &cfg);
    assert!(
        full.pruned.iter().all(|&p| !p),
        "a full plan prunes nothing"
    );
    assert_eq!(full.samples_run, SweepPlan::full(&maxes).full_samples());
    let full = full.curves;

    // WS_PREDICT=1 analogue: windows around each predicted knee.
    let plan = SweepPlan::from_predictions(&descs, &maxes, &gpu);
    assert!(
        plan.samples_saved() > 0,
        "the predicted plan should prune at least part of the suite sweep"
    );
    let planned = profile_curves_planned(&pool, &descs, &plan, WINDOW, &cfg);
    assert!(
        planned.samples_run <= plan.full_samples(),
        "fall-back rounds never exceed the full sweep: {} > {}",
        planned.samples_run,
        plan.full_samples()
    );
    assert!(
        planned.pruned.iter().any(|&p| p),
        "at least one kernel's pruned window should be accepted"
    );

    let index: BTreeMap<&str, usize> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| (b.abbrev, i))
        .collect();
    let total = ResourceVec::sm_capacity(&gpu.sm);
    let lane = |curves: &[Vec<f64>], i: usize| KernelCurve {
        perf: curves.get(i).cloned().unwrap_or_default(),
        cta_cost: benches
            .get(i)
            .map(|b| ResourceVec::cta_cost(&b.desc))
            .unwrap_or_else(ResourceVec::zero),
    };

    for pair in all_pairs() {
        let (Some(&ia), Some(&ib)) = (index.get(pair.a.abbrev), index.get(pair.b.abbrev)) else {
            panic!(
                "pair {} references a kernel outside the suite",
                pair.label()
            );
        };
        let q_full = water_fill(&[lane(&full, ia), lane(&full, ib)], total).map(|p| p.ctas);
        let q_pruned = water_fill(
            &[lane(&planned.curves, ia), lane(&planned.curves, ib)],
            total,
        )
        .map(|p| p.ctas);
        assert_eq!(
            q_full,
            q_pruned,
            "{}: pruned sweep changed the water-fill quotas",
            pair.label()
        );
    }
}
