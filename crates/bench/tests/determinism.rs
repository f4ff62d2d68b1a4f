//! The execution layer's determinism contract, pinned end to end: rendered
//! experiment tables must be byte-identical whether the pool runs with one
//! worker (the historical serial harness) or many — including with heavily
//! skewed job sizes, and for the streaming profiling sweep that resubmits
//! rejected kernels mid-drain.

use gpu_sim::KernelDesc;
use warped_slicer::{execute, profile_curves_planned, PolicyKind, RunConfig, SimJob, SweepPlan};
use ws_bench::experiments::{fig3, fig6};
use ws_bench::ExperimentContext;
use ws_workloads::{all_pairs, by_abbrev, Pair, PairCategory};

fn ctx_with(threads: usize, isolation_cycles: u64) -> ExperimentContext {
    let cfg = RunConfig {
        isolation_cycles,
        ..RunConfig::default()
    };
    ExperimentContext::with_pool(cfg, ws_exec::Pool::new(threads))
}

#[test]
fn fig3_render_is_byte_identical_across_worker_counts() {
    let serial = fig3::render(&fig3::compute(&ctx_with(1, 4_000), 2_000));
    let parallel = fig3::render(&fig3::compute(&ctx_with(8, 4_000), 2_000));
    assert_eq!(serial, parallel);
}

#[test]
fn corun_experiment_is_byte_identical_across_worker_counts() {
    let pair = Pair {
        a: by_abbrev("IMG").expect("suite"),
        b: by_abbrev("NN").expect("suite"),
        category: PairCategory::ComputeCache,
    };
    let render = |threads: usize| {
        let ctx = ctx_with(threads, 6_000);
        let data = fig6::Fig6Data {
            pairs: vec![fig6::run_pair(&ctx, &pair, false)],
        };
        fig6::render(&data)
    };
    assert_eq!(render(1), render(8));
}

#[test]
fn skewed_sim_batch_is_byte_identical_in_parallel() {
    // One 40k-cycle job among 2k-cycle ones: the long job pins its worker
    // while the other workers finish the short ones around it. Outcomes
    // must match the serial run field for field.
    let img = by_abbrev("IMG").expect("suite");
    let lbm = by_abbrev("LBM").expect("suite");
    let jobs: Vec<SimJob> = (0..12)
        .map(|i| {
            let (desc, cycles) = if i == 3 {
                (&lbm.desc, 40_000)
            } else {
                (&img.desc, 2_000)
            };
            SimJob::cta_cap(desc, (i % 4) + 1, cycles, &RunConfig::default())
        })
        .collect();
    let serial = ws_exec::Pool::new(1).run(&jobs, execute);
    let parallel = ws_exec::Pool::new(8).run(&jobs, execute);
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.end_insts, b.end_insts, "job {i} insts");
        assert_eq!(a.total_cycles, b.total_cycles, "job {i} cycles");
        assert!((a.measured_ipc() - b.measured_ipc()).abs() < f64::EPSILON);
    }
}

#[test]
fn planned_sweep_is_identical_at_any_worker_count() {
    // The one profile → accept → fallback loop streams its samples and
    // resubmits rejected kernels mid-drain, so completion order varies
    // with the worker count; the curves, acceptance verdicts and sample
    // count must not.
    let cfg = RunConfig::default();
    let pairs: Vec<Pair> = all_pairs().into_iter().take(4).collect();
    let descs: Vec<&KernelDesc> = pairs.iter().flat_map(|p| [&p.a.desc, &p.b.desc]).collect();
    let maxes: Vec<u32> = descs
        .iter()
        .map(|d| d.max_ctas_per_sm(&cfg.gpu.sm))
        .collect();
    let plan = SweepPlan::from_predictions(&descs, &maxes, &cfg.gpu);
    let sweep = |threads: usize| {
        profile_curves_planned(&ws_exec::Pool::new(threads), &descs, &plan, 1_500, &cfg)
    };
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial.curves, parallel.curves);
    assert_eq!(serial.pruned, parallel.pruned);
    assert_eq!(serial.samples_run, parallel.samples_run);
    assert!(serial.samples_run >= plan.planned_samples());
}

#[test]
fn corun_batch_matches_sequential_coruns() {
    let img = by_abbrev("IMG").expect("suite");
    let mm = by_abbrev("MM").expect("suite");
    let ctx = ctx_with(4, 4_000);
    let batch = ctx.corun_batch(&[
        (vec![&img, &mm], PolicyKind::Even),
        (vec![&img, &mm], PolicyKind::Spatial),
    ]);
    let even = ctx.corun(&[&img, &mm], &PolicyKind::Even);
    let spatial = ctx.corun(&[&img, &mm], &PolicyKind::Spatial);
    assert_eq!(batch[0].total_cycles, even.total_cycles);
    assert_eq!(batch[0].finish_cycle, even.finish_cycle);
    assert_eq!(batch[1].total_cycles, spatial.total_cycles);
    assert_eq!(batch[1].finish_cycle, spatial.finish_cycle);
}
