//! ws-predict baseline: static-prediction throughput and sweep-sample
//! savings over the Table II suite, written machine-readably to
//! `target/bench-reports/BENCH_predict.json`.
//!
//! Two numbers characterize the analyzer:
//!
//! - `decisions_per_sec` — full static predictions (feature extraction +
//!   contention model + knee) per second across the ten suite kernels.
//!   The predictor sits on the controller's profiling path, so it must be
//!   orders of magnitude cheaper than the sampling it replaces.
//! - `samples_saved_fraction` — fraction of Fig. 3 sweep simulations the
//!   predicted ±1 knee windows skip before any fall-back round
//!   (`SweepPlan::samples_saved / full_samples`).
//!
//! The report also carries `knee_hit_floor`; the `verify-predictions`
//! gate enforces the one in the committed `results/BENCH_predict.json`,
//! so changing the floor is a reviewed edit to that file.
//!
//! Optional floors for CI (the bench exits non-zero when violated):
//! - `WS_PREDICT_BENCH_MIN_DPS`: minimum decisions/sec (only meaningful on
//!   quiet hosts).
//! - `WS_PREDICT_BENCH_MIN_SAVED`: minimum samples-saved fraction
//!   (deterministic, safe on noisy shared runners).

use std::path::PathBuf;
use std::time::Instant;

use gpu_sim::GpuConfig;
use warped_slicer::SweepPlan;
use ws_analyze::predict_kernel;
use ws_workloads::suite;

/// The committed knee-hit-rate floor `verify-predictions` enforces.
const KNEE_HIT_FLOOR: f64 = 0.8;

const REPS: u32 = 200;

fn main() {
    let cfg = GpuConfig::isca_baseline();
    let benches = suite();
    let descs: Vec<&gpu_sim::KernelDesc> = benches.iter().map(|b| &b.desc).collect();
    let maxes: Vec<u32> = benches.iter().map(|b| b.max_ctas_baseline()).collect();

    // Throughput: repeat the full-suite prediction enough times to measure.
    let start = Instant::now();
    let mut decisions = 0u64;
    for _ in 0..REPS {
        for desc in &descs {
            let curve = predict_kernel(desc, &cfg).expect("suite kernels pass pre-flight");
            assert!(curve.knee >= 1);
            decisions += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let dps = decisions as f64 / wall.max(1e-9);

    // Savings: the pruned plan the controller would run for this suite.
    let plan = SweepPlan::from_predictions(&descs, &maxes, &cfg);
    let full = plan.full_samples();
    let saved = plan.samples_saved();
    let saved_frac = saved as f64 / full.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"predict\",\n  \
         \"workload\": \"Table II suite ({} kernels), {} predictions\",\n  \
         \"decisions_per_sec\": {:.0},\n  \"prediction_wall_s\": {:.4},\n  \
         \"full_sweep_samples\": {},\n  \"planned_sweep_samples\": {},\n  \
         \"samples_saved\": {},\n  \"samples_saved_fraction\": {:.4},\n  \
         \"knee_hit_floor\": {:.2}\n}}\n",
        descs.len(),
        decisions,
        dps,
        wall,
        full,
        plan.planned_samples(),
        saved,
        saved_frac,
        KNEE_HIT_FLOOR
    );

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    let path = dir.join("BENCH_predict.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "predict: {dps:.0} decisions/s; sweep {full} -> {} samples ({saved} saved, {:.0}%)",
        plan.planned_samples(),
        saved_frac * 100.0
    );
    println!("-> {}", path.display());

    let floor = |env: &str| std::env::var(env).ok().and_then(|v| v.parse::<f64>().ok());
    if let Some(min) = floor("WS_PREDICT_BENCH_MIN_DPS") {
        if dps < min {
            eprintln!("decisions/sec {dps:.0} below committed floor {min}");
            std::process::exit(1);
        }
    }
    if let Some(min) = floor("WS_PREDICT_BENCH_MIN_SAVED") {
        if saved_frac < min {
            eprintln!("samples-saved fraction {saved_frac:.4} below committed floor {min}");
            std::process::exit(1);
        }
    }
}
