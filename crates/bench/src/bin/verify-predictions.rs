//! Cross-validates `ws-predict` static performance predictions against
//! simulated ground truth for every workload in `crates/workloads`.
//!
//! For each Table II benchmark the binary simulates the full Fig. 3 CTA
//! sweep (the measured IPC-vs-CTA curve), predicts the same curve with
//! [`ws_analyze::predict_kernel`], and scores the prediction:
//!
//! * **knee hit** — the predicted knee lands within ±1 CTA of the measured
//!   knee (the window the pruned profiling sweep samples, so a hit means
//!   pruning would have covered the true operating point);
//! * **curve RMSE** — root-mean-square error between the peak-normalized
//!   predicted and measured curves (shape accuracy).
//!
//! The per-kernel report is written as JSONL (one `predict_accuracy` record
//! per kernel plus a trailing `predict_summary`), by default to
//! `target/predict-accuracy.jsonl` under the working directory; CI uploads
//! it as an artifact. The run
//! **fails** (exit 1) when the knee-hit rate drops below the floor recorded
//! in `results/BENCH_predict.json` (`"knee_hit_floor"`), defaulting to 0.8
//! when no floor is recorded.
//!
//! Usage: `cargo xtask verify-predictions`, or directly:
//! `cargo run --release -p ws-bench --bin verify-predictions --
//!  [--report PATH] [--cycles N]`.

use std::path::{Path, PathBuf};

use gpu_sim::GpuConfig;
use warped_slicer::{profile_curves_planned, tracefmt, RunConfig, SweepPlan};
use ws_analyze::{knee_of, predict_kernel};
use ws_workloads::{suite, Benchmark};

/// Sampling window (cycles) for each measured point of the ground-truth
/// sweep. Long enough for DRAM-bound kernels to reach steady state.
const DEFAULT_CYCLES: u64 = 40_000;

/// Knee-hit-rate floor used when `results/BENCH_predict.json` records none.
const DEFAULT_FLOOR: f64 = 0.8;

struct Row {
    abbrev: String,
    max_ctas: u32,
    predicted_knee: u32,
    measured_knee: u32,
    hit: bool,
    rmse: f64,
    predicted: Vec<f64>,
    measured: Vec<f64>,
}

/// Peak-normalizes a curve (all-zero curves stay all-zero).
fn normalized(curve: &[f64]) -> Vec<f64> {
    let peak = curve.iter().copied().fold(0.0_f64, f64::max);
    if peak <= 0.0 {
        return curve.to_vec();
    }
    curve.iter().map(|p| p / peak).collect()
}

fn rmse(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / n as f64).sqrt()
}

fn curve_json(curve: &[f64]) -> String {
    let body: Vec<String> = curve.iter().map(|p| format!("{p:.4}")).collect();
    format!("[{}]", body.join(","))
}

fn row_jsonl(r: &Row) -> String {
    format!(
        "{{\"type\":\"predict_accuracy\",\"kernel\":\"{}\",\"max_ctas\":{},\
         \"predicted_knee\":{},\"measured_knee\":{},\"knee_hit\":{},\
         \"curve_rmse\":{:.4},\"predicted_ipc\":{},\"measured_ipc\":{}}}",
        tracefmt::esc(&r.abbrev),
        r.max_ctas,
        r.predicted_knee,
        r.measured_knee,
        r.hit,
        r.rmse,
        curve_json(&r.predicted),
        curve_json(&r.measured),
    )
}

/// Reads the committed knee-hit floor out of `results/BENCH_predict.json`
/// (a flat `"knee_hit_floor": <x>` field), falling back to
/// [`DEFAULT_FLOOR`].
fn committed_floor(repo_root: &Path) -> f64 {
    let path = repo_root.join("results").join("BENCH_predict.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return DEFAULT_FLOOR;
    };
    text.split("\"knee_hit_floor\":")
        .nth(1)
        .and_then(|rest| {
            rest.trim_start()
                .split([',', '}', '\n'])
                .next()
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .unwrap_or(DEFAULT_FLOOR)
}

fn main() {
    let mut report_path: Option<PathBuf> = None;
    let mut cycles = DEFAULT_CYCLES;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => report_path = args.next().map(PathBuf::from),
            "--cycles" => {
                cycles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_CYCLES);
            }
            other => {
                eprintln!("verify-predictions: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    // The default report path is relative to the working directory, so the
    // `-> PATH` line reads the same from every checkout.
    let report_path = report_path.unwrap_or_else(|| PathBuf::from("target/predict-accuracy.jsonl"));
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");

    let gpu = GpuConfig::isca_baseline();
    let cfg = RunConfig {
        isolation_cycles: cycles,
        ..RunConfig::default()
    };
    let pool = ws_exec::Pool::from_env();
    let benches = suite();
    let descs: Vec<&gpu_sim::KernelDesc> = benches.iter().map(|b| &b.desc).collect();
    let maxes: Vec<u32> = benches.iter().map(Benchmark::max_ctas_baseline).collect();
    let measured_curves =
        profile_curves_planned(&pool, &descs, &SweepPlan::full(&maxes), cycles, &cfg).curves;

    let mut rows = Vec::new();
    for (bench, measured) in benches.iter().zip(&measured_curves) {
        let predicted = match predict_kernel(&bench.desc, &gpu) {
            Ok(curve) => curve,
            Err(err) => {
                eprintln!(
                    "verify-predictions: {} failed pre-flight: {err}",
                    bench.abbrev
                );
                std::process::exit(1);
            }
        };
        let measured_knee = knee_of(measured);
        let hit = predicted.knee.abs_diff(measured_knee) <= 1;
        rows.push(Row {
            abbrev: bench.abbrev.to_string(),
            max_ctas: predicted.max_ctas(),
            predicted_knee: predicted.knee,
            measured_knee,
            hit,
            rmse: rmse(&normalized(&predicted.ipc), &normalized(measured)),
            predicted: predicted.ipc,
            measured: measured.clone(),
        });
    }

    let hits = rows.iter().filter(|r| r.hit).count();
    let hit_rate = hits as f64 / rows.len().max(1) as f64;
    let mean_rmse = rows.iter().map(|r| r.rmse).sum::<f64>() / rows.len().max(1) as f64;

    println!("kernel  max  knee(pred/meas)  hit  rmse   curves (pred | meas, normalized)");
    for r in &rows {
        let pn: Vec<String> = normalized(&r.predicted)
            .iter()
            .map(|p| format!("{p:.2}"))
            .collect();
        let mn: Vec<String> = normalized(&r.measured)
            .iter()
            .map(|p| format!("{p:.2}"))
            .collect();
        println!(
            "{:<7} {:<4} {:>4}/{:<4}       {:<4} {:.3}  {} | {}",
            r.abbrev,
            r.max_ctas,
            r.predicted_knee,
            r.measured_knee,
            if r.hit { "yes" } else { "NO" },
            r.rmse,
            pn.join(" "),
            mn.join(" ")
        );
    }
    println!(
        "knee-hit rate: {hits}/{} ({:.0}%), mean curve RMSE {mean_rmse:.3}",
        rows.len(),
        hit_rate * 100.0
    );

    let mut jsonl: String = rows.iter().map(|r| row_jsonl(r) + "\n").collect();
    jsonl.push_str(&format!(
        "{{\"type\":\"predict_summary\",\"kernels\":{},\"knee_hits\":{hits},\
         \"knee_hit_rate\":{hit_rate:.4},\"mean_curve_rmse\":{mean_rmse:.4},\
         \"sample_cycles\":{cycles}}}\n",
        rows.len()
    ));
    if let Err(err) = tracefmt::validate_json_syntax(&jsonl) {
        eprintln!("verify-predictions: malformed report: {err}");
        std::process::exit(1);
    }
    if let Some(dir) = report_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(err) = std::fs::write(&report_path, &jsonl) {
        eprintln!(
            "verify-predictions: failed to write {}: {err}",
            report_path.display()
        );
        std::process::exit(1);
    }
    println!("-> {}", report_path.display());

    let floor = committed_floor(&repo_root);
    if hit_rate < floor {
        eprintln!(
            "verify-predictions: knee-hit rate {hit_rate:.2} below the committed floor {floor}"
        );
        std::process::exit(1);
    }
}
