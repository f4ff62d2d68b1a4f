//! Runs every workload in `--smoke` mode, untraced and traced, and checks
//! that the result names every metric of `BENCHMARK.json` and that each
//! traced run wrote spans for every layer its workload exercises.

use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

const SEED: u64 = 7;

/// The layers each workload's calls go through.
const LAYERS: [(&str, &[&str]); 5] = [
    ("figures", &["bench", "experiments", "runner"]),
    ("corun_dense", &["bench", "runner"]),
    ("corun_sparse", &["bench", "runner"]),
    (
        "decide_cold",
        &["bench", "store", "predict", "sweep", "waterfill"],
    ),
    (
        "decide_repeat",
        &["bench", "store", "predict", "sweep", "waterfill"],
    ),
];

fn spec_names(key: &str) -> Vec<String> {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

/// Runs the smoke benchmark and returns its parsed result line.
fn run(trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ws-benchmark"))
        .args(["run", "--workload", "all", "--smoke"])
        .args([
            "--seed",
            &SEED.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = json::parse(line).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{line}"
    );
    assert!(result
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    result
}

#[test]
fn smoke_runs_report_every_metric_and_trace_every_layer() {
    let untraced = run(false);
    for (workload, _) in LAYERS {
        for name in spec_names("end_to_end") {
            let key = format!("{workload}.{name}");
            let m = untraced.get("metrics").and_then(|m| m.get(&key));
            let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{key} missing or not positive: {m:?}"
            );
            assert!(m
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str)
                .is_some());
        }
    }

    let traced = run(true);
    for (workload, layers) in LAYERS {
        for name in spec_names("per_layer") {
            let key = format!("{workload}.{name}");
            assert!(
                traced.get("metrics").and_then(|m| m.get(&key)).is_some(),
                "{key} missing"
            );
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{workload}-{SEED}.spans.jsonl"));
        let text = std::fs::read_to_string(&path).expect("traced run wrote spans");
        let spans: Vec<Json> = text
            .lines()
            .map(|l| json::parse(l).expect("span line is JSON"))
            .collect();
        for layer in layers {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("layer").and_then(Json::as_str) == Some(layer)),
                "{workload}: no {layer} span in {}",
                path.display()
            );
        }
    }
}
