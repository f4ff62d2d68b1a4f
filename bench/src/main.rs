//! ws-benchmark: the end-to-end and per-layer benchmark of the
//! Warped-Slicer reproduction.
//!
//! ```text
//! ws-benchmark run [--workload W|all] [--seed S] [--repeat N] [--seconds T]
//!                  [--trace [0|1]] [--smoke] [--out FILE]
//! ws-benchmark compare BASE.json NEW.json
//! ws-benchmark bless
//! ```
//!
//! `run` measures each (workload, repetition) in a fresh child process and
//! prints, as its last line, one JSON object with the metrics of
//! `BENCHMARK.json` by name and unit: the end-to-end ones for an untraced
//! run, the per-layer ones for a traced run. `--out` also writes every
//! run's values, labelled with the host, for `compare`. See README.md.

mod golden;
mod host;
mod json;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::host::Host;
use crate::json::{num, quote, Json};
use crate::stats::{median, spread, verdict, Better, Verdict};
use crate::workloads::{RunOpts, Workload, DEFAULT_SEED, THREADS};

/// The benchmark's definition: workloads, metrics, units and bounds.
const SPEC: &str = include_str!("../../BENCHMARK.json");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct MetricSpec {
    name: String,
    unit: String,
    better: Better,
    /// Regression bound (end-to-end metrics only).
    bound: Option<f64>,
}

#[derive(Debug)]
struct Spec {
    run_seconds: f64,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Result<Self, String> {
        let v = json::parse(SPEC)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: {key} missing"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {f}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        better: match field("better")?.as_str() {
                            "lower" => Better::Lower,
                            _ => Better::Higher,
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: v.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run in this mode reports.
    fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn usage() -> String {
    "usage:\n  ws-benchmark run [--workload W|all] [--seed S] [--repeat N] [--seconds T] \
     [--trace [0|1]] [--smoke] [--out FILE]\n  ws-benchmark compare BASE.json NEW.json\n  \
     ws-benchmark bless\nworkloads: figures corun_dense corun_sparse decide_cold decide_repeat"
        .to_string()
}

/// Options of `run` (and of the child it re-executes).
#[derive(Debug)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    repeat: usize,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        repeat: 1,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workloads = if w == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))?]
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--repeat" => a.repeat = value()?.parse().map_err(|_| "bad --repeat")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        a.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if a.repeat == 0 || !a.seconds.is_finite() || a.seconds < 0.0 {
        return Err("--repeat must be at least 1 and --seconds non-negative".to_string());
    }
    if a.smoke {
        // Smoke mode exists to finish fast: the minimum number of rounds.
        a.seconds = 0.0;
    }
    Ok(a)
}

/// The values one workload's runs produced.
#[derive(Debug, Default)]
struct WorkloadRuns {
    attempted: u64,
    failed: u64,
    /// Whether every run produced a complete result.
    complete: bool,
    values: BTreeMap<String, Vec<f64>>,
}

impl WorkloadRuns {
    fn correct(&self) -> bool {
        self.complete && self.failed == 0
    }
}

/// Runs one (workload, repetition) in a fresh child process with the
/// `WS_*` environment scrubbed, and parses the result line it prints.
fn run_child(w: Workload, a: &RunArgs) -> Result<Json, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("WS_") {
            cmd.env_remove(k);
        }
    }
    cmd.env(ws_exec::THREADS_ENV, THREADS.to_string())
        .args(["child", "--workload", w.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .args(a.smoke.then_some("--smoke"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{} run exited with {}", w.name(), out.status));
    }
    json::parse(line).map_err(|e| format!("{} run printed no result: {e}", w.name()))
}

/// The child side: run one workload in this process and print its raw
/// metrics as one JSON line.
fn child(a: &RunArgs) -> ExitCode {
    let Some(&workload) = a.workloads.first() else {
        return ExitCode::FAILURE;
    };
    let opts = RunOpts {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
    };
    let outcome = workloads::run(&opts);
    if a.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-{}.spans.jsonl", workload.name(), a.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_jsonl(workload.name())));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
        .collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn run(a: &RunArgs, spec: &Spec) -> ExitCode {
    let host = Host::detect(&repo_root());
    eprintln!(
        "host: nproc {} available_parallelism {} {} rev {}{}",
        host.nproc,
        host.available_parallelism,
        host.rustc,
        host.git_rev,
        if host.gates() {
            ""
        } else {
            " (fewer than 2 cores: gates nothing)"
        }
    );
    let wanted = spec.metrics(a.trace);
    let mut results: Vec<(Workload, WorkloadRuns)> = Vec::new();
    for &w in &a.workloads {
        let mut runs = WorkloadRuns {
            complete: true,
            ..WorkloadRuns::default()
        };
        for _ in 0..a.repeat {
            match run_child(w, a) {
                Ok(r) => {
                    runs.attempted +=
                        r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    runs.failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    for m in wanted {
                        let v = r
                            .get("metrics")
                            .and_then(|ms| ms.get(&m.name))
                            .and_then(Json::as_f64);
                        // A per-layer metric the workload does not exercise
                        // reads 0; an end-to-end metric must be measured.
                        if v.is_none() && !a.trace {
                            eprintln!("{}: {} not measured", w.name(), m.name);
                            runs.complete = false;
                        }
                        runs.values
                            .entry(m.name.clone())
                            .or_default()
                            .push(v.unwrap_or(0.0));
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    runs.complete = false;
                    runs.attempted += 1;
                    runs.failed += 1;
                }
            }
        }
        print_table(w, &runs, wanted);
        results.push((w, runs));
    }
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, report_json(a, &host, &results, wanted)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&results, wanted));
    if results.iter().all(|(_, r)| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(w: Workload, runs: &WorkloadRuns, wanted: &[MetricSpec]) {
    eprintln!(
        "{}: {} operations, {} failed{}",
        w.name(),
        runs.attempted,
        runs.failed,
        if runs.correct() { "" } else { "  INCORRECT" }
    );
    for m in wanted {
        let vals = runs
            .values
            .get(&m.name)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let spread = spread(vals).map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
        eprintln!(
            "  {:<36} {:>14.6} {:<7}{spread}",
            m.name,
            median(vals),
            m.unit
        );
    }
}

/// The result line printed last: medians over repetitions, by name and
/// unit.
/// With several workloads each metric name is prefixed by its workload.
fn result_line(results: &[(Workload, WorkloadRuns)], wanted: &[MetricSpec]) -> String {
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (w, runs) in results {
        for m in wanted {
            let vals = runs
                .values
                .get(&m.name)
                .map(Vec::as_slice)
                .unwrap_or_default();
            if vals.is_empty() {
                continue;
            }
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&name),
                num(median(vals)),
                quote(&m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(|(_, r)| r.correct()),
        results.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1),
        results.iter().map(|(_, r)| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// Every run's values, labelled with the host and the run settings.
fn report_json(
    a: &RunArgs,
    host: &Host,
    results: &[(Workload, WorkloadRuns)],
    wanted: &[MetricSpec],
) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|(w, r)| {
            let metrics: Vec<String> = wanted
                .iter()
                .map(|m| {
                    let vals: Vec<String> = r
                        .values
                        .get(&m.name)
                        .map(|v| v.iter().map(|x| num(*x)).collect())
                        .unwrap_or_default();
                    format!(
                        "      {}: {{\"unit\": {}, \"values\": [{}]}}",
                        quote(&m.name),
                        quote(&m.unit),
                        vals.join(", ")
                    )
                })
                .collect();
            format!(
                "    {}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
                quote(w.name()),
                r.correct(),
                r.attempted,
                r.failed,
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {},\n  \"seed\": {}, \"repeat\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host.to_json(),
        a.seed,
        a.repeat,
        num(a.seconds),
        a.trace,
        a.smoke,
        workloads.join(",\n")
    )
}

/// The values of `metric` in one workload's entry of a report; `None` when
/// it has none.
fn metric_values(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    let values: Option<Vec<f64>> = workload
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect();
    values.filter(|v| !v.is_empty())
}

/// One (workload, end-to-end metric) row of `compare`.
#[derive(Debug)]
struct Row {
    workload: &'static str,
    metric: String,
    base: Vec<f64>,
    new: Vec<f64>,
    bound: f64,
    verdict: Verdict,
}

/// Compares report `n` against report `b`: one row per (workload,
/// end-to-end metric) that both measured, and the reasons `n` fails
/// whatever its metrics say — a workload of `b` that `n` lacks, got wrong
/// or failed more operations in, or an end-to-end metric `b` measured and
/// `n` did not.
fn compare_reports(b: &Json, n: &Json, spec: &Spec) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for w in Workload::ALL {
        let Some(bw) = b.get("workloads").and_then(|ws| ws.get(w.name())) else {
            continue;
        };
        let Some(nw) = n.get("workloads").and_then(|ws| ws.get(w.name())) else {
            problems.push(format!("{}: missing from the new report", w.name()));
            continue;
        };
        if nw.get("correct").and_then(Json::as_bool) != Some(true) {
            problems.push(format!("{}: the new runs are not correct", w.name()));
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64);
        if failed(nw).unwrap_or(f64::INFINITY) > failed(bw).unwrap_or(0.0) {
            problems.push(format!(
                "{}: more operations failed than in the base report",
                w.name()
            ));
        }
        for m in &spec.end_to_end {
            let Some(base) = metric_values(bw, &m.name) else {
                continue;
            };
            let Some(new) = metric_values(nw, &m.name) else {
                problems.push(format!(
                    "{}: {} not measured in the new report",
                    w.name(),
                    m.name
                ));
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            rows.push(Row {
                workload: w.name(),
                metric: m.name.clone(),
                verdict: verdict(&base, &new, m.better, bound),
                base,
                new,
                bound,
            });
        }
    }
    (rows, problems)
}

fn compare(base: &Path, new: &Path, spec: &Spec) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (b, n) = match (load(base), load(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for (label, r) in [("base", &b), ("new", &n)] {
        if r.get("host")
            .and_then(|h| h.get("gates"))
            .and_then(Json::as_bool)
            == Some(false)
        {
            eprintln!("warning: the {label} report comes from a host with fewer than 2 cores");
        }
    }
    let (rows, problems) = compare_reports(&b, &n, spec);
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    for r in &rows {
        let noise = spread(&r.base)
            .unwrap_or(0.0)
            .max(spread(&r.new).unwrap_or(0.0));
        println!(
            "{:<14} {:<14} {:>12.6} {:>12.6} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            median(&r.base),
            median(&r.new),
            (median(&r.new) / median(&r.base) - 1.0) * 100.0,
            noise * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    for p in &problems {
        eprintln!("{p}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    if worse > 0 {
        eprintln!("{worse} metric(s) worse beyond their bound");
    }
    if worse > 0 || !problems.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Rewrites the golden digests from the current code.
fn bless() -> ExitCode {
    if std::env::vars().any(|(k, _)| k.starts_with("WS_")) {
        eprintln!("bless: unset every WS_* environment variable first");
        return ExitCode::FAILURE;
    }
    let files = [
        (
            "figures.txt",
            "figures: FNV-1a 64 of each rendered artifact",
            workloads::figures_outputs(),
        ),
        (
            "corun_dense.txt",
            "corun_dense: FNV-1a 64 of each SimOutcome fingerprint",
            workloads::corun_outputs(false),
        ),
        (
            "corun_sparse.txt",
            "corun_sparse: FNV-1a 64 of each SimOutcome fingerprint",
            workloads::corun_outputs(true),
        ),
        (
            "decide.txt",
            "decide_cold and decide_repeat: FNV-1a 64 of each pair's quota vector",
            workloads::decide_outputs(),
        ),
    ];
    for (file, header, outputs) in files {
        match golden::write(file, header, &outputs) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => {
                eprintln!("cannot write {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    match cmd {
        "run" | "child" => match parse_run(rest, &spec) {
            Ok(a) if cmd == "run" => run(&a, &spec),
            Ok(a) => child(&a),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "compare" if rest.len() == 2 => compare(Path::new(&rest[0]), Path::new(&rest[1]), &spec),
        "bless" => bless(),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimRng;

    /// Correct runs of one workload: every end-to-end metric with `n`
    /// seeded samples within 2% of `center`.
    fn runs(spec: &Spec, seed: u64, n: usize, center: f64) -> WorkloadRuns {
        let mut rng = SimRng::seed_from_u64(seed);
        let values = spec
            .end_to_end
            .iter()
            .map(|m| {
                let vals = (0..n)
                    .map(|_| center * (1.0 + 0.02 * (2.0 * rng.unit_f64() - 1.0)))
                    .collect();
                (m.name.clone(), vals)
            })
            .collect();
        WorkloadRuns {
            attempted: 30 * n as u64,
            failed: 0,
            complete: true,
            values,
        }
    }

    /// The report `run --out` writes for `corun_dense` alone.
    fn report(spec: &Spec, runs: WorkloadRuns) -> Json {
        let args = RunArgs {
            workloads: vec![Workload::CorunDense],
            seed: DEFAULT_SEED,
            repeat: 5,
            seconds: spec.run_seconds,
            trace: false,
            smoke: false,
            out: None,
        };
        let host = Host {
            nproc: 2,
            available_parallelism: 2,
            rustc: "rustc".to_string(),
            git_rev: "unknown".to_string(),
        };
        let results = [(Workload::CorunDense, runs)];
        json::parse(&report_json(&args, &host, &results, &spec.end_to_end))
            .expect("the report parses")
    }

    fn spec() -> Spec {
        Spec::load().expect("BENCHMARK.json loads")
    }

    #[test]
    fn runs_of_the_same_distribution_compare_same() {
        let spec = spec();
        let base = report(&spec, runs(&spec, 1, 5, 100.0));
        let new = report(&spec, runs(&spec, 2, 5, 100.0));
        let (rows, problems) = compare_reports(&base, &new, &spec);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(rows.len(), spec.end_to_end.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same), "{rows:?}");
    }

    #[test]
    fn slower_runs_compare_worse() {
        let spec = spec();
        let base = report(&spec, runs(&spec, 1, 5, 100.0));
        let new = report(&spec, runs(&spec, 2, 5, 200.0));
        let (rows, problems) = compare_reports(&base, &new, &spec);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Worse), "{rows:?}");
    }

    #[test]
    fn a_broken_new_report_fails_however_fast() {
        let spec = spec();
        let base = report(&spec, runs(&spec, 1, 5, 100.0));
        let problems = |new: WorkloadRuns| compare_reports(&base, &report(&spec, new), &spec).1;
        let fast = || runs(&spec, 2, 5, 50.0);

        // A run that printed no result.
        let incomplete = WorkloadRuns {
            complete: false,
            ..fast()
        };
        assert_eq!(problems(incomplete).len(), 1);

        // Failed operations: incorrect, and more failures than the base.
        let failing = WorkloadRuns {
            failed: 3,
            ..fast()
        };
        assert_eq!(problems(failing).len(), 2);

        // An end-to-end metric the base measured and the new runs did not.
        let metric = spec.end_to_end[0].name.clone();
        let mut unmeasured = fast();
        unmeasured.values.insert(metric.clone(), Vec::new());
        let p = problems(unmeasured);
        assert!(p.len() == 1 && p[0].contains(&metric), "{p:?}");

        // Every run crashed: no values at all.
        let crashed = WorkloadRuns {
            attempted: 5,
            failed: 5,
            complete: false,
            values: BTreeMap::new(),
        };
        assert_eq!(problems(crashed).len(), 2 + spec.end_to_end.len());

        // A workload the base measured and the new report lacks.
        let empty = json::parse("{\"workloads\": {}}").expect("parses");
        assert_eq!(compare_reports(&base, &empty, &spec).1.len(), 1);
    }
}
