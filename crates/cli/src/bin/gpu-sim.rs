//! Standalone simulator driver.
//!
//! Three modes:
//!
//! * **Single-kernel** (default): describe a synthetic kernel on the
//!   command line, run it on the Table I GPU, and print a statistics
//!   report.
//! * **`--analyze`**: no simulation; the full ws-analyze rule catalogue
//!   runs over the kernel and the report — derived static metrics,
//!   per-resource Eq. 1 occupancy quotas, every diagnostic — is printed.
//!   Exits non-zero when any error-severity diagnostic is emitted (the
//!   same findings that fail the `Gpu` launch pre-flight).
//! * **`--predict`**: no simulation; the ws-predict static performance
//!   analyzer prints the predicted IPC-vs-CTA curve, the predicted knee,
//!   and the CTA counts the dynamic controller's profiling window samples.
//!   Exits non-zero on error-severity diagnostics.
//! * **`--corun A,B[,C]`**: run the named benchmark workloads (Table II
//!   abbreviations) concurrently under the paper's equal-work methodology
//!   and print fairness/ANTT. With `--trace FILE` the run captures the
//!   ws-trace event stream and the Warped-Slicer decision audit and writes
//!   them as JSONL; `--chrome FILE` additionally writes a Chrome
//!   `trace_event` document for `chrome://tracing` / Perfetto.
//!
//! `--validate-trace FILE` checks a previously written JSONL trace against
//! the ws-trace schema and exits; `--help` prints the synopsis of every mode
//! and exits.
//!
//! Bad input is an error, never a panic or a run of zeros: out-of-range
//! flag values are rejected at parse time, and the single-kernel mode
//! registers its kernel through the launch pre-flight, so a kernel that
//! cannot launch exits non-zero naming the failed rule.
//!
//! **`store`** manages a persistent ws-store performance-curve file
//! (versioned JSONL, validated against the ws-trace schema on every read
//! and write):
//!
//! * `store warm FILE --corun A,B` loads the store (or creates it), runs
//!   the co-run with the store attached to the dynamic controller —
//!   first arrival profiles cold and memoizes, repeat arrivals decide
//!   warm — then writes the updated store back to `FILE`.
//! * `store inspect FILE` prints every memoized curve in insertion order.
//! * `store clear FILE` resets the file to an empty store.

use std::process::ExitCode;

use gpu_sim::{AccessPattern, Gpu, GpuConfig, KernelDesc, ProgramSpec, SchedulerKind, StallReason};
use warped_slicer::store::DEFAULT_STORE_CAPACITY;
use warped_slicer::{
    antt, chrome_trace, execute, fairness, jsonl, run_isolation, validate_jsonl, CurveStore,
    PolicyKind, RunConfig, SharedCurveStore, SimJob, TraceOptions, WarpedSlicerConfig,
};
use ws_analyze::Severity;
use ws_workloads::by_abbrev;

const USAGE: &str = "\
usage:
  gpu-sim [--threads N] [--regs N] [--shmem BYTES] [--grid N]
          [--body N] [--iters N] [--sfu F] [--gload F]
          [--gstore F] [--shm-frac F] [--barrier F] [--dep N]
          [--pattern streaming|random:LINES|tiled:TILE,REUSE|hotcold:HOT,FRAC]
          [--transactions N] [--icache-miss F] [--conflicts N]
          [--ctas-per-sm N] [--cycles N] [--sched gto|rr] [--seed N]
          [--large] [--analyze | --predict]
  gpu-sim --corun IMG,NN [--policy leftover|fcfs|even|spatial|dynamic]
          [--cycles N] [--trace FILE] [--chrome FILE] [--large]
  gpu-sim --validate-trace FILE
  gpu-sim store warm FILE --corun IMG,NN [--cycles N] [--capacity N] [--large]
  gpu-sim store inspect FILE
  gpu-sim store clear FILE [--capacity N]";

#[derive(Debug)]
struct Args {
    threads: u32,
    regs: u32,
    shmem: u32,
    grid: u64,
    body: usize,
    iters: u32,
    sfu: f64,
    gload: f64,
    gstore: f64,
    shm_frac: f64,
    barrier: f64,
    dep: usize,
    pattern: AccessPattern,
    icache_miss: f64,
    conflicts: u32,
    ctas_per_sm: u32,
    cycles: u64,
    sched: SchedulerKind,
    large: bool,
    seed: u64,
    analyze: bool,
    predict: bool,
    corun: Option<Vec<String>>,
    policy: String,
    trace: Option<String>,
    chrome: Option<String>,
    validate: Option<String>,
    help: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            threads: 128,
            regs: 16,
            shmem: 0,
            grid: 10_000,
            body: 100,
            iters: 4,
            sfu: 0.05,
            gload: 0.1,
            gstore: 0.02,
            shm_frac: 0.0,
            barrier: 0.0,
            dep: 4,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss: 0.0,
            conflicts: 1,
            ctas_per_sm: u32::MAX,
            cycles: 50_000,
            sched: SchedulerKind::GreedyThenOldest,
            large: false,
            seed: 1,
            analyze: false,
            predict: false,
            corun: None,
            policy: "dynamic".to_string(),
            trace: None,
            chrome: None,
            validate: None,
            help: false,
        }
    }
}

fn parse_pattern(v: &str, transactions: u32) -> Result<AccessPattern, String> {
    let (kind, rest) = v.split_once(':').unwrap_or((v, ""));
    match kind {
        "streaming" => Ok(AccessPattern::Streaming { transactions }),
        "random" => {
            let footprint_lines = rest
                .parse()
                .map_err(|_| format!("random:LINES expected, got {v}"))?;
            Ok(AccessPattern::Random {
                footprint_lines,
                transactions,
            })
        }
        "tiled" => {
            let (t, r) = rest
                .split_once(',')
                .ok_or_else(|| format!("tiled:TILE,REUSE expected, got {v}"))?;
            Ok(AccessPattern::Tiled {
                tile_lines: t.parse().map_err(|_| format!("bad tile size in {v}"))?,
                reuse: r.parse().map_err(|_| format!("bad reuse in {v}"))?,
                transactions,
            })
        }
        "hotcold" => {
            let (h, f) = rest
                .split_once(',')
                .ok_or_else(|| format!("hotcold:HOT_LINES,HOT_FRAC expected, got {v}"))?;
            Ok(AccessPattern::HotCold {
                hot_lines: h.parse().map_err(|_| format!("bad hot lines in {v}"))?,
                hot_frac: f.parse().map_err(|_| format!("bad hot fraction in {v}"))?,
                transactions,
            })
        }
        other => Err(format!("unknown pattern kind: {other}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let mut transactions = 1u32;
    let mut pattern_arg: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--large" {
            out.large = true;
            continue;
        }
        if flag == "--analyze" {
            out.analyze = true;
            continue;
        }
        if flag == "--predict" {
            out.predict = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            out.help = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let f = || -> Result<f64, String> {
            value
                .parse()
                .map_err(|_| format!("bad value for {flag}: {value}"))
        };
        match flag.as_str() {
            "--threads" => out.threads = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--regs" => out.regs = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--shmem" => out.shmem = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--grid" => out.grid = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--body" => out.body = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--iters" => out.iters = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--sfu" => out.sfu = f()?,
            "--gload" => out.gload = f()?,
            "--gstore" => out.gstore = f()?,
            "--shm-frac" => out.shm_frac = f()?,
            "--barrier" => out.barrier = f()?,
            "--dep" => out.dep = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--pattern" => pattern_arg = Some(value),
            "--transactions" => {
                transactions = value.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--icache-miss" => out.icache_miss = f()?,
            "--conflicts" => out.conflicts = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--ctas-per-sm" => {
                out.ctas_per_sm = value.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--cycles" => out.cycles = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--seed" => out.seed = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--sched" => {
                out.sched = match value.as_str() {
                    "gto" => SchedulerKind::GreedyThenOldest,
                    "rr" => SchedulerKind::RoundRobin,
                    other => return Err(format!("unknown scheduler: {other}")),
                }
            }
            "--corun" => {
                out.corun = Some(value.split(',').map(str::to_string).collect());
            }
            "--policy" => out.policy = value,
            "--trace" => out.trace = Some(value),
            "--chrome" => out.chrome = Some(value),
            "--validate-trace" => out.validate = Some(value),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    out.pattern = parse_pattern(pattern_arg.as_deref().unwrap_or("streaming"), transactions)?;
    // Values the program generator rejects, or that make a run
    // meaningless, checked here so the message names the flags; the launch
    // pre-flight checks the rest of the kernel.
    if out.body == 0 {
        return Err("--body must be at least 1".to_string());
    }
    let fracs = [out.sfu, out.gload, out.gstore, out.shm_frac, out.barrier];
    if !fracs.iter().all(|f| *f >= 0.0) || fracs.iter().sum::<f64>() > 1.0 + 1e-9 {
        return Err(
            "--sfu/--gload/--gstore/--shm-frac/--barrier must be non-negative and sum to <= 1"
                .to_string(),
        );
    }
    if !(0.0..=1.0).contains(&out.icache_miss) {
        return Err(format!(
            "--icache-miss must be in [0, 1], got {}",
            out.icache_miss
        ));
    }
    if out.ctas_per_sm == 0 {
        return Err("--ctas-per-sm must be at least 1".to_string());
    }
    if out.cycles == 0 {
        return Err("--cycles must be at least 1".to_string());
    }
    if out.corun.is_none() && (out.trace.is_some() || out.chrome.is_some()) {
        return Err("--trace/--chrome require --corun".to_string());
    }
    Ok(out)
}

/// `--analyze`: run the full ws-analyze rule catalogue over the kernel and
/// print the report (derived metrics, Eq. 1 occupancy quotas, and every
/// diagnostic). Exits non-zero when any *error*-severity diagnostic is
/// emitted — the same findings that fail the `Gpu` launch pre-flight — so
/// scripted callers cannot silently pass a rejected kernel.
fn analyze(desc: &KernelDesc, cfg: &GpuConfig) -> ExitCode {
    println!(
        "kernel `{}`: {} CTAs x {} threads, {} regs/thread, {} B shmem/CTA",
        desc.name, desc.grid_ctas, desc.threads_per_cta, desc.regs_per_thread, desc.shmem_per_cta
    );
    let report = ws_analyze::analyze_kernel(desc, cfg);
    print!("{report}");
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        eprintln!("error: {errors} error-severity diagnostic(s); kernel rejected");
        ExitCode::FAILURE
    } else {
        println!("{}: verdict ok", report.subject);
        ExitCode::SUCCESS
    }
}

/// `--predict`: run the ws-predict static performance analyzer and print
/// the predicted IPC-vs-CTA curve, the predicted knee, and the profiling
/// window the controller would use. Exits non-zero on error-severity
/// diagnostics or when prediction is rejected by the pre-flight.
fn predict(desc: &KernelDesc, cfg: &GpuConfig) -> ExitCode {
    let report = ws_analyze::analyze_kernel(desc, cfg);
    let mut errors = 0usize;
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
    {
        eprintln!("{}: error: [{}] {}", report.subject, d.rule, d.message);
        errors += 1;
    }
    if errors > 0 {
        eprintln!("error: {errors} error-severity diagnostic(s); kernel rejected");
        return ExitCode::FAILURE;
    }
    match ws_analyze::predict_kernel(desc, cfg) {
        Ok(curve) => {
            println!(
                "kernel `{}`: ws-predict static performance curve",
                desc.name
            );
            for (j, ipc) in curve.ipc.iter().enumerate() {
                let n = j as u32 + 1;
                let mark = if n == curve.knee {
                    "  <- predicted knee"
                } else {
                    ""
                };
                println!("  {n:>2} CTAs/SM : IPC {ipc:.3}{mark}");
            }
            let max = curve.max_ctas();
            println!("  predicted knee   : {} of 1..={max} CTAs/SM", curve.knee);
            let plan = warped_slicer::SweepPlan::from_predictions(&[desc], &[max], cfg);
            let caps: Vec<String> = plan
                .windows
                .iter()
                .flat_map(|w| w.planned_caps())
                .map(|c| c.to_string())
                .collect();
            println!("  profiling window : {} CTAs/SM", caps.join(", "));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: prediction rejected: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `--validate-trace`: check a JSONL trace against the ws-trace schema.
fn validate_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_jsonl(&text) {
        Ok(records) => {
            println!("{path}: {records} schema-valid records");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_policy(name: &str, isolation_cycles: u64) -> Result<PolicyKind, String> {
    match name {
        "leftover" => Ok(PolicyKind::LeftOver),
        "fcfs" => Ok(PolicyKind::Fcfs),
        "even" => Ok(PolicyKind::Even),
        "spatial" => Ok(PolicyKind::Spatial),
        "dynamic" => Ok(PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(
            isolation_cycles,
        ))),
        other => Err(format!(
            "unknown policy: {other} (expected leftover|fcfs|even|spatial|dynamic)"
        )),
    }
}

/// `--corun`: equal-work multiprogrammed run with optional ws-trace export.
fn corun(args: &Args, abbrevs: &[String]) -> Result<ExitCode, String> {
    let benches: Vec<_> = abbrevs
        .iter()
        .map(|a| by_abbrev(a).ok_or_else(|| format!("unknown benchmark abbreviation: {a}")))
        .collect::<Result<_, _>>()?;
    if benches.len() < 2 {
        return Err("--corun needs at least two comma-separated benchmarks".to_string());
    }
    let cfg = RunConfig {
        gpu: if args.large {
            GpuConfig::large()
        } else {
            GpuConfig::isca_baseline()
        },
        scheduler: args.sched,
        isolation_cycles: args.cycles,
        ..RunConfig::default()
    };
    let policy = parse_policy(&args.policy, args.cycles)?;
    let names: Vec<&str> = benches.iter().map(|b| b.abbrev).collect();
    println!(
        "corun {} under `{}` (isolation budget {} cycles)",
        names.join("+"),
        args.policy,
        args.cycles
    );
    let iso: Vec<_> = benches
        .iter()
        .map(|b| run_isolation(&b.desc, &cfg))
        .collect();
    let targets: Vec<u64> = iso.iter().map(|r| r.target_insts).collect();
    let isolated: Vec<u64> = iso.iter().map(|r| r.isolated_cycles).collect();
    let traced = args.trace.is_some() || args.chrome.is_some();
    let run_cfg = RunConfig {
        trace: traced.then(TraceOptions::default),
        ..cfg
    };
    let descs: Vec<&KernelDesc> = benches.iter().map(|b| &b.desc).collect();
    let job = SimJob::corun(&descs, &targets, &policy, &run_cfg);
    let outcome = execute(&job);
    let result = outcome.clone().into_corun(&job);
    println!("  total cycles      : {}", result.total_cycles);
    for (i, name) in names.iter().enumerate() {
        let fin = result.finish_cycle.get(i).copied().flatten();
        println!(
            "  {name:<6} target {:>9} insts, isolated {:>8} cycles, finished at {}",
            targets.get(i).copied().unwrap_or(0),
            isolated.get(i).copied().unwrap_or(0),
            fin.map_or_else(|| "TIMEOUT".to_string(), |c| c.to_string()),
        );
    }
    println!("  combined IPC      : {:.3}", result.combined_ipc);
    println!("  fairness          : {:.3}", fairness(&result, &isolated));
    println!("  ANTT              : {:.3}", antt(&result, &isolated));
    if let Some(path) = &args.trace {
        let text = jsonl(&outcome, &result.label, &result.policy, &names);
        let records = validate_jsonl(&text).map_err(|e| format!("internal: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  trace             : {records} records -> {path}");
    }
    if let Some(path) = &args.chrome {
        let doc = chrome_trace(&outcome, &names);
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  chrome trace      : -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Load a ws-store file, or start an empty store when the file does not
/// exist yet. A present-but-malformed file is an error, never silently
/// replaced.
fn load_or_new_store(path: &str, capacity: usize) -> Result<CurveStore, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => CurveStore::from_jsonl(&text).map_err(|e| format!("{path}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(CurveStore::new(capacity)),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    }
}

/// Validate and write a store back to its JSONL file.
fn write_store(path: &str, store: &CurveStore) -> Result<usize, String> {
    let text = store.to_jsonl();
    let records =
        validate_jsonl(&text).map_err(|e| format!("internal: store file invalid: {e}"))?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(records)
}

/// `store inspect FILE`: print every memoized curve in insertion order.
fn store_inspect(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let store = CurveStore::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("store file    : {path}");
    println!("store capacity: {}", store.capacity());
    println!("store entries : {}", store.len());
    for (key, entry) in store.entries_in_insertion_order() {
        let pts: Vec<String> = entry.perf.iter().map(|v| format!("{v:.3}")).collect();
        println!(
            "  {:016x}/{:016x}  {:<8} {:<24} knee {:>2}  [{}]",
            key.kernel_sig,
            key.gpu_sig,
            entry.class,
            entry.archetype,
            entry.knee,
            pts.join(", ")
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `store clear FILE`: reset the file to an empty store, preserving the
/// capacity of an existing file unless `--capacity` overrides it.
fn store_clear(path: &str, rest: &[String]) -> Result<ExitCode, String> {
    let mut capacity: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--capacity" => {
                let v = it.next().ok_or("--capacity requires a value")?;
                capacity = Some(v.parse().map_err(|e| format!("--capacity: {e}"))?);
            }
            other => return Err(format!("unknown store clear flag: {other}")),
        }
    }
    let kept = capacity.unwrap_or_else(|| {
        load_or_new_store(path, DEFAULT_STORE_CAPACITY)
            .map_or(DEFAULT_STORE_CAPACITY, |s| s.capacity())
    });
    let store = CurveStore::new(kept);
    write_store(path, &store)?;
    println!("store file    : {path}");
    println!("store entries : 0 (cleared, capacity {kept})");
    Ok(ExitCode::SUCCESS)
}

/// `store warm FILE --corun A,B`: run the co-run with the store attached
/// to the dynamic Warped-Slicer controller and persist the updated store.
fn store_warm(path: &str, rest: &[String]) -> Result<ExitCode, String> {
    let mut corun_arg: Option<String> = None;
    let mut cycles = 12_000u64;
    let mut capacity = DEFAULT_STORE_CAPACITY;
    let mut large = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--large" => large = true,
            "--corun" => {
                corun_arg = Some(it.next().ok_or("--corun requires a value")?.clone());
            }
            "--cycles" => {
                let v = it.next().ok_or("--cycles requires a value")?;
                cycles = v.parse().map_err(|e| format!("--cycles: {e}"))?;
            }
            "--capacity" => {
                let v = it.next().ok_or("--capacity requires a value")?;
                capacity = v.parse().map_err(|e| format!("--capacity: {e}"))?;
            }
            other => return Err(format!("unknown store warm flag: {other}")),
        }
    }
    let abbrevs = corun_arg.ok_or("store warm requires --corun A,B")?;
    let benches: Vec<_> = abbrevs
        .split(',')
        .map(|a| by_abbrev(a).ok_or_else(|| format!("unknown benchmark abbreviation: {a}")))
        .collect::<Result<_, _>>()?;
    if benches.len() < 2 {
        return Err("store warm needs at least two comma-separated benchmarks".to_string());
    }
    let shared = SharedCurveStore::new(load_or_new_store(path, capacity)?);
    let cfg = RunConfig {
        gpu: if large {
            GpuConfig::large()
        } else {
            GpuConfig::isca_baseline()
        },
        isolation_cycles: cycles,
        ..RunConfig::default()
    };
    let policy = PolicyKind::WarpedSlicer(WarpedSlicerConfig {
        store: Some(shared.clone()),
        ..WarpedSlicerConfig::scaled_for(cycles)
    });
    let names: Vec<&str> = benches.iter().map(|b| b.abbrev).collect();
    let targets: Vec<u64> = benches
        .iter()
        .map(|b| run_isolation(&b.desc, &cfg).target_insts)
        .collect();
    let descs: Vec<&KernelDesc> = benches.iter().map(|b| &b.desc).collect();
    let job = SimJob::corun(&descs, &targets, &policy, &cfg);
    let outcome = execute(&job);
    // Stats reset on load, so a run that never missed decided entirely
    // from memoized curves.
    let (stats, entries) = shared.with(|s| (s.stats(), s.len()));
    let warm = outcome.decision.is_some() && stats.misses == 0 && stats.hits > 0;
    let records = shared.with(|s| write_store(path, s))?;
    println!(
        "store warm {} ({} cycles): {} decision",
        names.join("+"),
        cycles,
        if warm { "warm" } else { "cold" }
    );
    println!("store hits    : {}", stats.hits);
    println!("store misses  : {}", stats.misses);
    println!("store entries : {entries}");
    println!("store file    : {path} ({records} records)");
    Ok(ExitCode::SUCCESS)
}

/// `store …` subcommand dispatch.
fn store_cmd(argv: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: gpu-sim store inspect|warm|clear FILE [flags]";
    let sub = argv.first().map(String::as_str).ok_or(usage)?;
    let path = argv.get(1).map(String::as_str).ok_or(usage)?;
    let rest = argv.get(2..).unwrap_or(&[]);
    match sub {
        "inspect" => {
            if let Some(extra) = rest.first() {
                return Err(format!("unknown store inspect flag: {extra}"));
            }
            store_inspect(path)
        }
        "warm" => store_warm(path, rest),
        "clear" => store_clear(path, rest),
        other => Err(format!(
            "unknown store subcommand: {other} (expected inspect|warm|clear)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("store") {
        return match store_cmd(argv.get(1..).unwrap_or(&[])) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.validate {
        return validate_trace(path);
    }
    if let Some(abbrevs) = &args.corun {
        return match corun(&args, abbrevs) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = if args.large {
        GpuConfig::large()
    } else {
        GpuConfig::isca_baseline()
    };
    let spec = ProgramSpec {
        body_len: args.body,
        sfu_frac: args.sfu,
        gload_frac: args.gload,
        gstore_frac: args.gstore,
        shmem_frac: args.shm_frac,
        barrier_frac: args.barrier,
        dep_distance: args.dep,
        seed: args.seed,
    };
    let program = match spec.generate() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let desc = KernelDesc {
        name: "cli".into(),
        grid_ctas: args.grid,
        threads_per_cta: args.threads,
        regs_per_thread: args.regs,
        shmem_per_cta: args.shmem,
        program,
        iterations: args.iters,
        pattern: args.pattern.clone(),
        icache_miss_rate: args.icache_miss,
        shmem_conflict_degree: args.conflicts,
        seed: args.seed,
    };
    if args.analyze {
        return analyze(&desc, &cfg);
    }
    if args.predict {
        return predict(&desc, &cfg);
    }
    let mut gpu = Gpu::new(cfg.clone(), args.sched);
    let k = match gpu.try_add_kernel(desc) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: kernel rejected by the launch pre-flight: {e}");
            return ExitCode::FAILURE;
        }
    };
    let desc = gpu.kernel_desc(k);
    let max_ctas = desc.max_ctas_per_sm(&cfg.sm);
    println!(
        "kernel: {} threads/CTA, {} regs/thread, {} B shmem/CTA -> max {} CTAs/SM",
        desc.threads_per_cta, desc.regs_per_thread, desc.shmem_per_cta, max_ctas
    );
    let cap = args.ctas_per_sm.min(max_ctas);
    for _ in 0..args.cycles {
        for s in 0..gpu.num_sms() {
            while gpu.sm(s).kernel_ctas(0) < cap && gpu.try_launch(k, s) {}
        }
        gpu.tick();
    }

    println!("after {} cycles ({}):", args.cycles, args.sched);
    println!("  warp instructions : {}", gpu.kernel_insts(k));
    println!("  IPC (GPU-wide)    : {:.3}", gpu.total_ipc());
    println!(
        "  CTAs completed    : {}",
        gpu.kernel_meta(k).completed_ctas
    );
    let mem = gpu.mem_stats();
    let mut l1a = 0u64;
    let mut l1m = 0u64;
    for sm in gpu.sms() {
        l1a += sm.stats().kernel(0).l1_accesses;
        l1m += sm.stats().kernel(0).l1_misses;
    }
    println!(
        "  L1 miss rate      : {:.1}%  ({} accesses)",
        100.0 * l1m as f64 / l1a.max(1) as f64,
        l1a
    );
    println!(
        "  L2 miss rate      : {:.1}%  (MPKI {:.1})",
        100.0 * mem.total.l2_misses as f64 / mem.total.l2_accesses.max(1) as f64,
        mem.total.l2_misses as f64 * 1000.0 / gpu.kernel_insts(k).max(1) as f64
    );
    println!(
        "  DRAM              : {} transactions, {:.1}% bus busy",
        gpu.mem().dram_serviced(),
        100.0 * gpu.mem().dram_busy_fraction(args.cycles)
    );
    let sched_cycles =
        (args.cycles * gpu.num_sms() as u64 * u64::from(cfg.sm.num_schedulers)) as f64;
    let mut stall_line = String::new();
    for (name, reason) in [
        ("mem", StallReason::LongMemoryLatency),
        ("raw", StallReason::ShortRawHazard),
        ("exec", StallReason::ExecResource),
        ("ibuf", StallReason::IbufferEmpty),
        ("barrier", StallReason::Barrier),
    ] {
        let c: u64 = gpu.sms().map(|s| s.stats().stalls.get(reason)).sum();
        stall_line.push_str(&format!("{name} {:.1}%  ", 100.0 * c as f64 / sched_cycles));
    }
    println!("  stalls            : {stall_line}");
    ExitCode::SUCCESS
}
