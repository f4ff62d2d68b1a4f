//! Simulator-core fast-forward baseline: wall-clock of memory-bound
//! co-runs with the event-horizon fast-forward on vs. off, written
//! machine-readably to `target/bench-reports/BENCH_sim.json`.
//!
//! Two scenarios bracket the regimes documented in DESIGN.md §9:
//!
//! - `steady_state_corun` — BFS+LBM under the Warped-Slicer controller at
//!   full occupancy. A saturated machine has a state-changing event almost
//!   every cycle, so nothing is skippable; this scenario documents that
//!   fast-forward adds no measurable overhead (the attempt backoff keeps
//!   failed probes off the hot path).
//! - `safety_cap_corun` — the headline: an equal-work BFS+MUM co-run whose
//!   kernels exhaust their grids before reaching their instruction
//!   targets, so the harness runs the drained machine to its
//!   `max_cycle_factor` safety cap (`timed_out` outcome). Dead cycles
//!   dominate and fast-forward collapses them to a single jump.
//!
//! Both scenarios assert the two modes produce byte-identical statistics,
//! so the perf baseline doubles as a correctness check of the
//! event-horizon contract.
//!
//! Optional floors for CI (the bench exits non-zero when violated):
//! - `WS_SIM_BENCH_MIN_SKIPPED`: minimum skipped-cycle fraction in the
//!   safety-cap scenario (deterministic, safe on noisy shared runners).
//! - `WS_SIM_BENCH_MIN_SPEEDUP`: minimum wall-clock speedup there (only
//!   meaningful on quiet hosts).
//! - `WS_SIM_BENCH_MIN_STEADY_SPEEDUP`: minimum fast-forward-vs-naive
//!   speedup in the *saturated* scenario. The dense regime is where the
//!   SoA scoreboard and micro-horizons earn their keep; this floor keeps
//!   fast-forward probing from ever regressing it (it sat unenforced at
//!   0.96x before the data-oriented refactor). Throughput itself is
//!   reported as `cycles_per_sec` per scenario for baseline comparisons.

use std::path::PathBuf;
use std::time::Instant;

use warped_slicer::{
    execute, PolicyKind, RunConfig, SimJob, SimOutcome, StopCondition, WarpedSlicerConfig,
};
use ws_workloads::by_abbrev;

const STEADY_WARMUP: u64 = 2_000;
const STEADY_MEASURE: u64 = 60_000;

fn steady_state_job(fast_forward: bool) -> SimJob {
    let a = by_abbrev("BFS").expect("suite benchmark");
    let b = by_abbrev("LBM").expect("suite benchmark");
    SimJob {
        kernels: vec![a.desc.clone(), b.desc.clone()],
        policy: PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(STEADY_MEASURE)),
        cfg: RunConfig {
            fast_forward: Some(fast_forward),
            ..RunConfig::default()
        },
        warmup: STEADY_WARMUP,
        stop: StopCondition::Cycles(STEADY_MEASURE),
    }
}

fn safety_cap_job(fast_forward: bool) -> SimJob {
    let mut a = by_abbrev("BFS").expect("suite benchmark").desc.clone();
    let mut b = by_abbrev("MUM").expect("suite benchmark").desc.clone();
    // Truncated grids: both kernels run out of CTAs long before the
    // (deliberately unreachable) instruction targets, so the run stretches
    // to `isolation_cycles * max_cycle_factor` with a drained machine.
    a.grid_ctas = 128;
    b.grid_ctas = 96;
    SimJob {
        kernels: vec![a, b],
        policy: PolicyKind::Fcfs,
        cfg: RunConfig {
            fast_forward: Some(fast_forward),
            ..RunConfig::default()
        },
        warmup: 0,
        stop: StopCondition::Targets(vec![2_000_000, 2_000_000]),
    }
}

/// Every outcome field except the diagnostic skip counter, rendered
/// through `Debug` so all statistics are compared bit-for-bit.
fn fingerprint(out: &SimOutcome) -> String {
    format!(
        "{:?} {:?} {} {} {:?} {} {:?} {:?}",
        out.start_insts,
        out.end_insts,
        out.measured_cycles,
        out.total_cycles,
        out.finish_cycle,
        out.timed_out,
        out.stats,
        out.decision
    )
}

struct ScenarioResult {
    name: &'static str,
    naive_wall: f64,
    fast_wall: f64,
    speedup: f64,
    total_cycles: u64,
    skipped_cycles: u64,
    skipped_frac: f64,
    /// Simulated cycles per wall-clock second, both modes: the dense-regime
    /// throughput number the SoA refactor is gated on.
    naive_cycles_per_sec: f64,
    fast_cycles_per_sec: f64,
}

fn run_scenario(name: &'static str, make: fn(bool) -> SimJob) -> ScenarioResult {
    let t = Instant::now();
    let naive = execute(&make(false));
    let naive_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fast = execute(&make(true));
    let fast_wall = t.elapsed().as_secs_f64();

    assert_eq!(naive.ff_skipped_cycles, 0, "{name}: disabled mode skipped");
    assert_eq!(
        fingerprint(&naive),
        fingerprint(&fast),
        "{name}: fast-forward must be byte-identical to the naive loop"
    );

    let skipped_frac = fast.ff_skipped_cycles as f64 / fast.total_cycles.max(1) as f64;
    ScenarioResult {
        name,
        naive_wall,
        fast_wall,
        speedup: naive_wall / fast_wall.max(1e-9),
        total_cycles: fast.total_cycles,
        skipped_cycles: fast.ff_skipped_cycles,
        skipped_frac,
        naive_cycles_per_sec: fast.total_cycles as f64 / naive_wall.max(1e-9),
        fast_cycles_per_sec: fast.total_cycles as f64 / fast_wall.max(1e-9),
    }
}

fn render(s: &ScenarioResult) -> String {
    format!(
        "    {{ \"name\": \"{}\", \"naive_wall_s\": {:.4}, \"fast_forward_wall_s\": {:.4}, \
         \"speedup\": {:.3}, \"total_cycles\": {}, \"skipped_cycles\": {}, \
         \"skipped_fraction\": {:.4}, \"naive_cycles_per_sec\": {:.0}, \
         \"fast_forward_cycles_per_sec\": {:.0} }}",
        s.name,
        s.naive_wall,
        s.fast_wall,
        s.speedup,
        s.total_cycles,
        s.skipped_cycles,
        s.skipped_frac,
        s.naive_cycles_per_sec,
        s.fast_cycles_per_sec
    )
}

fn floor(env: &str) -> Option<f64> {
    std::env::var(env).ok().and_then(|v| v.parse().ok())
}

fn main() {
    let steady = run_scenario("steady_state_corun", steady_state_job);
    let cap = run_scenario("safety_cap_corun", safety_cap_job);

    let json = format!(
        "{{\n  \"bench\": \"sim_fast_forward\",\n  \
         \"workload\": \"memory-bound coruns (BFS+LBM steady state, BFS+MUM safety cap)\",\n  \
         \"scenarios\": [\n{},\n{}\n  ],\n  \
         \"speedup\": {:.3},\n  \"skipped_fraction\": {:.4},\n  \"identical_output\": true\n}}\n",
        render(&steady),
        render(&cap),
        cap.speedup,
        cap.skipped_frac
    );

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    let path = dir.join("BENCH_sim.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    for s in [&steady, &cap] {
        println!(
            "sim/{}: naive {:.2}s, fast-forward {:.2}s (x{:.2}), skipped {}/{} cycles \
             ({:.1}%), {:.0} cycles/s",
            s.name,
            s.naive_wall,
            s.fast_wall,
            s.speedup,
            s.skipped_cycles,
            s.total_cycles,
            s.skipped_frac * 100.0,
            s.fast_cycles_per_sec
        );
    }
    println!("-> {}", path.display());

    if let Some(min) = floor("WS_SIM_BENCH_MIN_SKIPPED") {
        if cap.skipped_frac < min {
            eprintln!(
                "safety-cap skipped fraction {:.4} below committed floor {min}",
                cap.skipped_frac
            );
            std::process::exit(1);
        }
    }
    if let Some(min) = floor("WS_SIM_BENCH_MIN_SPEEDUP") {
        if cap.speedup < min {
            eprintln!(
                "safety-cap speedup {:.3} below committed floor {min}",
                cap.speedup
            );
            std::process::exit(1);
        }
    }
    if let Some(min) = floor("WS_SIM_BENCH_MIN_STEADY_SPEEDUP") {
        if steady.speedup < min {
            eprintln!(
                "steady-state speedup {:.3} below committed floor {min}: fast-forward \
                 probing is dragging the saturated regime",
                steady.speedup
            );
            std::process::exit(1);
        }
    }
}
