//! Exit-code regression tests for the CLI.
//!
//! `--analyze` and `--predict` are meant for scripts and CI gates, so a
//! kernel with error-severity diagnostics must fail the process — an
//! exit code of 0 on a rejected kernel silently passes in shell pipelines.
//! The same holds for every mode's input: a value that cannot make a
//! meaningful run exits non-zero with a structured error, never a panic
//! and never a run of all-zero statistics.

use std::process::{Command, Output};

fn gpu_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-sim"))
        .args(args)
        .output()
        .expect("gpu-sim binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn analyze_clean_kernel_exits_zero() {
    let out = gpu_sim(&["--analyze", "--threads", "128", "--gload", "0.1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("verdict ok"));
}

#[test]
fn analyze_rejected_kernel_exits_nonzero() {
    // 2000 threads/CTA exceeds the SM's 1536-thread bound: an
    // error-severity diagnostic, so the process must fail.
    let out = gpu_sim(&["--analyze", "--threads", "2000"]);
    assert!(!out.status.success(), "rejected kernel must exit non-zero");
    assert!(
        stderr(&out).contains("error-severity"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("error"), "report names the error");
}

#[test]
fn predict_clean_kernel_prints_a_curve_and_exits_zero() {
    let out = gpu_sim(&["--predict", "--threads", "128", "--gload", "0.1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("predicted knee"), "stdout: {text}");
    assert!(text.contains("CTAs/SM : IPC"), "curve points printed");
}

#[test]
fn predict_prints_the_planned_sample_caps() {
    // Knee 4 of 8 plans the dense prefix 1..=5, the midpoint guard 6 and
    // the guard 8.
    let out = gpu_sim(&["--predict", "--threads", "128", "--gload", "0.1"]);
    let text = stdout(&out);
    assert!(text.contains("predicted knee   : 4 of 1..=8"), "{text}");
    assert!(
        text.contains("profiling window : 1, 2, 3, 4, 5, 6, 8 CTAs/SM\n"),
        "{text}"
    );
    // A knee at the feasibility bound keeps the full window: no guard.
    let out = gpu_sim(&["--predict", "--threads", "64"]);
    let text = stdout(&out);
    assert!(text.contains("predicted knee   : 8 of 1..=8"), "{text}");
    assert!(
        text.contains("profiling window : 1, 2, 3, 4, 5, 6, 7, 8 CTAs/SM\n"),
        "{text}"
    );
}

#[test]
fn predict_rejected_kernel_exits_nonzero() {
    let out = gpu_sim(&["--predict", "--threads", "2000"]);
    assert!(!out.status.success(), "rejected kernel must exit non-zero");
    assert!(
        stderr(&out).contains("error-severity"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn bad_flag_exits_nonzero() {
    let out = gpu_sim(&["--no-such-flag", "1"]);
    assert!(!out.status.success());
}

/// Asserts `args` exit non-zero with `needle` on stderr and without a
/// panic.
fn rejects(args: &[&str], needle: &str) {
    let out = gpu_sim(args);
    let err = stderr(&out);
    assert!(!out.status.success(), "{args:?} must exit non-zero");
    assert!(
        err.contains(needle),
        "{args:?}: stderr lacks {needle:?}: {err}"
    );
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = gpu_sim(&["--help"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("usage:"), "stdout: {}", stdout(&out));
}

#[test]
fn zero_threads_fails_the_launch_preflight() {
    rejects(&["--threads", "0"], "[zero-threads]");
}

#[test]
fn zero_grid_fails_the_launch_preflight() {
    rejects(&["--grid", "0"], "[zero-grid]");
}

#[test]
fn oversized_registers_fail_the_launch_preflight() {
    rejects(&["--regs", "100000"], "[eq1-infeasible]");
}

#[test]
fn oversized_shared_memory_fails_the_launch_preflight() {
    rejects(&["--shmem", "99999999"], "[eq1-infeasible]");
}

#[test]
fn empty_body_is_rejected_before_program_generation() {
    rejects(&["--body", "0"], "--body");
    rejects(&["--analyze", "--body", "0"], "--body");
}

#[test]
fn overfull_instruction_mix_is_rejected_before_program_generation() {
    rejects(&["--gload", "2"], "sum to <= 1");
    rejects(&["--sfu", "-0.5"], "non-negative");
}

#[test]
fn zero_ctas_per_sm_is_rejected() {
    rejects(&["--ctas-per-sm", "0"], "--ctas-per-sm");
}

#[test]
fn zero_cycles_is_rejected() {
    rejects(&["--cycles", "0"], "--cycles");
}

#[test]
fn icache_miss_rate_outside_unit_interval_is_rejected() {
    rejects(&["--icache-miss", "-1"], "--icache-miss");
    rejects(&["--icache-miss", "1.5"], "--icache-miss");
}
