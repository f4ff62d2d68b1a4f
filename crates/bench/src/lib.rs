//! # ws-bench
//!
//! The experiment harness for the Warped-Slicer reproduction: regenerates
//! every table and figure of the paper's evaluation from the simulator, and
//! exposes the same entry points to the `experiments` binary, the
//! `bench/` benchmark package, the `exec`, `sim` and `predict` baselines
//! under `benches/`, and the test suite.
//!
//! See DESIGN.md §4 for the per-experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record.

pub mod context;
pub mod experiments;
pub mod report;

pub use context::ExperimentContext;

/// Checks [`gpu_sim::FAST_FORWARD_ENV`] and [`ws_exec::THREADS_ENV`] with
/// the libraries' own parsers, so the harness binaries stop at start-up on
/// a value the libraries would silently replace by their default; the
/// error names the variable and its accepted values.
pub fn check_env_knobs() -> Result<(), String> {
    if let Some(v) = std::env::var_os(gpu_sim::FAST_FORWARD_ENV) {
        gpu_sim::parse_fast_forward(&v.to_string_lossy())?;
    }
    if let Some(v) = std::env::var_os(ws_exec::THREADS_ENV) {
        ws_exec::parse_threads(&v.to_string_lossy())?;
    }
    Ok(())
}
