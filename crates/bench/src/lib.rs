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
