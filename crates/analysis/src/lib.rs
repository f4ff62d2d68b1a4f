//! # ws-analyze
//!
//! Static kernel-IR verifier and dataflow analyzer for the Warped-Slicer
//! synthetic workloads. Without simulating a single cycle, it checks that a
//! [`gpu_sim::KernelDesc`] can execute meaningfully and that a classified
//! [`ws_workloads::Benchmark`] actually exhibits the properties it declares:
//!
//! * **Hard rules** (shared with the `Gpu::try_add_kernel` launch
//!   pre-flight): Eq. 1 resource feasibility against the SM configuration
//!   (zero occupancy is a hard error), register reads that no instruction
//!   ever defines, operand-carrying barriers, destination-less loads, and
//!   structural zeroes.
//! * **Dataflow** ([`dataflow`]): the pre-flight's one walk over the body, a
//!   reaching-definition fixpoint across the loop back-edge, yields the RAW
//!   dependence-distance histogram, the live-in read count, and the
//!   dominant dependence distance that drives compute-scaling behaviour
//!   (Fig. 3a of the paper).
//! * **Kernel warnings**: declared memory footprints vs the address-space
//!   geometry, tiles vs L1 capacity, clamped transaction counts,
//!   shared-memory allocation/usage mismatches, degenerate barriers.
//! * **Consistency rules**: declared `WorkloadClass` / `ScalingArchetype`
//!   vs the derived global-traffic rate and dominant RAW distance.
//!
//! Findings are structured [`Diagnostic`]s (stable rule id, severity, span,
//! suggested fix). A benchmark may suppress a *warning* with a
//! [`ws_workloads::Waiver`] carrying a written justification; errors cannot
//! be waived, and an empty justification is itself an error.
//!
//! The `verify-workloads` binary (wired into `cargo xtask check`) runs
//! [`verify_suite`] over the shipped suites and fails on any unwaived
//! finding.
//!
//! ```
//! use gpu_sim::GpuConfig;
//! use ws_analyze::analyze_benchmark;
//!
//! let cfg = GpuConfig::isca_baseline();
//! let report = analyze_benchmark(&ws_workloads::hot(), &cfg);
//! assert!(report.is_clean());
//! assert_eq!(report.metrics.max_ctas, 6);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dataflow;
pub mod diag;
pub mod predict;
pub mod rules;

pub use dataflow::ProgramFlow;
pub use diag::{Diagnostic, Report, Severity, StaticMetrics};
pub use predict::{
    extract_features, knee_of, predict_curve, predict_kernel, Features, PerfCurve, KNEE_TOL,
};
pub use rules::{
    analyze_benchmark, analyze_kernel, rule_catalogue, verify_suite, ANALYSIS_RULES, HARD_RULES,
};
