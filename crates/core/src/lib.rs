//! # warped-slicer
//!
//! A from-scratch implementation of **Warped-Slicer** (Xu, Jeon, Kim, Ro,
//! Annavaram — ISCA 2016): efficient intra-SM slicing through dynamic
//! resource partitioning for GPU multiprogramming.
//!
//! The crate provides, on top of the [`gpu_sim`] substrate:
//!
//! * [`waterfill`] — the `O(KN)` discrete water-filling partitioning
//!   algorithm (Algorithm 1) plus an exhaustive reference implementation;
//! * [`scaling`] — the bandwidth-interference IPC correction (Eq. 2-4);
//! * [`profiler`] — the parallel-SM online profiling strategy (Fig. 4);
//! * [`sweep`] — `ws-predict`-driven pruning of the profiling sweep, with
//!   the checked fall-back that keeps water-filling exact;
//! * [`decider`] — the one Sec. IV decision body (sweep plan, sample
//!   rounds, water-fill and fallback) every decision path drives;
//! * [`phase`] — sustained-IPC-change detection (Sec. IV-B);
//! * [`policy`] — CTA-dispatch controllers for Left-Over, FCFS, Even,
//!   Spatial, fixed-quota, and the dynamic Warped-Slicer;
//! * [`runner`] — the equal-work experiment methodology (Sec. V-A);
//! * [`metrics`] — combined IPC, fairness (minimum speedup), ANTT;
//! * [`audit`] / [`tracefmt`] — the ws-trace decision-audit channel and
//!   its JSONL / Chrome `trace_event` export formats;
//! * [`store`] — the persistent memoized performance-curve cache
//!   (lookup-before-profile, phase-trigger invalidation, deterministic
//!   insertion-order eviction);
//! * [`energy`] — an event-based power/energy model (Sec. V-G);
//! * [`oracle`] — exhaustive best-partition search (the figures' Oracle).
//!
//! ## Example: partition two kernels with Algorithm 1
//!
//! ```
//! use warped_slicer::resources::ResourceVec;
//! use warped_slicer::waterfill::{water_fill, KernelCurve};
//!
//! let cap = ResourceVec { regs: 32768, shmem: 48 * 1024, threads: 1536, ctas: 8 };
//! let compute = KernelCurve {
//!     perf: vec![0.25, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0],
//!     cta_cost: ResourceVec { regs: 4096, shmem: 0, threads: 128, ctas: 1 },
//! };
//! let cache_sensitive = KernelCurve {
//!     perf: vec![0.8, 1.0, 0.7, 0.6, 0.5, 0.45, 0.4, 0.35],
//!     cta_cost: ResourceVec { regs: 3072, shmem: 0, threads: 192, ctas: 1 },
//! };
//! let partition = water_fill(&[compute, cache_sensitive], cap).expect("feasible");
//! assert_eq!(partition.ctas, vec![4, 2]); // compute scales, cache peaks at 2
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod audit;
pub mod decider;
pub mod energy;
pub mod metrics;
pub mod oracle;
pub mod phase;
pub mod policy;
pub mod profiler;
pub mod resources;
pub mod runner;
pub mod scaling;
pub mod store;
pub mod sweep;
pub mod tracefmt;
pub mod waterfill;

pub use audit::{AuditEvent, DecisionAudit};
pub use decider::Decider;
pub use energy::{EnergyModel, EnergyReport};
pub use metrics::{antt, fairness, speedups, system_throughput};
pub use oracle::{feasible_quotas, run_oracle, OracleResult};
pub use phase::PhaseMonitor;
pub use policy::{
    make_controller, Controller, Decision, PolicyKind, WarpedSlicerConfig, WarpedSlicerController,
};
pub use profiler::{build_curves, ProfilePlan, ProfileSample, ProfileTiming, SmAssignment};
pub use resources::ResourceVec;
pub use runner::{
    collect_stats, execute, run_corun, run_isolation, run_with_cta_cap, AggregateStats, CacheStats,
    CorunResult, Driver, IsolationResult, RunConfig, SimJob, SimOutcome, StopCondition,
    TraceOptions, UtilizationStats,
};
pub use scaling::{psi, ScaleOutcome};
pub use store::{CurveKey, CurveStore, KernelSignature, SharedCurveStore, StoreEntry, StoreStats};
pub use sweep::{accept_pruned, profile_curves_planned, PlannedSweep, SweepPlan, SweepWindow};
pub use tracefmt::{audit_jsonl, chrome_trace, jsonl, validate_jsonl};
pub use waterfill::{brute_force, water_fill, KernelCurve, Partition, WaterFillStep};

#[cfg(test)]
mod strict {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f`, which breaks a `strict_assert!` invariant, in either build
    /// profile. With the checks compiled in it must panic with a message
    /// containing `expected`, and `None` is returned; without them it must
    /// return normally, and its result is handed back so the caller can
    /// check the documented fallback.
    pub(crate) fn violation<R>(expected: &str, f: impl FnOnce() -> R) -> Option<R> {
        let outcome = catch_unwind(AssertUnwindSafe(f));
        if gpu_sim::invariant::enabled() {
            let Err(payload) = outcome else {
                panic!("strict build: expected a panic containing {expected:?}");
            };
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(expected), "panic {msg:?} lacks {expected:?}");
            None
        } else {
            match outcome {
                Ok(r) => Some(r),
                Err(_) => panic!("release build: {expected:?} must fall back, not panic"),
            }
        }
    }
}
