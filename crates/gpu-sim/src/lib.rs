//! # gpu-sim
//!
//! A from-scratch, cycle-level GPU streaming-multiprocessor simulator — the
//! execution substrate for the Warped-Slicer (ISCA 2016) reproduction.
//!
//! The simulator models the Table I baseline of the paper: 16 SMs with dual
//! warp schedulers (greedy-then-oldest or round-robin), per-SM register
//! file / shared memory / thread / CTA-slot resources with *contiguous*
//! first-fit allocation (so fragmentation behaves as in Fig. 2), ALU/SFU/LSU
//! pipelines with realistic initiation intervals, a 16 KB 4-way L1 with 64
//! MSHRs per SM, a banked 128 KB-per-channel L2, and six GDDR5 channels with
//! FR-FCFS scheduling.
//!
//! Kernels are synthetic (see [`program`] and [`access`]): deterministic
//! instruction streams parameterized by functional-unit mix, register
//! dependence distance, and global-memory access pattern. The `ws-workloads`
//! crate instantiates the paper's ten benchmarks on top of these primitives.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::{
//!     AccessPattern, Gpu, GpuConfig, KernelDesc, ProgramSpec, SchedulerKind,
//! };
//!
//! let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
//! let k = gpu.add_kernel(KernelDesc {
//!     name: "demo".into(),
//!     grid_ctas: 64,
//!     threads_per_cta: 128,
//!     regs_per_thread: 16,
//!     shmem_per_cta: 0,
//!     program: ProgramSpec::default().generate()?,
//!     iterations: 4,
//!     pattern: AccessPattern::Streaming { transactions: 1 },
//!     icache_miss_rate: 0.0,
//!     shmem_conflict_degree: 1,
//!     seed: 1,
//! });
//! // Launch as many CTAs as fit on SM 0, then simulate.
//! while gpu.try_launch(k, 0) {}
//! gpu.run(1000);
//! assert!(gpu.kernel_insts(k) > 0);
//! # Ok::<(), gpu_sim::ProgramSpecError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod access;
pub mod alloc;
pub mod cache;
pub mod config;
pub mod dram;
pub mod gpu;
pub mod invariant;
pub mod kernel;
pub mod mem;
pub mod mshr;
pub mod program;
pub mod rng;
pub mod scheduler;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod warp;

pub use access::{
    AccessPattern, AddressStream, LineAddr, CTA_REGION_LINES, MAX_DISJOINT_CTAS,
    SHARED_REGION_LINES,
};
pub use alloc::{CtaResources, LinearAllocator, PartitionWindow, Region, SmResources};
pub use cache::{ProbeResult, SetAssocCache};
pub use config::{DramTiming, GpuConfig, L1Config, L2Config, MemConfig, SmConfig};
pub use gpu::{fast_forward_default, parse_fast_forward, Gpu, KernelMeta, FAST_FORWARD_ENV};
pub use kernel::{KeptSignature, KernelDesc, KernelId};
pub use mem::{KernelMemStats, MemRequest, MemResponse, MemStats, MemSubsystem};
pub use program::{Inst, OpClass, Program, ProgramSpec, ProgramSpecError, Reg, NUM_VIRTUAL_REGS};
pub use rng::SimRng;
pub use scheduler::SchedulerKind;
pub use sm::{CtaCompletion, Sm};
pub use stats::{SmKernelStats, SmStats, StallBreakdown, StallReason};
pub use trace::{TraceEvent, TraceSink};
pub use verify::{occupancy_breakdown, KernelVerifyError, Occupancy, RawHistogram, ResourceKind};
pub use warp::{IssueClasses, Warp, WarpTable, PENDING_LOAD};
