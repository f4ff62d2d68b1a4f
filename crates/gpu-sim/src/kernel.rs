//! Kernel descriptors: everything the simulator needs to launch and execute
//! one grid.

use std::sync::OnceLock;

use crate::access::AccessPattern;
use crate::config::{GpuConfig, SmConfig};
use crate::program::Program;
use crate::verify::{occupancy_breakdown, KernelVerifyError};

/// Identifies one of the kernels co-resident in a simulation run.
///
/// Slots are assigned in launch order (the paper's "kernel 1", "kernel 2",
/// ...). A run hosts at most a handful of kernels so a small index suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub usize);

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Static description of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Human-readable name (benchmark abbreviation).
    pub name: String,
    /// Grid dimension: total CTAs in the kernel ("Griddim" in Table II).
    pub grid_ctas: u64,
    /// Threads per CTA ("Blkdim" in Table II).
    pub threads_per_cta: u32,
    /// Registers per thread. CTA register footprint is
    /// `threads_per_cta * regs_per_thread`.
    pub regs_per_thread: u32,
    /// Shared-memory bytes statically allocated per CTA.
    pub shmem_per_cta: u32,
    /// The synthetic loop body each warp executes.
    pub program: Program,
    /// Loop iterations each warp runs before retiring.
    pub iterations: u32,
    /// Global-memory access pattern.
    pub pattern: AccessPattern,
    /// Fraction of instruction fetches that miss the instruction cache
    /// (models large-body kernels such as DXT whose front end stalls).
    pub icache_miss_rate: f64,
    /// Shared-memory bank-conflict degree: the average serialization factor
    /// of a shared-memory access (1 = conflict-free, up to 32 = all lanes
    /// hit one bank). Multiplies LSU occupancy and access latency.
    pub shmem_conflict_degree: u32,
    /// Seed for the kernel's address streams.
    pub seed: u64,
}

impl KernelDesc {
    /// Warps per CTA (threads rounded up to warp granularity).
    #[must_use]
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(SmConfig::WARP_SIZE)
    }

    /// Register-file footprint of one CTA, in registers. Saturates at
    /// `u32::MAX` for absurd descriptors instead of wrapping (a wrapped
    /// footprint would make an infeasible kernel look feasible).
    #[must_use]
    pub fn regs_per_cta(&self) -> u32 {
        self.threads_per_cta.saturating_mul(self.regs_per_thread)
    }

    /// Dynamic warp instructions one warp executes before completing.
    #[must_use]
    pub fn insts_per_warp(&self) -> u64 {
        self.program.len() as u64 * u64::from(self.iterations)
    }

    /// Maximum CTAs of this kernel that fit on one SM with the full SM to
    /// itself, considering every resource limit (threads, registers, shared
    /// memory, CTA slots) — the "max allowed CTAs" of Fig. 3a.
    ///
    /// Total (documented saturation): a zero per-CTA demand on a resource
    /// means that resource never binds (its quotient saturates to the CTA
    /// slot limit rather than dividing by zero), and a kernel whose single
    /// CTA exceeds a capacity yields 0. Use [`Self::try_max_ctas_per_sm`]
    /// for a typed error naming the binding resource instead.
    #[must_use]
    pub fn max_ctas_per_sm(&self, sm: &SmConfig) -> u32 {
        self.try_max_ctas_per_sm(sm).unwrap_or_default()
    }

    /// Like [`Self::max_ctas_per_sm`], but distinguishes *why* a kernel
    /// achieves zero occupancy: returns the Eq. 1 resource dimension whose
    /// per-CTA demand already exceeds the SM's capacity (or
    /// [`KernelVerifyError::ZeroThreads`] for a threadless CTA, which no
    /// resource arithmetic can make meaningful).
    ///
    /// The check of [`crate::occupancy_breakdown`]'s one Eq. 1 evaluation,
    /// whose demand table is widened so pathological descriptors (e.g.
    /// `u32::MAX` threads x `u32::MAX` registers) report infeasibility
    /// instead of wrapping or panicking.
    pub fn try_max_ctas_per_sm(&self, sm: &SmConfig) -> Result<u32, KernelVerifyError> {
        if self.threads_per_cta == 0 {
            return Err(KernelVerifyError::ZeroThreads);
        }
        occupancy_breakdown(self, sm).check()
    }

    /// The curve-store signature kept with this descriptor's program, if it
    /// was kept for exactly this descriptor's signature inputs under exactly
    /// `cfg`; `None` for any other inputs.
    ///
    /// The program is the slot's owner, so its body is matched by
    /// construction. Every other field a signature reads (all but the name,
    /// the bank-conflict degree and the address seed) and every field of
    /// `cfg` is compared by value on every read, floats by their bits.
    #[must_use]
    pub fn kept_signature(&self, cfg: &GpuConfig) -> Option<KeptSignature> {
        let kept = self.program.signature_slot().get()?;
        (kept.inputs == SignatureInputs::of(self) && kept.cfg == *cfg).then_some(kept.signature)
    }

    /// Keeps `signature` as this descriptor's curve-store signature under
    /// `cfg`, unless the program already keeps one: the first writer wins,
    /// and a later read answers only for the first writer's inputs.
    pub fn keep_signature(&self, cfg: &GpuConfig, signature: KeptSignature) {
        // A full slot refuses the value. Of two threads keeping the first
        // time, each has derived its own inputs, so the loser's is simply
        // dropped.
        let _ = self.program.signature_slot().set(KeptFor {
            inputs: SignatureInputs::of(self),
            cfg: cfg.clone(),
            signature,
        });
    }
}

/// A curve-store signature of one kernel under one GPU configuration: the
/// store key's two hashes and the class/archetype tags that went into them.
/// The curve store derives it from static analysis; the simulator only
/// keeps it, with the program ([`KernelDesc::keep_signature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeptSignature {
    /// Hash over the kernel's static features.
    pub kernel_sig: u64,
    /// Hash over the GPU configuration.
    pub gpu_sig: u64,
    /// Derived workload class tag.
    pub class: &'static str,
    /// Derived scaling-archetype tag.
    pub archetype: &'static str,
}

/// The descriptor fields besides the program that a store signature reads:
/// the launch pre-flight's structural and Eq. 1 fields, the iteration
/// count, the access pattern's transactions per instruction (all of the
/// pattern the static features read) and the i-cache miss rate, by its
/// bits. The name, the bank-conflict degree and the address seed feed no
/// signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SignatureInputs {
    grid_ctas: u64,
    threads_per_cta: u32,
    regs_per_thread: u32,
    shmem_per_cta: u32,
    iterations: u32,
    transactions: u32,
    icache_miss_rate: u64,
}

impl SignatureInputs {
    /// Binds every field by name with no `..`, so a field added to
    /// [`KernelDesc`] fails to compile here until it is sorted into or out
    /// of the inputs.
    fn of(desc: &KernelDesc) -> Self {
        let KernelDesc {
            name: _,
            grid_ctas,
            threads_per_cta,
            regs_per_thread,
            shmem_per_cta,
            // The slot's owner: matched by construction.
            program: _,
            iterations,
            pattern,
            icache_miss_rate,
            shmem_conflict_degree: _,
            seed: _,
        } = desc;
        Self {
            grid_ctas: *grid_ctas,
            threads_per_cta: *threads_per_cta,
            regs_per_thread: *regs_per_thread,
            shmem_per_cta: *shmem_per_cta,
            iterations: *iterations,
            transactions: pattern.transactions(),
            icache_miss_rate: icache_miss_rate.to_bits(),
        }
    }
}

/// The first signature kept with a program and the inputs it was derived
/// from. The configuration is compared with its derived equality, which
/// covers every field, including any added later.
pub(crate) struct KeptFor {
    inputs: SignatureInputs,
    cfg: GpuConfig,
    signature: KeptSignature,
}

/// A program's first-writer signature slot; reads are one atomic load.
pub(crate) type SignatureSlot = OnceLock<KeptFor>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::program::ProgramSpec;

    fn desc(threads: u32, regs: u32, shmem: u32) -> KernelDesc {
        KernelDesc {
            name: "test".into(),
            grid_ctas: 100,
            threads_per_cta: threads,
            regs_per_thread: regs,
            shmem_per_cta: shmem,
            program: ProgramSpec::default().generate().expect("valid spec"),
            iterations: 10,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 0,
        }
    }

    #[test]
    fn warp_count_rounds_up() {
        assert_eq!(desc(128, 16, 0).warps_per_cta(), 4);
        assert_eq!(desc(169, 16, 0).warps_per_cta(), 6);
        assert_eq!(desc(1, 16, 0).warps_per_cta(), 1);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let sm = GpuConfig::isca_baseline().sm;
        // 512-thread CTAs: 1536/512 = 3 CTAs.
        assert_eq!(desc(512, 8, 0).max_ctas_per_sm(&sm), 3);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let sm = GpuConfig::isca_baseline().sm;
        // 128 threads x 40 regs = 5120 regs/CTA -> 32768/5120 = 6 CTAs.
        assert_eq!(desc(128, 40, 0).max_ctas_per_sm(&sm), 6);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let sm = GpuConfig::isca_baseline().sm;
        // 10 KB of shared memory per CTA -> 48K/10K = 4 CTAs.
        assert_eq!(desc(64, 8, 10 * 1024).max_ctas_per_sm(&sm), 4);
    }

    #[test]
    fn occupancy_limited_by_cta_slots() {
        let sm = GpuConfig::isca_baseline().sm;
        // Tiny CTAs: slot limit (8) binds.
        assert_eq!(desc(32, 1, 0).max_ctas_per_sm(&sm), 8);
    }

    #[test]
    fn instruction_budgets_multiply() {
        let d = desc(128, 16, 0);
        assert_eq!(d.insts_per_warp(), d.program.len() as u64 * 10);
    }

    #[test]
    fn kernel_id_displays_compactly() {
        assert_eq!(KernelId(2).to_string(), "K2");
    }

    #[test]
    fn zero_per_cta_resources_saturate_instead_of_panicking() {
        let sm = GpuConfig::isca_baseline().sm;
        // Zero registers / zero shared memory per CTA: those resources never
        // bind, the other limits still apply.
        assert_eq!(desc(192, 0, 0).max_ctas_per_sm(&sm), 8);
        assert_eq!(desc(192, 0, 0).try_max_ctas_per_sm(&sm), Ok(8));
        // Zero threads per CTA is a typed error, not a division or a bogus
        // full-occupancy answer.
        let d = desc(0, 16, 0);
        assert_eq!(
            d.try_max_ctas_per_sm(&sm),
            Err(crate::verify::KernelVerifyError::ZeroThreads)
        );
        assert_eq!(d.max_ctas_per_sm(&sm), 0);
    }

    #[test]
    fn oversized_footprints_report_the_binding_resource() {
        let sm = GpuConfig::isca_baseline().sm;
        let err = desc(2048, 1, 0).try_max_ctas_per_sm(&sm).unwrap_err();
        assert!(matches!(
            err,
            crate::verify::KernelVerifyError::Infeasible {
                resource: crate::verify::ResourceKind::Threads,
                ..
            }
        ));
        // u32::MAX threads x u32::MAX regs must not wrap into feasibility.
        let d = desc(u32::MAX, u32::MAX, 0);
        assert_eq!(d.regs_per_cta(), u32::MAX, "saturating, not wrapping");
        assert_eq!(d.max_ctas_per_sm(&sm), 0);
        assert!(d.try_max_ctas_per_sm(&sm).is_err());
    }
}
