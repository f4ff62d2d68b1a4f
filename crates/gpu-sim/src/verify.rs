//! Launch-time kernel verification: the typed pre-flight behind
//! [`crate::Gpu::try_add_kernel`].
//!
//! A malformed [`KernelDesc`] historically either panicked deep inside
//! `Sm::tick` (a load with no destination register trips `begin_load`) or
//! silently produced garbage occupancy curves (a CTA footprint violating the
//! Eq. 1 resource constraints never launches, so its "performance curve" is
//! all zeros). This module rejects such kernels *before* a single cycle is
//! simulated, with a structured [`KernelVerifyError`] naming the violated
//! rule.
//!
//! The checks here are the **hard** rules — conditions under which the
//! simulator cannot produce a meaningful result. The richer static analysis
//! (dataflow histograms, memory-footprint bounds, declared-vs-derived
//! workload consistency) lives in the `ws-analyze` crate, which builds on
//! this module and downgrades nothing: every error here is also an error
//! there.

use crate::config::SmConfig;
use crate::kernel::KernelDesc;
use crate::program::{OpClass, Program, Reg};

/// The SM resource dimension that makes a kernel infeasible (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Resident-thread capacity (`SmConfig::max_threads`).
    Threads,
    /// Register-file capacity (`SmConfig::max_registers`).
    Registers,
    /// Shared-memory capacity (`SmConfig::shared_mem_bytes`).
    SharedMem,
    /// CTA slots (`SmConfig::max_ctas`).
    CtaSlots,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Threads => write!(f, "threads"),
            Self::Registers => write!(f, "registers"),
            Self::SharedMem => write!(f, "shared memory"),
            Self::CtaSlots => write!(f, "CTA slots"),
        }
    }
}

/// A structured kernel-verification failure.
///
/// Each variant corresponds to one verifier rule; [`KernelVerifyError::rule`]
/// returns the stable rule identifier used by the `ws-analyze` diagnostics
/// and by `// analysis-waiver` allowlists.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelVerifyError {
    /// The grid has no CTAs: there is nothing to launch.
    ZeroGrid,
    /// `threads_per_cta` is zero: a CTA with no threads never retires and
    /// deadlocks barrier release.
    ZeroThreads,
    /// `iterations` is zero: every warp is born finished and the CTA's
    /// completion accounting never fires.
    ZeroIterations,
    /// One CTA of the kernel exceeds an SM resource outright, so the Eq. 1
    /// constraint `Σ_i R_{T_i} <= R_tot` cannot hold for any `T >= 1`
    /// (zero occupancy).
    Infeasible {
        /// The binding resource.
        resource: ResourceKind,
        /// The per-CTA demand on that resource.
        per_cta: u64,
        /// The SM's capacity on that resource.
        available: u64,
    },
    /// An instruction reads a virtual register that no instruction in the
    /// loop body ever defines, in any iteration: the read can never carry a
    /// RAW dependence and indicates a hand-built descriptor bug.
    NeverDefinedRead {
        /// Index of the reading instruction in the loop body.
        inst: usize,
        /// The register that is read but never written.
        reg: Reg,
    },
    /// A barrier instruction carries operands. Barriers synchronize, they do
    /// not compute; an operand-carrying barrier would create non-uniform
    /// scoreboard behaviour across the warps arriving at it.
    BarrierOperands {
        /// Index of the malformed barrier in the loop body.
        inst: usize,
    },
    /// A global load has no destination register; the LSU would panic when
    /// registering the in-flight load.
    LoadWithoutDest {
        /// Index of the malformed load in the loop body.
        inst: usize,
    },
    /// A rate-valued field is outside `[0, 1]`.
    RateOutOfRange {
        /// Name of the offending `KernelDesc` field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl KernelVerifyError {
    /// Stable rule identifier for this error, shared with the `ws-analyze`
    /// diagnostics and waiver allowlists.
    #[must_use]
    pub fn rule(&self) -> &'static str {
        match self {
            Self::ZeroGrid => "zero-grid",
            Self::ZeroThreads => "zero-threads",
            Self::ZeroIterations => "zero-iterations",
            Self::Infeasible { .. } => "eq1-infeasible",
            Self::NeverDefinedRead { .. } => "never-defined-read",
            Self::BarrierOperands { .. } => "barrier-operands",
            Self::LoadWithoutDest { .. } => "load-without-dest",
            Self::RateOutOfRange { .. } => "rate-out-of-range",
        }
    }

    /// Index into the loop body this error points at, when it concerns a
    /// specific instruction.
    #[must_use]
    pub fn span(&self) -> Option<usize> {
        match *self {
            Self::NeverDefinedRead { inst, .. }
            | Self::BarrierOperands { inst }
            | Self::LoadWithoutDest { inst } => Some(inst),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.rule())?;
        match self {
            Self::ZeroGrid => write!(f, "grid_ctas is 0: the kernel has nothing to launch"),
            Self::ZeroThreads => {
                write!(f, "threads_per_cta is 0: a threadless CTA never retires")
            }
            Self::ZeroIterations => {
                write!(f, "iterations is 0: every warp is born finished")
            }
            Self::Infeasible {
                resource,
                per_cta,
                available,
            } => write!(
                f,
                "one CTA needs {per_cta} {resource} but the SM only has {available}: \
                 zero occupancy under Eq. 1"
            ),
            Self::NeverDefinedRead { inst, reg } => write!(
                f,
                "inst {inst} reads virtual register r{reg}, which no instruction in the \
                 loop body ever defines"
            ),
            Self::BarrierOperands { inst } => write!(
                f,
                "inst {inst} is a barrier carrying operands; barriers synchronize and \
                 must be operand-free"
            ),
            Self::LoadWithoutDest { inst } => write!(
                f,
                "inst {inst} is a global load without a destination register"
            ),
            Self::RateOutOfRange { field, value } => {
                write!(f, "{field} is {value}, outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for KernelVerifyError {}

/// Per-resource CTA quota under Eq. 1 of the paper, with `u32::MAX` for a
/// resource the kernel does not demand (it never binds), in the order
/// threads / registers / shared memory / CTA slots, plus the binding
/// minimum.
///
/// This is the feasible-CTA-range computation shared by the launch
/// pre-flight, the `ws-analyze` occupancy diagnostics, and the static
/// performance predictor: all three must agree on the Fig. 3a "max allowed
/// CTAs" for a kernel.
#[must_use]
pub fn occupancy_breakdown(desc: &KernelDesc, sm: &SmConfig) -> ([u32; 4], u32) {
    let regs_per_cta = u64::from(desc.threads_per_cta) * u64::from(desc.regs_per_thread);
    let quota = |per_cta: u64, available: u64| -> u32 {
        match available.checked_div(per_cta) {
            None => u32::MAX,
            Some(q) => u32::try_from(q).unwrap_or(u32::MAX),
        }
    };
    let by = [
        quota(u64::from(desc.threads_per_cta), u64::from(sm.max_threads)),
        quota(regs_per_cta, u64::from(sm.max_registers)),
        quota(
            u64::from(desc.shmem_per_cta),
            u64::from(sm.shared_mem_bytes),
        ),
        sm.max_ctas,
    ];
    let max_ctas = by.iter().copied().min().unwrap_or(0);
    (by, max_ctas)
}

/// The set of virtual registers written anywhere in a loop body, as a
/// 32-bit mask (the IR names at most [`crate::program::NUM_VIRTUAL_REGS`]
/// registers).
#[must_use]
pub fn defined_regs(program: &Program) -> u32 {
    let mut mask = 0u32;
    for inst in program.iter() {
        if let Some(dst) = inst.dst {
            mask |= 1u32 << (u32::from(dst) % 32);
        }
    }
    mask
}

/// Scans the loop body for per-instruction hard errors: reads of
/// never-defined registers, operand-carrying barriers, destination-less
/// loads.
///
/// Reads of registers that *are* defined, only later in the body, are fine:
/// under the loop semantics the definition from the previous iteration
/// reaches them, and on the first iteration they model live-in values
/// (`ws-analyze` reports those separately as informational diagnostics).
pub fn check_program(program: &Program) -> Result<(), KernelVerifyError> {
    let defined = defined_regs(program);
    for (i, inst) in program.iter().enumerate() {
        if inst.op.is_barrier() {
            if inst.dst.is_some() || inst.srcs.iter().any(Option::is_some) {
                return Err(KernelVerifyError::BarrierOperands { inst: i });
            }
            continue;
        }
        if inst.op == OpClass::GlobalLoad && inst.dst.is_none() {
            return Err(KernelVerifyError::LoadWithoutDest { inst: i });
        }
        for src in inst.srcs.iter().flatten() {
            if defined & (1u32 << (u32::from(*src) % 32)) == 0 {
                return Err(KernelVerifyError::NeverDefinedRead { inst: i, reg: *src });
            }
        }
    }
    Ok(())
}

/// Verifies a kernel descriptor against the hard launch rules: structural
/// sanity, the Eq. 1 resource feasibility of a single CTA, and the
/// per-instruction program checks of [`check_program`].
///
/// This is the pre-flight run by [`crate::Gpu::try_add_kernel`]; `Ok(())`
/// means the simulator can execute the kernel without panicking on it and
/// that at least one CTA fits an idle SM.
pub fn preflight(desc: &KernelDesc, sm: &SmConfig) -> Result<(), KernelVerifyError> {
    if desc.grid_ctas == 0 {
        return Err(KernelVerifyError::ZeroGrid);
    }
    if desc.threads_per_cta == 0 {
        return Err(KernelVerifyError::ZeroThreads);
    }
    if desc.iterations == 0 {
        return Err(KernelVerifyError::ZeroIterations);
    }
    if !(0.0..=1.0).contains(&desc.icache_miss_rate) {
        return Err(KernelVerifyError::RateOutOfRange {
            field: "icache_miss_rate",
            value: desc.icache_miss_rate,
        });
    }
    desc.try_max_ctas_per_sm(sm)?;
    check_program(&desc.program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::config::GpuConfig;
    use crate::program::{Inst, ProgramSpec};

    fn desc() -> KernelDesc {
        KernelDesc {
            name: "v".into(),
            grid_ctas: 16,
            threads_per_cta: 128,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            program: ProgramSpec::default().generate().expect("valid spec"),
            iterations: 2,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 1,
        }
    }

    fn sm() -> SmConfig {
        GpuConfig::isca_baseline().sm
    }

    #[test]
    fn well_formed_kernel_passes() {
        assert_eq!(preflight(&desc(), &sm()), Ok(()));
    }

    #[test]
    fn structural_zeroes_are_rejected_with_named_rules() {
        let mut d = desc();
        d.grid_ctas = 0;
        assert_eq!(preflight(&d, &sm()).unwrap_err().rule(), "zero-grid");
        let mut d = desc();
        d.threads_per_cta = 0;
        assert_eq!(preflight(&d, &sm()).unwrap_err().rule(), "zero-threads");
        let mut d = desc();
        d.iterations = 0;
        assert_eq!(preflight(&d, &sm()).unwrap_err().rule(), "zero-iterations");
    }

    #[test]
    fn infeasible_footprint_names_the_binding_resource() {
        let mut d = desc();
        d.threads_per_cta = 2048; // > 1536
        match preflight(&d, &sm()).unwrap_err() {
            KernelVerifyError::Infeasible { resource, .. } => {
                assert_eq!(resource, ResourceKind::Threads);
            }
            other => panic!("wrong error: {other}"),
        }
        let mut d = desc();
        d.regs_per_thread = 300; // 128 * 300 = 38400 > 32768
        match preflight(&d, &sm()).unwrap_err() {
            KernelVerifyError::Infeasible { resource, .. } => {
                assert_eq!(resource, ResourceKind::Registers);
            }
            other => panic!("wrong error: {other}"),
        }
        let mut d = desc();
        d.shmem_per_cta = 49 * 1024;
        assert_eq!(preflight(&d, &sm()).unwrap_err().rule(), "eq1-infeasible");
    }

    #[test]
    fn never_defined_read_is_rejected_with_span() {
        let prog = Program::new(vec![
            Inst {
                op: OpClass::Alu,
                dst: Some(0),
                srcs: [Some(0), None],
            },
            Inst {
                op: OpClass::Alu,
                dst: Some(1),
                srcs: [Some(0), Some(7)], // r7 is never written
            },
        ]);
        let mut d = desc();
        d.program = prog;
        let err = preflight(&d, &sm()).unwrap_err();
        assert_eq!(err.rule(), "never-defined-read");
        assert_eq!(err.span(), Some(1));
    }

    #[test]
    fn forward_defined_read_is_accepted() {
        // r1 is read before its (only) definition: the previous iteration's
        // write reaches it, so this is well-formed.
        let prog = Program::new(vec![
            Inst {
                op: OpClass::Alu,
                dst: Some(0),
                srcs: [Some(1), None],
            },
            Inst {
                op: OpClass::Alu,
                dst: Some(1),
                srcs: [Some(0), None],
            },
        ]);
        let mut d = desc();
        d.program = prog;
        assert_eq!(preflight(&d, &sm()), Ok(()));
    }

    #[test]
    fn barrier_with_operands_is_rejected() {
        let prog = Program::new(vec![
            Inst {
                op: OpClass::Alu,
                dst: Some(0),
                srcs: [Some(0), None],
            },
            Inst {
                op: OpClass::Barrier,
                dst: None,
                srcs: [Some(0), None],
            },
        ]);
        let mut d = desc();
        d.program = prog;
        let err = preflight(&d, &sm()).unwrap_err();
        assert_eq!(err.rule(), "barrier-operands");
        assert_eq!(err.span(), Some(1));
    }

    #[test]
    fn load_without_destination_is_rejected() {
        let prog = Program::new(vec![Inst {
            op: OpClass::GlobalLoad,
            dst: None,
            srcs: [None, None],
        }]);
        let mut d = desc();
        d.program = prog;
        assert_eq!(
            preflight(&d, &sm()).unwrap_err().rule(),
            "load-without-dest"
        );
    }

    #[test]
    fn icache_rate_outside_unit_interval_is_rejected() {
        let mut d = desc();
        d.icache_miss_rate = 1.5;
        assert_eq!(
            preflight(&d, &sm()).unwrap_err().rule(),
            "rate-out-of-range"
        );
    }

    #[test]
    fn generated_programs_are_always_clean() {
        // Every ProgramSpec-generated body must pass the program checks,
        // including short bodies whose register window is narrowed.
        for (len, dep) in [(1, 1), (3, 7), (24, 4), (31, 31), (64, 2), (100, 8)] {
            let p = ProgramSpec {
                body_len: len,
                gload_frac: 0.2,
                gstore_frac: 0.1,
                barrier_frac: 0.05,
                dep_distance: dep,
                seed: len as u64,
                ..ProgramSpec::default()
            }
            .generate()
            .expect("valid spec");
            assert_eq!(check_program(&p), Ok(()), "body_len {len}");
        }
    }

    #[test]
    fn errors_render_their_rule_id() {
        let err = KernelVerifyError::ZeroGrid;
        assert!(err.to_string().contains("[zero-grid]"));
        let err = KernelVerifyError::Infeasible {
            resource: ResourceKind::SharedMem,
            per_cta: 50_000,
            available: 49_152,
        };
        assert!(err.to_string().contains("shared memory"));
    }
}
