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
//! simulator cannot produce a meaningful result. The per-instruction rules
//! come from one walk over the loop body, [`Program::flow`], which also
//! yields the op-class mix and the RAW dependence-distance histogram: the
//! `ws-analyze` crate takes its dataflow and its hard diagnostics from that
//! same walk. The program keeps the walk, so a body is walked once per
//! program value however often it is launched, analyzed or keyed for the
//! curve store. The richer static analysis
//! (memory-footprint bounds, declared-vs-derived workload consistency)
//! lives in `ws-analyze`, which downgrades nothing: every error here is
//! also an error there.

use crate::config::SmConfig;
use crate::kernel::KernelDesc;
use crate::program::{Inst, OpClass, Program, Reg, NUM_VIRTUAL_REGS};
use std::sync::Arc;

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

/// Eq. 1 of the paper evaluated for one kernel on one SM: the per-resource
/// CTA quotas, their binding minimum, and the first resource one CTA
/// exceeds outright.
///
/// One value serves every occupancy reader: the launch pre-flight's
/// feasibility check ([`Occupancy::check`], which
/// [`KernelDesc::try_max_ctas_per_sm`] and [`preflight`] return through),
/// the `ws-analyze` occupancy diagnostics and the static performance
/// predictor's feasible CTA range. [`preflight`] hands back the value it
/// checked, so a kernel that is checked and then analyzed evaluates Eq. 1
/// once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Per-resource CTA quota, in the order threads / registers / shared
    /// memory / CTA slots, with `u32::MAX` for a resource the kernel does
    /// not demand (it never binds).
    pub by: [u32; 4],
    /// The binding minimum over [`Self::by`]: the Fig. 3a "max allowed
    /// CTAs". Zero exactly when [`Self::check`] fails.
    pub max_ctas: u32,
    /// The first demanded resource whose quota is zero, with its per-CTA
    /// demand and the SM's capacity.
    infeasible: Option<(ResourceKind, u64, u64)>,
}

impl Occupancy {
    /// The feasible maximum of resident CTAs.
    ///
    /// # Errors
    ///
    /// [`KernelVerifyError::Infeasible`] naming the first resource (in
    /// table order) one CTA exceeds outright.
    pub fn check(&self) -> Result<u32, KernelVerifyError> {
        match self.infeasible {
            Some((resource, per_cta, available)) => Err(KernelVerifyError::Infeasible {
                resource,
                per_cta,
                available,
            }),
            None => Ok(self.max_ctas),
        }
    }
}

/// Evaluates Eq. 1 for `desc` on `sm` (see [`Occupancy`]).
#[must_use]
pub fn occupancy_breakdown(desc: &KernelDesc, sm: &SmConfig) -> Occupancy {
    // The demand table: per resource, the per-CTA demand and the SM's
    // capacity, widened to `u64` so pathological descriptors (e.g.
    // `u32::MAX` threads x `u32::MAX` registers) cannot wrap. A zero
    // demand never binds.
    let table = [
        (
            ResourceKind::Threads,
            u64::from(desc.threads_per_cta),
            u64::from(sm.max_threads),
        ),
        (
            ResourceKind::Registers,
            u64::from(desc.threads_per_cta) * u64::from(desc.regs_per_thread),
            u64::from(sm.max_registers),
        ),
        (
            ResourceKind::SharedMem,
            u64::from(desc.shmem_per_cta),
            u64::from(sm.shared_mem_bytes),
        ),
        (ResourceKind::CtaSlots, 1, u64::from(sm.max_ctas)),
    ];
    let by = table.map(|(_, per_cta, available)| {
        available
            .checked_div(per_cta)
            .map_or(u32::MAX, |q| u32::try_from(q).unwrap_or(u32::MAX))
    });
    let infeasible = table
        .into_iter()
        .zip(by)
        .find_map(|(demand, quota)| (quota == 0).then_some(demand));
    Occupancy {
        by,
        max_ctas: by.iter().copied().min().unwrap_or(0),
        infeasible,
    }
}

/// Everything one walk over a loop body yields: the op-class mix, the
/// register dataflow, and every per-instruction hard error.
///
/// Every warp executes the body repeatedly, so definitions flow across the
/// iteration boundary: a read at instruction `i` of a register whose only
/// definition sits at `j > i` is reached by the *previous iteration's*
/// write. The reaching-definition state entering the body is the fixpoint
/// over the loop back-edge; the body is straight-line code, so the state
/// leaving it after one symbolic pass (the last definition of each
/// register) *is* that fixpoint. Every register read is then one of:
///
/// * a **same-iteration read** — a definition precedes it in the body; its
///   RAW distance is the instruction-slot gap to the nearest one;
/// * a **loop-carried read** — only a later definition exists, so the
///   value crosses the back-edge; its RAW distance wraps
///   (`i + body_len - j`) and on the very first iteration the read sees a
///   live-in value, which the simulator models as ready-at-launch
///   (counted in [`ProgramFlow::first_iter_uninit_reads`]);
/// * a **never-defined read** — no instruction in the body writes the
///   register in any iteration: a [`KernelVerifyError::NeverDefinedRead`],
///   left out of the histogram.
///
/// Register names map onto the [`NUM_VIRTUAL_REGS`]-slot window modulo its
/// size, as the simulator's scoreboard does.
///
/// [`Program::flow`] computes and keeps it; nothing else walks a body.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramFlow {
    /// Instructions per op class, in [`OpClass`] declaration order: ALU,
    /// SFU, global load, global store, shared memory, barrier.
    pub op_counts: [usize; 6],
    /// The RAW dependence-distance histogram and its summaries (see
    /// [`RawHistogram`]). Shared, so the static metrics built from a flow
    /// hold it without copying it.
    pub raw_histogram: RawHistogram,
    /// Loop-carried reads: on iteration 1 these consume a live-in value
    /// rather than a value computed by the body.
    pub first_iter_uninit_reads: usize,
    /// Every per-instruction hard error, in body order; within one
    /// instruction an operand-carrying barrier or a destination-less load
    /// comes before its never-defined reads, in operand order.
    pub violations: Vec<KernelVerifyError>,
}

impl ProgramFlow {
    /// The first violation, the one the launch pre-flight reports.
    ///
    /// # Errors
    ///
    /// Returns the earliest per-instruction hard error of the body.
    pub fn check(&self) -> Result<(), KernelVerifyError> {
        self.violations
            .first()
            .map_or(Ok(()), |err| Err(err.clone()))
    }

    /// Total register reads that carry a RAW dependence.
    #[must_use]
    pub fn total_reads(&self) -> usize {
        self.raw_histogram.total_reads()
    }

    /// Median RAW distance over all reads, or `None` if the body reads no
    /// defined register.
    #[must_use]
    pub fn median_raw_distance(&self) -> Option<usize> {
        self.raw_histogram.median_distance()
    }

    /// The most common RAW distance (ties break toward the shorter
    /// distance), or `None` if the body reads no defined register. More
    /// robust than the median for archetype classification: the generator's
    /// primary dependence chain concentrates mass at exactly the configured
    /// `dep_distance`, while the random second operands spread thinly.
    #[must_use]
    pub fn dominant_raw_distance(&self) -> Option<usize> {
        self.raw_histogram.dominant_distance()
    }
}

/// A body's RAW dependence-distance histogram: `hist[d - 1]` counts the
/// register reads whose nearest reaching definition is `d` instruction
/// slots away (wrapping across the loop back-edge), for `d` in
/// `1..=body_len`. It reads as a `[usize]` slice.
///
/// The value is immutable and cheap to clone (one reference count), and it
/// is built once per program, by the kept walk. So its summaries — the read
/// total, the median and dominant distances — are computed once, with the
/// buckets, and kept. Equality and `Debug` see the buckets only.
#[derive(Clone)]
pub struct RawHistogram(Arc<Buckets>);

/// The shared body of a [`RawHistogram`].
struct Buckets {
    counts: Box<[usize]>,
    total_reads: usize,
    median: Option<usize>,
    dominant: Option<usize>,
}

impl RawHistogram {
    /// Total register reads that carry a RAW dependence.
    #[must_use]
    pub fn total_reads(&self) -> usize {
        self.0.total_reads
    }

    /// Median RAW distance over all reads, or `None` if no read carries a
    /// dependence.
    #[must_use]
    pub fn median_distance(&self) -> Option<usize> {
        self.0.median
    }

    /// The most common RAW distance, ties broken toward the shorter one, or
    /// `None` if no read carries a dependence.
    #[must_use]
    pub fn dominant_distance(&self) -> Option<usize> {
        self.0.dominant
    }
}

impl From<Vec<usize>> for RawHistogram {
    /// Takes the buckets and computes their summaries: one pass for the
    /// total and the dominant distance, one for the median.
    fn from(counts: Vec<usize>) -> Self {
        let (mut total_reads, mut best, mut best_count) = (0usize, 0usize, 0usize);
        for (idx, &count) in counts.iter().enumerate() {
            total_reads += count;
            // Strictly greater: on a tie the earlier, shorter distance
            // stays.
            if count > best_count {
                (best, best_count) = (idx, count);
            }
        }
        let median = if total_reads == 0 {
            None
        } else {
            let midpoint = total_reads.div_ceil(2);
            let mut seen = 0usize;
            counts
                .iter()
                .position(|&count| {
                    seen += count;
                    seen >= midpoint
                })
                .map(|idx| idx + 1)
        };
        Self(Arc::new(Buckets {
            counts: counts.into_boxed_slice(),
            total_reads,
            median,
            dominant: (best_count > 0).then_some(best + 1),
        }))
    }
}

impl std::ops::Deref for RawHistogram {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.0.counts
    }
}

impl PartialEq for RawHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.0.counts == other.0.counts
    }
}

impl Eq for RawHistogram {}

impl std::fmt::Debug for RawHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.0.counts.iter()).finish()
    }
}

/// Walks a loop body once, after a last-definition pre-pass, and returns
/// its [`ProgramFlow`]; [`Program::flow`] is the only caller.
///
/// Definition positions live on a timeline shifted one body length forward:
/// the previous iteration's definitions sit at `0..len` and this
/// iteration's at `len..2 * len`. A read at instruction `i` then has
/// distance `i + len - def` whichever iteration its definition comes from,
/// and it is loop-carried exactly when `def < len`.
pub(crate) fn walk(body: &[Inst]) -> ProgramFlow {
    /// Position of a register no instruction defines.
    const NEVER: usize = usize::MAX;
    let slot = |reg: Reg| usize::from(reg) % NUM_VIRTUAL_REGS;
    let len = body.len();
    // Fixpoint seed: the state entering the body equals the state leaving
    // it, i.e. each register's last definition, one body length back.
    let mut def = [NEVER; NUM_VIRTUAL_REGS];
    for (i, inst) in body.iter().enumerate() {
        if let Some(d) = inst.dst.and_then(|dst| def.get_mut(slot(dst))) {
            *d = i;
        }
    }

    let mut op_counts = [0; 6];
    let mut buckets = vec![0; len];
    let mut first_iter_uninit_reads = 0;
    let mut violations = Vec::new();
    for (i, inst) in body.iter().enumerate() {
        // A table index rather than a branch per class: a generated body's
        // classes are random, so such a branch mispredicts on most
        // instructions.
        let class = match inst.op {
            OpClass::Alu => 0,
            OpClass::Sfu => 1,
            OpClass::GlobalLoad => 2,
            OpClass::GlobalStore => 3,
            OpClass::SharedMem => 4,
            OpClass::Barrier => 5,
        };
        if let Some(n) = op_counts.get_mut(class) {
            *n += 1;
        }
        if inst.op.is_barrier() && (inst.dst.is_some() || inst.srcs.iter().any(Option::is_some)) {
            violations.push(KernelVerifyError::BarrierOperands { inst: i });
        }
        if inst.op == OpClass::GlobalLoad && inst.dst.is_none() {
            violations.push(KernelVerifyError::LoadWithoutDest { inst: i });
        }
        let now = i + len;
        for &src in inst.srcs.iter().flatten() {
            let d = def.get(slot(src)).copied().unwrap_or(NEVER);
            if d == NEVER {
                violations.push(KernelVerifyError::NeverDefinedRead { inst: i, reg: src });
                continue;
            }
            first_iter_uninit_reads += usize::from(d < len);
            // `d < now` by construction (a same-iteration definition
            // strictly precedes the read; a carried one is at most a full
            // body away), so distances are in 1..=len.
            if let Some(bucket) = buckets.get_mut(now - 1 - d) {
                *bucket += 1;
            }
        }
        if let Some(d) = inst.dst.and_then(|dst| def.get_mut(slot(dst))) {
            *d = now;
        }
    }
    ProgramFlow {
        op_counts,
        raw_histogram: buckets.into(),
        first_iter_uninit_reads,
        violations,
    }
}

/// Scans the loop body for per-instruction hard errors and returns the
/// first: a read of a never-defined register, an operand-carrying barrier,
/// or a destination-less load.
///
/// Reads of registers that *are* defined, only later in the body, are fine:
/// under the loop semantics the definition from the previous iteration
/// reaches them, and on the first iteration they model live-in values
/// (`ws-analyze` reports those separately as informational diagnostics).
///
/// # Errors
///
/// Returns the first entry of [`ProgramFlow::violations`].
pub fn check_program(program: &Program) -> Result<(), KernelVerifyError> {
    program.flow().check()
}

/// Verifies a kernel descriptor against the hard launch rules: structural
/// sanity, the Eq. 1 resource feasibility of a single CTA, and the
/// per-instruction program checks of [`check_program`].
///
/// This is the pre-flight run by [`crate::Gpu::try_add_kernel`]; `Ok`
/// means the simulator can execute the kernel without panicking on it and
/// that at least one CTA fits an idle SM. It carries the Eq. 1 evaluation
/// the feasibility check read, so a caller that also needs the quotas (the
/// static predictor) does not evaluate Eq. 1 again.
///
/// # Errors
///
/// Returns the first violated rule, structural checks first.
pub fn preflight(desc: &KernelDesc, sm: &SmConfig) -> Result<Occupancy, KernelVerifyError> {
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
    let occupancy = occupancy_breakdown(desc, sm);
    occupancy.check()?;
    check_program(&desc.program)?;
    Ok(occupancy)
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
        assert_eq!(preflight(&desc(), &sm()).map(|o| o.max_ctas), Ok(8));
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
        assert!(preflight(&d, &sm()).is_ok());
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
    fn preflight_hands_back_the_occupancy_it_checked() {
        let d = desc();
        assert_eq!(preflight(&d, &sm()), Ok(occupancy_breakdown(&d, &sm())));
        let mut bad = desc();
        bad.iterations = 0;
        bad.program = Program::new(vec![Inst {
            op: OpClass::GlobalLoad,
            dst: None,
            srcs: [Some(3), None],
        }]);
        assert_eq!(
            preflight(&bad, &sm()).unwrap_err().rule(),
            "zero-iterations",
            "structural checks come first"
        );
        bad.iterations = 1;
        let flow = bad.program.flow();
        assert_eq!(
            flow.violations,
            vec![
                KernelVerifyError::LoadWithoutDest { inst: 0 },
                KernelVerifyError::NeverDefinedRead { inst: 0, reg: 3 },
            ]
        );
        assert_eq!(preflight(&bad, &sm()), Err(flow.violations[0].clone()));
        assert_eq!(
            preflight(&bad, &sm()).map(drop),
            check_program(&bad.program)
        );
        bad.regs_per_thread = 300;
        assert_eq!(
            preflight(&bad, &sm()).unwrap_err().rule(),
            "eq1-infeasible",
            "Eq. 1 comes before the program checks"
        );
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

    #[test]
    fn raw_histogram_reads_as_its_buckets() {
        let hist = RawHistogram::from(vec![0, 2, 2, 1]);
        assert_eq!(*hist, [0, 2, 2, 1]);
        assert_eq!(
            (
                hist.total_reads(),
                hist.median_distance(),
                hist.dominant_distance()
            ),
            (5, Some(3), Some(2)),
            "ties break toward the shorter distance"
        );
        assert_eq!(format!("{hist:?}"), "[0, 2, 2, 1]");
        // A clone shares the buckets; an equal histogram built apart
        // compares equal.
        assert_eq!(hist.clone(), hist);
        assert_eq!(RawHistogram::from(vec![0, 2, 2, 1]), hist);
    }

    /// The two Eq. 1 bodies as they stood before they shared one demand
    /// table: the reference the one evaluation must reproduce.
    mod reference {
        use super::*;

        pub fn try_max_ctas_per_sm(
            desc: &KernelDesc,
            sm: &SmConfig,
        ) -> Result<u32, KernelVerifyError> {
            if desc.threads_per_cta == 0 {
                return Err(KernelVerifyError::ZeroThreads);
            }
            let wide_regs = u64::from(desc.threads_per_cta) * u64::from(desc.regs_per_thread);
            let demands = [
                (
                    ResourceKind::Threads,
                    u64::from(desc.threads_per_cta),
                    u64::from(sm.max_threads),
                ),
                (
                    ResourceKind::Registers,
                    wide_regs,
                    u64::from(sm.max_registers),
                ),
                (
                    ResourceKind::SharedMem,
                    u64::from(desc.shmem_per_cta),
                    u64::from(sm.shared_mem_bytes),
                ),
                (ResourceKind::CtaSlots, 1, u64::from(sm.max_ctas)),
            ];
            let mut limit = u64::from(sm.max_ctas);
            for (resource, per_cta, available) in demands {
                let Some(quota) = available.checked_div(per_cta) else {
                    continue;
                };
                if quota == 0 {
                    return Err(KernelVerifyError::Infeasible {
                        resource,
                        per_cta,
                        available,
                    });
                }
                limit = limit.min(quota);
            }
            Ok(u32::try_from(limit).unwrap_or(u32::MAX))
        }

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
    }

    #[test]
    fn eq1_demand_table_matches_the_reference_quotas() {
        // Random descriptors and SM configs where every Eq. 1 field is 0,
        // u32::MAX or a typical value (max_ctas = 0 included): both views
        // must return exactly what their pre-table bodies returned,
        // errors and binding resource included.
        let mut rng = crate::SimRng::seed_from_u64(0xE01);
        let mut pick = |typical: u64| -> u32 {
            match rng.range_u64(4) {
                0 => 0,
                1 => u32::MAX,
                _ => u32::try_from(rng.range_u64(typical)).unwrap_or(u32::MAX),
            }
        };
        for _ in 0..20_000 {
            let mut d = desc();
            d.threads_per_cta = pick(2_048);
            d.regs_per_thread = pick(300);
            d.shmem_per_cta = pick(64 * 1024);
            let sm = SmConfig {
                max_threads: pick(4_096),
                max_registers: pick(1 << 17),
                shared_mem_bytes: pick(1 << 17),
                max_ctas: pick(32),
                ..sm()
            };
            assert_eq!(
                d.try_max_ctas_per_sm(&sm),
                reference::try_max_ctas_per_sm(&d, &sm),
                "{d:?} on {sm:?}"
            );
            let occupancy = occupancy_breakdown(&d, &sm);
            assert_eq!(
                (occupancy.by, occupancy.max_ctas),
                reference::occupancy_breakdown(&d, &sm),
                "{d:?} on {sm:?}"
            );
        }
    }
}
