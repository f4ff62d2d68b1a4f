//! Synthetic warp programs.
//!
//! Real GPGPU kernels are replaced by deterministic synthetic instruction
//! streams (see DESIGN.md, substitution table). A [`Program`] is a loop body
//! of [`Inst`]s; every warp executes the body for a configurable number of
//! iterations. The generator controls exactly the properties the paper's
//! conclusions depend on: the functional-unit mix, the register dependence
//! distance (which drives read-after-write stalls and compute saturation),
//! and the fraction of global-memory instructions (which drives the memory
//! system).

use std::sync::{Arc, OnceLock};

use crate::kernel::SignatureSlot;
use crate::rng::SimRng;
use crate::verify::ProgramFlow;

/// Virtual register index within a warp's synthetic register window.
pub type Reg = u8;

/// Number of virtual registers each synthetic warp program may name.
pub const NUM_VIRTUAL_REGS: usize = 32;

/// Functional-unit class of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer/FP32 arithmetic executed on the SP (ALU) pipeline.
    Alu,
    /// Transcendental executed on the special-function unit.
    Sfu,
    /// Global-memory load executed on the LSU; goes through L1/L2/DRAM.
    GlobalLoad,
    /// Global-memory store executed on the LSU; fire-and-forget traffic.
    GlobalStore,
    /// Shared-memory access executed on the LSU; never leaves the SM.
    SharedMem,
    /// CTA-wide barrier (`__syncthreads`): the warp blocks until every
    /// live warp of its CTA has issued the same barrier.
    Barrier,
}

impl OpClass {
    /// Whether the instruction is a CTA-wide barrier.
    #[must_use]
    pub fn is_barrier(self) -> bool {
        self == Self::Barrier
    }
}

/// One synthetic warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Functional-unit class.
    pub op: OpClass,
    /// Destination register, or `None` for stores.
    pub dst: Option<Reg>,
    /// Source registers read by the instruction.
    pub srcs: [Option<Reg>; 2],
}

/// A loop body executed repeatedly by every warp of a kernel.
///
/// The body is immutable once built, so its [`ProgramFlow`] — the one walk
/// the launch pre-flight, the analyzer, the predictor and the store key all
/// read — is a pure function of the value: [`Program::flow`] computes it on
/// first read and keeps it, together with a slot for the first curve-store
/// signature derived from it ([`crate::KernelDesc::kept_signature`]).
/// Equality and `Debug` see the body only, so a walked and an unwalked copy
/// compare equal and print the same.
#[derive(Clone)]
pub struct Program {
    insts: Vec<Inst>,
    /// What is kept of `insts`, computed on first read. Behind an [`Arc`]
    /// so a clone of a walked program shares it instead of walking again,
    /// and so the field adds 16 bytes, not a whole flow, to every `Program`
    /// the workload builders copy around.
    kept: OnceLock<Arc<Kept>>,
}

/// Everything a program keeps of its body: the walk, and the signature slot
/// that lives and dies with it.
struct Kept {
    flow: ProgramFlow,
    signature: SignatureSlot,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.insts == other.insts
    }
}

impl Eq for Program {}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("insts", &self.insts)
            .finish()
    }
}

impl Program {
    /// Builds a program from an explicit instruction list.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty: a warp must always have a next
    /// instruction to fetch.
    #[must_use]
    pub fn new(insts: Vec<Inst>) -> Self {
        assert!(!insts.is_empty(), "program body must not be empty");
        Self {
            insts,
            kept: OnceLock::new(),
        }
    }

    /// What is kept of the body, walked on the first call.
    fn kept(&self) -> &Kept {
        self.kept.get_or_init(|| {
            Arc::new(Kept {
                flow: crate::verify::walk(&self.insts),
                signature: SignatureSlot::default(),
            })
        })
    }

    /// The body's op mix, register dataflow and per-instruction hard
    /// errors, from one walk over it (see [`ProgramFlow`]). The walk runs on
    /// the first call; later calls, and clones made after it, read its
    /// result.
    #[must_use]
    pub fn flow(&self) -> &ProgramFlow {
        &self.kept().flow
    }

    /// The curve-store signature slot kept beside the walk: shared by the
    /// clones that share the walk, and dropped with the last of them.
    pub(crate) fn signature_slot(&self) -> &SignatureSlot {
        &self.kept().signature
    }

    /// The instruction at `pc` (wrapping semantics are the caller's
    /// responsibility; `pc` must be in range).
    #[must_use]
    pub fn inst(&self, pc: usize) -> Inst {
        self.insts[pc]
    }

    /// Body length in instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the body is empty. Always `false` by construction; provided
    /// for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the body.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// Fraction of the body belonging to `op`.
    #[must_use]
    pub fn fraction(&self, op: OpClass) -> f64 {
        let n = self.insts.iter().filter(|i| i.op == op).count();
        n as f64 / self.insts.len() as f64
    }
}

/// Parameters for deterministic random program generation.
///
/// The fractions need not sum to 1: the remainder becomes ALU work.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Loop-body length in instructions.
    pub body_len: usize,
    /// Fraction of SFU instructions.
    pub sfu_frac: f64,
    /// Fraction of global loads.
    pub gload_frac: f64,
    /// Fraction of global stores.
    pub gstore_frac: f64,
    /// Fraction of shared-memory accesses.
    pub shmem_frac: f64,
    /// Fraction of CTA-wide barriers (`__syncthreads`); tiled kernels
    /// synchronize between tile loads and tile use.
    pub barrier_frac: f64,
    /// Register dependence distance: instruction `i` reads the destination
    /// of instruction `i - dep_distance`. Small values serialize the warp
    /// (compute-saturating behaviour); large values expose ILP.
    pub dep_distance: usize,
    /// RNG seed so identical specs generate identical programs.
    pub seed: u64,
}

impl Default for ProgramSpec {
    fn default() -> Self {
        Self {
            body_len: 64,
            sfu_frac: 0.0,
            gload_frac: 0.1,
            gstore_frac: 0.0,
            shmem_frac: 0.0,
            barrier_frac: 0.0,
            dep_distance: 4,
            seed: 0,
        }
    }
}

/// Why a [`ProgramSpec`] describes no program.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpecError {
    /// `body_len` is zero: a loop body needs at least one instruction.
    EmptyBody,
    /// An instruction-class fraction is negative (or NaN), or the fractions
    /// sum to more than 1.
    BadFractions {
        /// The sum of the five class fractions.
        sum: f64,
    },
}

impl std::fmt::Display for ProgramSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyBody => write!(f, "body_len is 0: a loop body needs an instruction"),
            Self::BadFractions { sum } => write!(
                f,
                "instruction-class fractions must be non-negative and sum to <= 1 \
                 (they sum to {sum})"
            ),
        }
    }
}

impl std::error::Error for ProgramSpecError {}

impl ProgramSpec {
    /// Generates the program described by this spec.
    ///
    /// Instruction classes are laid out by deterministic stochastic
    /// interleaving so that memory operations are spread through the body
    /// (matching how compiled kernels interleave loads with arithmetic)
    /// while the exact mix converges to the requested fractions.
    ///
    /// # Errors
    ///
    /// [`ProgramSpecError::EmptyBody`] if `body_len` is zero, and
    /// [`ProgramSpecError::BadFractions`] if a fraction is negative or the
    /// fractions sum to more than 1.
    pub fn generate(&self) -> Result<Program, ProgramSpecError> {
        if self.body_len == 0 {
            return Err(ProgramSpecError::EmptyBody);
        }
        let fracs = [
            self.sfu_frac,
            self.gload_frac,
            self.gstore_frac,
            self.shmem_frac,
            self.barrier_frac,
        ];
        let sum: f64 = fracs.iter().sum();
        if !(fracs.iter().all(|&f| f >= 0.0) && sum <= 1.0 + 1e-9) {
            return Err(ProgramSpecError::BadFractions { sum });
        }

        let mut rng = SimRng::seed_from_u64(self.seed);
        let n = self.body_len;
        // Exact per-class counts (largest-remainder rounding keeps the mix
        // faithful even for short bodies).
        let counts = [
            (OpClass::Sfu, self.sfu_frac),
            (OpClass::GlobalLoad, self.gload_frac),
            (OpClass::GlobalStore, self.gstore_frac),
            (OpClass::SharedMem, self.shmem_frac),
            (OpClass::Barrier, self.barrier_frac),
        ];
        let mut ops: Vec<OpClass> = Vec::with_capacity(n);
        for (op, frac) in counts {
            let k = (frac * n as f64).round() as usize;
            ops.extend(std::iter::repeat_n(op, k.min(n - ops.len())));
        }
        while ops.len() < n {
            ops.push(OpClass::Alu);
        }
        // Deterministic shuffle spreads classes through the body.
        rng.shuffle(&mut ops);

        // The register window never exceeds the body length: a body of `n`
        // instructions writes at most `n` distinct registers, and naming
        // more would generate reads of never-defined registers that the
        // verifier (`gpu_sim::verify`) rightly rejects.
        let window = NUM_VIRTUAL_REGS.min(n);
        let dep = self.dep_distance.max(1);
        let insts = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| {
                let dst_reg = (i % window) as Reg;
                // Primary source: the destination written `dep` instructions
                // earlier, creating the requested dependence chain.
                let src0 = (i + window - (dep % window)) % window;
                // Secondary source: a uniformly random earlier register,
                // mimicking the irregular second operands of real code.
                let src1 = rng.range_usize(window);
                if op == OpClass::Barrier {
                    // Barriers carry no operands: they synchronize, not
                    // compute.
                    Inst {
                        op,
                        dst: None,
                        srcs: [None, None],
                    }
                } else {
                    Inst {
                        op,
                        dst: if op == OpClass::GlobalStore {
                            None
                        } else {
                            Some(dst_reg)
                        },
                        srcs: [Some(src0 as Reg), Some(src1 as Reg)],
                    }
                }
            })
            .collect();
        Ok(Program::new(repair_undefined_reads(insts)))
    }
}

/// Rewrites source operands that name a register no instruction defines.
///
/// Destination registers are assigned positionally, but stores and barriers
/// define nothing, so a register whose body slots all land on stores would
/// otherwise be read while never written — which the kernel verifier
/// (`gpu_sim::verify`) rejects as a hard error. Each such read is redirected
/// to the destination of the nearest preceding defining instruction
/// (wrapping around the loop body), which preserves the read's short-range
/// RAW character. If the body defines nothing at all (e.g. pure stores),
/// source operands are dropped entirely.
fn repair_undefined_reads(mut insts: Vec<Inst>) -> Vec<Inst> {
    let mut defined = [false; NUM_VIRTUAL_REGS];
    for inst in &insts {
        if let Some(dst) = inst.dst {
            defined[dst as usize % NUM_VIRTUAL_REGS] = true;
        }
    }
    // Last register defined at or before each position, wrapping: seed the
    // scan with the last definition in the body.
    let mut last_def: Option<Reg> = insts.iter().rev().find_map(|i| i.dst);
    for inst in &mut insts {
        for src in &mut inst.srcs {
            if let Some(reg) = *src {
                if !defined[reg as usize % NUM_VIRTUAL_REGS] {
                    *src = last_def;
                }
            }
        }
        if let Some(dst) = inst.dst {
            last_def = Some(dst);
        }
    }
    insts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProgramSpec {
        ProgramSpec {
            body_len: 200,
            sfu_frac: 0.1,
            gload_frac: 0.2,
            gstore_frac: 0.05,
            shmem_frac: 0.15,
            barrier_frac: 0.0,
            dep_distance: 3,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            spec().generate().expect("valid spec"),
            spec().generate().expect("valid spec")
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut other = spec();
        other.seed = 43;
        assert_ne!(
            spec().generate().expect("valid spec"),
            other.generate().expect("valid spec")
        );
    }

    #[test]
    fn fractions_match_request() {
        let p = spec().generate().expect("valid spec");
        assert!((p.fraction(OpClass::Sfu) - 0.1).abs() < 0.01);
        assert!((p.fraction(OpClass::GlobalLoad) - 0.2).abs() < 0.01);
        assert!((p.fraction(OpClass::GlobalStore) - 0.05).abs() < 0.01);
        assert!((p.fraction(OpClass::SharedMem) - 0.15).abs() < 0.01);
        assert!((p.fraction(OpClass::Alu) - 0.5).abs() < 0.01);
    }

    #[test]
    fn stores_and_barriers_have_no_destination() {
        let mut sp = spec();
        sp.barrier_frac = 0.05;
        let p = sp.generate().expect("valid spec");
        for inst in p.iter() {
            match inst.op {
                OpClass::GlobalStore => assert_eq!(inst.dst, None),
                OpClass::Barrier => {
                    assert_eq!(inst.dst, None);
                    assert_eq!(inst.srcs, [None, None]);
                }
                _ => assert!(inst.dst.is_some()),
            }
        }
        assert!((p.fraction(OpClass::Barrier) - 0.05).abs() < 0.01);
    }

    #[test]
    fn dependence_distance_is_honored() {
        let p = ProgramSpec {
            dep_distance: 1,
            ..spec()
        }
        .generate()
        .expect("valid spec");
        // With distance 1 every instruction's first source is the previous
        // instruction's destination register index.
        for i in 1..p.len() {
            let src = p.inst(i).srcs[0].unwrap() as usize;
            assert_eq!(src, (i - 1) % NUM_VIRTUAL_REGS);
        }
    }

    #[test]
    fn zero_length_body_rejected() {
        let err = ProgramSpec {
            body_len: 0,
            ..ProgramSpec::default()
        }
        .generate()
        .unwrap_err();
        assert_eq!(err, ProgramSpecError::EmptyBody);
        assert!(err.to_string().contains("body_len is 0"), "{err}");
    }

    #[test]
    fn overfull_fractions_rejected() {
        let err = ProgramSpec {
            gload_frac: 0.9,
            sfu_frac: 0.9,
            ..ProgramSpec::default()
        }
        .generate()
        .unwrap_err();
        assert!(
            matches!(err, ProgramSpecError::BadFractions { sum } if (sum - 1.8).abs() < 1e-12),
            "{err:?}"
        );
        assert!(err.to_string().contains("fractions"), "{err}");
    }

    #[test]
    fn negative_or_nan_fractions_rejected() {
        for bad in [-0.1, f64::NAN] {
            let spec = ProgramSpec {
                shmem_frac: bad,
                ..ProgramSpec::default()
            };
            assert!(
                matches!(spec.generate(), Err(ProgramSpecError::BadFractions { .. })),
                "shmem_frac {bad}"
            );
        }
        // Fractions summing to exactly 1 leave no ALU work but are valid.
        let full = ProgramSpec {
            gload_frac: 0.5,
            sfu_frac: 0.5,
            ..ProgramSpec::default()
        };
        assert!(full.generate().is_ok());
    }

    #[test]
    fn op_class_predicates() {
        assert!(OpClass::Barrier.is_barrier());
        assert!(!OpClass::Alu.is_barrier());
    }
}
