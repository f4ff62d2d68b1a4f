//! Register-dataflow analysis of synthetic loop bodies.
//!
//! The analysis is the launch pre-flight's own walk,
//! [`gpu_sim::verify::program_flow`]: one last-definition pre-pass and one
//! pass over the body yield the op-class mix, the RAW dependence-distance
//! histogram across the loop back-edge, the live-in read count, and every
//! per-instruction hard error. The analyzer, the predictor and the store
//! key all read that one [`ProgramFlow`], so no second implementation of
//! the reaching-definition fixpoint exists (see [`ProgramFlow`] for how
//! each read is classified).
//!
//! The RAW dependence-distance histogram drives the scaling-archetype
//! consistency rules: a dominant distance of 1 serializes the warp (the
//! compute-non-saturating shape of Fig. 3a of the paper), while larger
//! distances expose instruction-level parallelism and saturate early.

pub use gpu_sim::verify::{program_flow, ProgramFlow};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpu_sim::{
        GpuConfig, Inst, KernelVerifyError, OpClass, Program, ProgramSpec, Reg, SimRng,
        NUM_VIRTUAL_REGS,
    };

    /// The dataflow facts the separate analyzer pass used to return, kept
    /// as the shape the reference implementations below produce.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct RefDataflow {
        pub(crate) raw_histogram: Vec<usize>,
        pub(crate) never_defined: Vec<(usize, Reg)>,
        pub(crate) first_iter_uninit_reads: usize,
    }

    fn reg_slot(reg: Reg) -> usize {
        usize::from(reg) % NUM_VIRTUAL_REGS
    }

    /// The analyzer's own reaching-definition pass before the walk moved
    /// into `gpu_sim::verify`, verbatim: a last-definition pre-pass, then
    /// one pass over a timeline shifted one body length forward.
    pub(crate) fn standalone_analyze(program: &Program) -> RefDataflow {
        const NEVER: usize = usize::MAX;
        let len = program.len();
        let mut def = [NEVER; NUM_VIRTUAL_REGS];
        for (i, inst) in program.iter().enumerate() {
            if let Some(slot) = inst.dst.and_then(|dst| def.get_mut(reg_slot(dst))) {
                *slot = i;
            }
        }

        let mut raw_histogram = vec![0usize; len];
        let mut never_defined = Vec::new();
        let mut first_iter_uninit_reads = 0usize;
        for (i, inst) in program.iter().enumerate() {
            let now = i + len;
            for src in inst.srcs.iter().flatten() {
                let d = def.get(reg_slot(*src)).copied().unwrap_or(NEVER);
                if d == NEVER {
                    never_defined.push((i, *src));
                    continue;
                }
                first_iter_uninit_reads += usize::from(d < len);
                if let Some(bucket) = raw_histogram.get_mut(now - 1 - d) {
                    *bucket += 1;
                }
            }
            if let Some(slot) = inst.dst.and_then(|dst| def.get_mut(reg_slot(dst))) {
                *slot = now;
            }
        }

        RefDataflow {
            raw_histogram,
            never_defined,
            first_iter_uninit_reads,
        }
    }

    /// The straightforward two-map formulation the single-map pass
    /// replaced, kept as an independent oracle: the loop-carried state and
    /// the current iteration's definitions in separate maps, with an
    /// explicit wrap for carried reads.
    fn reference_analyze(program: &Program) -> RefDataflow {
        let len = program.len();
        let mut live_in: Vec<Option<usize>> = vec![None; NUM_VIRTUAL_REGS];
        for (i, inst) in program.iter().enumerate() {
            if let Some(dst) = inst.dst {
                if let Some(slot) = live_in.get_mut(reg_slot(dst)) {
                    *slot = Some(i);
                }
            }
        }

        let mut current: Vec<Option<usize>> = vec![None; NUM_VIRTUAL_REGS];
        let mut raw_histogram = vec![0usize; len];
        let mut never_defined = Vec::new();
        let mut first_iter_uninit_reads = 0usize;
        for (i, inst) in program.iter().enumerate() {
            for src in inst.srcs.iter().flatten() {
                let slot = reg_slot(*src);
                let distance = match current.get(slot).copied().flatten() {
                    Some(def) => i - def,
                    None => match live_in.get(slot).copied().flatten() {
                        Some(def) => {
                            first_iter_uninit_reads += 1;
                            i + len - def
                        }
                        None => {
                            never_defined.push((i, *src));
                            continue;
                        }
                    },
                };
                if let Some(bucket) = raw_histogram.get_mut(distance.saturating_sub(1)) {
                    *bucket += 1;
                }
            }
            if let Some(dst) = inst.dst {
                if let Some(slot) = current.get_mut(reg_slot(dst)) {
                    *slot = Some(i);
                }
            }
        }

        RefDataflow {
            raw_histogram,
            never_defined,
            first_iter_uninit_reads,
        }
    }

    /// The launch pre-flight's program check before the one walk, verbatim:
    /// a defined-register mask, then a first-error scan.
    fn reference_check_program(program: &Program) -> Result<(), KernelVerifyError> {
        let mut defined = 0u32;
        for inst in program.iter() {
            if let Some(dst) = inst.dst {
                defined |= 1u32 << (u32::from(dst) % 32);
            }
        }
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

    /// Op-class counts by one filter pass per class, in the order of
    /// [`ProgramFlow::op_counts`].
    fn reference_op_counts(program: &Program) -> [usize; 6] {
        [
            OpClass::Alu,
            OpClass::Sfu,
            OpClass::GlobalLoad,
            OpClass::GlobalStore,
            OpClass::SharedMem,
            OpClass::Barrier,
        ]
        .map(|op| program.iter().filter(|i| i.op == op).count())
    }

    /// The whole [`ProgramFlow`] assembled from the references alone.
    fn reference_flow(program: &Program) -> ProgramFlow {
        let reference = reference_analyze(program);
        ProgramFlow {
            op_counts: reference_op_counts(program),
            raw_histogram: reference.raw_histogram,
            first_iter_uninit_reads: reference.first_iter_uninit_reads,
            violations: Vec::new(),
        }
    }

    /// A random loop body of 1..=64 instructions: any op class,
    /// destinations drawn from a few registers (some above the virtual
    /// window, so slots alias), and sources from a wider range. Half the
    /// bodies are malformed on purpose — barriers carrying operands, loads
    /// without a destination, reads no instruction defines — and the other
    /// half drop every operand that would make them so.
    pub(crate) fn random_program(rng: &mut SimRng) -> Program {
        const OPS: [OpClass; 6] = [
            OpClass::Alu,
            OpClass::Sfu,
            OpClass::GlobalLoad,
            OpClass::GlobalStore,
            OpClass::SharedMem,
            OpClass::Barrier,
        ];
        let malformed = rng.range_u64(2) == 0;
        let body_len = 1 + rng.range_usize(64);
        let defined = 1 + rng.range_u64(48);
        let reg = |rng: &mut SimRng, n: u64| Reg::try_from(rng.range_u64(n)).ok();
        let mut insts: Vec<Inst> = (0..body_len)
            .map(|_| {
                let op = OPS.get(rng.range_usize(OPS.len())).copied();
                let op = op.unwrap_or(OpClass::Alu);
                let bare = Inst {
                    op,
                    dst: None,
                    srcs: [None, None],
                };
                if op.is_barrier() && (!malformed || rng.range_u64(3) != 0) {
                    return bare;
                }
                let dst = if rng.range_u64(4) == 0 {
                    None
                } else {
                    reg(rng, defined)
                };
                let mut src = || {
                    if rng.range_u64(3) == 0 {
                        None
                    } else {
                        reg(rng, 64)
                    }
                };
                Inst {
                    op,
                    dst,
                    srcs: [src(), src()],
                }
            })
            .collect();
        if !malformed {
            let mut written = [false; NUM_VIRTUAL_REGS];
            for inst in &mut insts {
                if inst.op == OpClass::GlobalLoad && inst.dst.is_none() {
                    inst.dst = Some(0);
                }
                if let Some(w) = inst.dst.and_then(|dst| written.get_mut(reg_slot(dst))) {
                    *w = true;
                }
            }
            for inst in &mut insts {
                for src in &mut inst.srcs {
                    if src.is_some_and(|r| !written.get(reg_slot(r)).copied().unwrap_or(false)) {
                        *src = None;
                    }
                }
            }
        }
        Program::new(insts)
    }

    #[test]
    fn analyze_matches_the_reference_on_random_programs() {
        use KernelVerifyError as E;
        let mut rng = SimRng::seed_from_u64(0xdf10_0001);
        let (mut carried, mut clean) = (0usize, 0usize);
        let mut first_kinds = std::collections::BTreeSet::new();
        for case in 0..2_500 {
            let p = random_program(&mut rng);
            let flow = program_flow(&p);
            let standalone = standalone_analyze(&p);
            assert_eq!(standalone, reference_analyze(&p), "case {case}: {p:?}");
            assert_eq!(flow.raw_histogram, standalone.raw_histogram, "case {case}");
            assert_eq!(
                flow.first_iter_uninit_reads, standalone.first_iter_uninit_reads,
                "case {case}"
            );
            assert_eq!(flow.op_counts, reference_op_counts(&p), "case {case}");
            let never: Vec<(usize, Reg)> = flow
                .violations
                .iter()
                .filter_map(|e| match *e {
                    E::NeverDefinedRead { inst, reg } => Some((inst, reg)),
                    _ => None,
                })
                .collect();
            assert_eq!(never, standalone.never_defined, "case {case}");
            let malformed: Vec<&E> = flow
                .violations
                .iter()
                .filter(|e| !matches!(e, E::NeverDefinedRead { .. }))
                .collect();
            let expected: Vec<E> = p
                .iter()
                .enumerate()
                .filter_map(|(i, inst)| {
                    if inst.op.is_barrier()
                        && (inst.dst.is_some() || inst.srcs.iter().any(Option::is_some))
                    {
                        Some(E::BarrierOperands { inst: i })
                    } else if inst.op == OpClass::GlobalLoad && inst.dst.is_none() {
                        Some(E::LoadWithoutDest { inst: i })
                    } else {
                        None
                    }
                })
                .collect();
            assert_eq!(
                malformed,
                expected.iter().collect::<Vec<_>>(),
                "case {case}"
            );
            assert!(
                flow.violations
                    .windows(2)
                    .all(|w| w[0].span() <= w[1].span()),
                "case {case}: violations in body order"
            );
            let first = reference_check_program(&p);
            assert_eq!(flow.check(), first, "case {case}: {p:?}");
            assert_eq!(gpu_sim::verify::check_program(&p), first, "case {case}");
            carried += flow.first_iter_uninit_reads;
            clean += usize::from(first.is_ok());
            if let Err(err) = first {
                first_kinds.insert(err.rule());
            }
        }
        assert!(
            carried > 0 && clean > 0,
            "the cases cover carried reads and clean bodies"
        );
        assert_eq!(
            first_kinds.into_iter().collect::<Vec<_>>(),
            [
                "barrier-operands",
                "load-without-dest",
                "never-defined-read"
            ],
            "each violation kind comes first in some case"
        );
    }

    #[test]
    fn extracted_features_match_the_reference_analysis() {
        let cfg = GpuConfig::isca_baseline();
        for b in ws_workloads::extended_suite() {
            assert_eq!(reference_check_program(&b.desc.program), Ok(()));
            assert_eq!(
                crate::predict::extract_features(&b.desc, &cfg),
                Ok(crate::predict::features_from_flow(
                    &b.desc,
                    &cfg,
                    reference_flow(&b.desc.program)
                )),
                "{}",
                b.abbrev
            );
        }
    }

    fn alu(dst: Option<Reg>, srcs: [Option<Reg>; 2]) -> Inst {
        Inst {
            op: OpClass::Alu,
            dst,
            srcs,
        }
    }

    #[test]
    fn same_iteration_distance_is_the_gap() {
        // r0 <- ...; r1 <- r0: distance 1. r2 <- r0: distance 2.
        let p = Program::new(vec![
            alu(Some(0), [None, None]),
            alu(Some(1), [Some(0), None]),
            alu(Some(2), [Some(0), None]),
        ]);
        let flow = program_flow(&p);
        assert_eq!(flow.raw_histogram, vec![1, 1, 0]);
        assert_eq!(flow.first_iter_uninit_reads, 0);
        assert!(flow.violations.is_empty());
    }

    #[test]
    fn loop_carried_reads_wrap_and_count_as_live_in() {
        // inst 0 reads r1, defined only at inst 1: the previous iteration's
        // write reaches it at distance 0 + 2 - 1 = 1.
        let p = Program::new(vec![
            alu(Some(0), [Some(1), None]),
            alu(Some(1), [Some(0), None]),
        ]);
        let flow = program_flow(&p);
        assert_eq!(flow.raw_histogram, vec![2, 0]);
        assert_eq!(flow.first_iter_uninit_reads, 1);
    }

    #[test]
    fn self_recurrence_has_distance_body_len() {
        // A single instruction reading its own destination: the value
        // crosses the whole loop, distance = body length = 1.
        let p = Program::new(vec![alu(Some(3), [Some(3), None])]);
        let flow = program_flow(&p);
        assert_eq!(flow.raw_histogram, vec![1]);
        assert_eq!(flow.first_iter_uninit_reads, 1);
    }

    #[test]
    fn never_defined_reads_are_reported_not_counted() {
        let p = Program::new(vec![
            alu(Some(0), [Some(9), None]), // r9 never written
            alu(Some(1), [Some(0), None]),
        ]);
        let flow = program_flow(&p);
        assert_eq!(
            flow.violations,
            vec![KernelVerifyError::NeverDefinedRead { inst: 0, reg: 9 }]
        );
        assert_eq!(flow.total_reads(), 1);
    }

    #[test]
    fn median_and_dominant_summarize_the_histogram() {
        let flow = |raw_histogram: Vec<usize>| ProgramFlow {
            op_counts: [0; 6],
            raw_histogram,
            first_iter_uninit_reads: 0,
            violations: Vec::new(),
        };
        let f = flow(vec![5, 1, 1, 0]);
        assert_eq!(f.median_raw_distance(), Some(1));
        assert_eq!(f.dominant_raw_distance(), Some(1));
        let f = flow(vec![1, 1, 6, 6]);
        assert_eq!(f.median_raw_distance(), Some(3));
        assert_eq!(f.dominant_raw_distance(), Some(3), "ties break short");
        let empty = flow(vec![0, 0]);
        assert_eq!(empty.median_raw_distance(), None);
        assert_eq!(empty.dominant_raw_distance(), None);
    }

    #[test]
    fn generated_dependence_chain_dominates_the_histogram() {
        for dep in [1usize, 2, 4, 8] {
            let p = ProgramSpec {
                body_len: 100,
                gload_frac: 0.1,
                gstore_frac: 0.03,
                dep_distance: dep,
                seed: 7,
                ..ProgramSpec::default()
            }
            .generate()
            .expect("valid spec");
            let flow = program_flow(&p);
            assert_eq!(
                flow.dominant_raw_distance(),
                Some(dep),
                "dep_distance {dep} should dominate"
            );
        }
    }
}
