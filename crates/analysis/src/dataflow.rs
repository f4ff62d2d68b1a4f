//! Register-dataflow analysis of synthetic loop bodies.
//!
//! Every warp executes the loop body repeatedly, so definitions flow across
//! the iteration boundary: a read at instruction `i` of a register whose
//! only definition sits at `j > i` is reached by the *previous iteration's*
//! write. The reaching-definition state entering the body is computed as the
//! fixpoint over the loop back-edge. Because the body is straight-line code,
//! the transfer function is idempotent: the state leaving the body after one
//! symbolic pass (the last definition of each register) *is* the fixpoint,
//! and a second pass would not change it.
//!
//! The analysis classifies every register read as one of:
//!
//! * a **same-iteration read** — a definition precedes it in the body; its
//!   RAW distance is the instruction-slot gap to the nearest one;
//! * a **loop-carried read** — only a later definition exists, so the value
//!   crosses the back-edge; its RAW distance wraps (`i + body_len - j`) and
//!   on the very first iteration the read sees a live-in value, which the
//!   simulator models as ready-at-launch (counted in
//!   [`Dataflow::first_iter_uninit_reads`]);
//! * a **never-defined read** — no instruction in the body writes the
//!   register in any iteration. These are hard verifier errors
//!   (`gpu_sim::verify` rejects them) and are excluded from the histogram.
//!
//! The RAW dependence-distance histogram drives the scaling-archetype
//! consistency rules: a dominant distance of 1 serializes the warp (the
//! compute-non-saturating shape of Fig. 3a of the paper), while larger
//! distances expose instruction-level parallelism and saturate early.

use gpu_sim::{Program, Reg, NUM_VIRTUAL_REGS};

/// Maps a register name onto its slot in the virtual register window,
/// mirroring the masking in `gpu_sim::verify`.
fn reg_slot(reg: Reg) -> usize {
    usize::from(reg) % NUM_VIRTUAL_REGS
}

/// The dataflow facts derived from one loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataflow {
    /// `raw_histogram[d - 1]` counts register reads whose nearest reaching
    /// definition is `d` instruction slots away (wrapping across the loop
    /// back-edge). Distances range over `1..=body_len`.
    pub raw_histogram: Vec<usize>,
    /// Reads of registers no instruction in the body ever defines, as
    /// `(instruction index, register)` pairs.
    pub never_defined: Vec<(usize, Reg)>,
    /// Loop-carried reads: on iteration 1 these consume a live-in value
    /// rather than a value computed by the body.
    pub first_iter_uninit_reads: usize,
}

impl Dataflow {
    /// Total register reads that carry a RAW dependence.
    #[must_use]
    pub fn total_reads(&self) -> usize {
        self.raw_histogram.iter().sum()
    }

    /// Median RAW distance over all reads, or `None` if the body reads no
    /// defined register.
    #[must_use]
    pub fn median_raw_distance(&self) -> Option<usize> {
        let total = self.total_reads();
        if total == 0 {
            return None;
        }
        let midpoint = total.div_ceil(2);
        let mut seen = 0usize;
        for (idx, count) in self.raw_histogram.iter().enumerate() {
            seen += count;
            if seen >= midpoint {
                return Some(idx + 1);
            }
        }
        None
    }

    /// The most common RAW distance (ties break toward the shorter
    /// distance), or `None` if the body reads no defined register. More
    /// robust than the median for archetype classification: the generator's
    /// primary dependence chain concentrates mass at exactly the configured
    /// `dep_distance`, while the random second operands spread thinly.
    #[must_use]
    pub fn dominant_raw_distance(&self) -> Option<usize> {
        let best = self
            .raw_histogram
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        if *best.1 == 0 {
            None
        } else {
            Some(best.0 + 1)
        }
    }
}

/// Runs the reaching-definition fixpoint over a loop body and collects the
/// RAW dependence-distance histogram.
///
/// Definition positions live on a timeline shifted one body length forward:
/// the previous iteration's definitions sit at `0..len` and this
/// iteration's at `len..2 * len`. A read at instruction `i` then has
/// distance `i + len - def` whichever iteration its definition comes from,
/// and it is loop-carried exactly when `def < len`.
#[must_use]
pub fn analyze(program: &Program) -> Dataflow {
    /// Position of a register no instruction defines.
    const NEVER: usize = usize::MAX;
    let len = program.len();
    // Fixpoint seed: the state entering the body equals the state leaving
    // it, i.e. each register's last definition, one body length back.
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
            // `d < now` by construction (a same-iteration definition
            // strictly precedes the read; a carried one is at most a full
            // body away), so distances are in 1..=len.
            if let Some(bucket) = raw_histogram.get_mut(now - 1 - d) {
                *bucket += 1;
            }
        }
        if let Some(slot) = inst.dst.and_then(|dst| def.get_mut(reg_slot(dst))) {
            *slot = now;
        }
    }

    Dataflow {
        raw_histogram,
        never_defined,
        first_iter_uninit_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Inst, OpClass, Program, ProgramSpec, SimRng};

    /// The straightforward two-map formulation `analyze` replaced, kept as
    /// its oracle: the loop-carried state and the current iteration's
    /// definitions in separate maps, with an explicit wrap for carried
    /// reads.
    fn reference_analyze(program: &Program) -> Dataflow {
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

        Dataflow {
            raw_histogram,
            never_defined,
            first_iter_uninit_reads,
        }
    }

    /// A random loop body: any op class, destinations drawn from a few
    /// registers (some above the virtual window, so slots alias), and
    /// sources from a wider range, so some reads hit registers no
    /// instruction defines.
    fn random_program(rng: &mut SimRng) -> Program {
        const OPS: [OpClass; 6] = [
            OpClass::Alu,
            OpClass::Sfu,
            OpClass::GlobalLoad,
            OpClass::GlobalStore,
            OpClass::SharedMem,
            OpClass::Barrier,
        ];
        let body_len = 1 + rng.range_usize(64);
        let defined = 1 + rng.range_u64(48);
        let reg = |rng: &mut SimRng, n: u64| Reg::try_from(rng.range_u64(n)).ok();
        let insts = (0..body_len)
            .map(|_| {
                let op = OPS.get(rng.range_usize(OPS.len())).copied();
                let op = op.unwrap_or(OpClass::Alu);
                if op.is_barrier() {
                    return Inst {
                        op,
                        dst: None,
                        srcs: [None, None],
                    };
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
        Program::new(insts)
    }

    #[test]
    fn analyze_matches_the_reference_on_random_programs() {
        let mut rng = SimRng::seed_from_u64(0xdf10_0001);
        let (mut carried, mut never) = (0usize, 0usize);
        for case in 0..2_500 {
            let p = random_program(&mut rng);
            let flow = analyze(&p);
            assert_eq!(flow, reference_analyze(&p), "case {case}: {p:?}");
            carried += flow.first_iter_uninit_reads;
            never += flow.never_defined.len();
        }
        assert!(carried > 0 && never > 0, "the cases cover every read kind");
    }

    #[test]
    fn extracted_features_match_the_reference_analysis() {
        let cfg = GpuConfig::isca_baseline();
        for b in ws_workloads::extended_suite() {
            let reference = reference_analyze(&b.desc.program);
            assert_eq!(
                crate::predict::extract_features(&b.desc, &cfg),
                Ok(crate::predict::features_from_flow(&b.desc, &cfg, reference)),
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
        let flow = analyze(&p);
        assert_eq!(flow.raw_histogram, vec![1, 1, 0]);
        assert_eq!(flow.first_iter_uninit_reads, 0);
        assert!(flow.never_defined.is_empty());
    }

    #[test]
    fn loop_carried_reads_wrap_and_count_as_live_in() {
        // inst 0 reads r1, defined only at inst 1: the previous iteration's
        // write reaches it at distance 0 + 2 - 1 = 1.
        let p = Program::new(vec![
            alu(Some(0), [Some(1), None]),
            alu(Some(1), [Some(0), None]),
        ]);
        let flow = analyze(&p);
        assert_eq!(flow.raw_histogram, vec![2, 0]);
        assert_eq!(flow.first_iter_uninit_reads, 1);
    }

    #[test]
    fn self_recurrence_has_distance_body_len() {
        // A single instruction reading its own destination: the value
        // crosses the whole loop, distance = body length = 1.
        let p = Program::new(vec![alu(Some(3), [Some(3), None])]);
        let flow = analyze(&p);
        assert_eq!(flow.raw_histogram, vec![1]);
        assert_eq!(flow.first_iter_uninit_reads, 1);
    }

    #[test]
    fn never_defined_reads_are_reported_not_counted() {
        let p = Program::new(vec![
            alu(Some(0), [Some(9), None]), // r9 never written
            alu(Some(1), [Some(0), None]),
        ]);
        let flow = analyze(&p);
        assert_eq!(flow.never_defined, vec![(0, 9)]);
        assert_eq!(flow.total_reads(), 1);
    }

    #[test]
    fn median_and_dominant_summarize_the_histogram() {
        let flow = Dataflow {
            raw_histogram: vec![5, 1, 1, 0],
            never_defined: Vec::new(),
            first_iter_uninit_reads: 0,
        };
        assert_eq!(flow.median_raw_distance(), Some(1));
        assert_eq!(flow.dominant_raw_distance(), Some(1));
        let flow = Dataflow {
            raw_histogram: vec![1, 1, 6, 6],
            never_defined: Vec::new(),
            first_iter_uninit_reads: 0,
        };
        assert_eq!(flow.median_raw_distance(), Some(3));
        assert_eq!(flow.dominant_raw_distance(), Some(3), "ties break short");
        let empty = Dataflow {
            raw_histogram: vec![0, 0],
            never_defined: Vec::new(),
            first_iter_uninit_reads: 0,
        };
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
            .generate();
            let flow = analyze(&p);
            assert_eq!(
                flow.dominant_raw_distance(),
                Some(dep),
                "dep_distance {dep} should dominate"
            );
        }
    }
}
