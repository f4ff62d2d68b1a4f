//! Integration tests tying the static verifier to the simulator.
//!
//! The contract under test: a kernel the analyzer accepts must pass the
//! launch pre-flight ([`Gpu::try_add_kernel`]'s check) and simulate to
//! completion, and a kernel the analyzer rejects must be rejected by the
//! launch pre-flight too, for the *same* rule. Randomized descriptors use [`SimRng`] with fixed seeds
//! so failures reproduce.

use gpu_sim::{
    AccessPattern, Gpu, GpuConfig, Inst, KernelDesc, KernelId, OpClass, Program, ProgramSpec,
    SchedulerKind, SimRng,
};
use warped_slicer::{Driver, PolicyKind, RunConfig};
use ws_analyze::{analyze_benchmark, analyze_kernel, Severity};
use ws_workloads::{
    by_abbrev, extended_suite, Benchmark, PaperRow, ScalingArchetype, Waiver, WorkloadClass,
};

/// A small, analyzer-clean descriptor used as the baseline for mutations.
fn clean_desc(seed: u64) -> KernelDesc {
    KernelDesc {
        name: format!("fixture-{seed}"),
        grid_ctas: 2,
        threads_per_cta: 128,
        regs_per_thread: 16,
        shmem_per_cta: 0,
        program: ProgramSpec {
            body_len: 48,
            sfu_frac: 0.05,
            gload_frac: 0.10,
            gstore_frac: 0.05,
            shmem_frac: 0.0,
            barrier_frac: 0.0,
            dep_distance: 4,
            seed,
        }
        .generate()
        .expect("valid spec"),
        iterations: 4,
        pattern: AccessPattern::Streaming { transactions: 1 },
        icache_miss_rate: 0.0,
        shmem_conflict_degree: 1,
        seed,
    }
}

/// Error-severity rule ids in a report.
fn error_rules(report: &ws_analyze::Report) -> Vec<&'static str> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule)
        .collect()
}

/// Asserts the descriptor is rejected by BOTH the ws-analyze report and the
/// simulator's launch pre-flight, each naming `rule`.
fn assert_rejected_everywhere(desc: KernelDesc, rule: &str) {
    let cfg = GpuConfig::isca_baseline();
    let report = analyze_kernel(&desc, &cfg);
    assert!(
        error_rules(&report).contains(&rule),
        "ws-analyze should report [{rule}], got {:?}",
        report.diagnostics
    );
    let mut gpu = Gpu::new(cfg, SchedulerKind::GreedyThenOldest);
    let err = gpu
        .try_add_kernel(desc)
        .expect_err("launch pre-flight should reject the kernel");
    assert_eq!(err.rule(), rule, "pre-flight rejected for {err}");
}

#[test]
fn never_defined_read_is_rejected_by_both_layers() {
    let mut desc = clean_desc(1);
    // Register slot 40 aliases slot 8 (mod 32); neither is ever written in
    // this hand-built two-instruction body.
    desc.program = Program::new(vec![
        Inst {
            op: OpClass::Alu,
            dst: Some(0),
            srcs: [None, None],
        },
        Inst {
            op: OpClass::Alu,
            dst: Some(1),
            srcs: [Some(8), None],
        },
    ]);
    assert_rejected_everywhere(desc, "never-defined-read");
}

#[test]
fn infeasible_eq1_footprint_is_rejected_by_both_layers() {
    let mut desc = clean_desc(2);
    // 64 KB of shared memory per CTA exceeds the SM's 48 KB outright: zero
    // occupancy under Eq. 1.
    desc.shmem_per_cta = 64 * 1024;
    assert_rejected_everywhere(desc, "eq1-infeasible");
}

#[test]
fn operand_carrying_barrier_is_rejected_by_both_layers() {
    let mut desc = clean_desc(3);
    desc.program = Program::new(vec![
        Inst {
            op: OpClass::Alu,
            dst: Some(0),
            srcs: [None, None],
        },
        Inst {
            op: OpClass::Barrier,
            dst: None,
            srcs: [Some(0), None],
        },
    ]);
    assert_rejected_everywhere(desc, "barrier-operands");
}

#[test]
fn verifier_clean_descriptors_simulate_to_completion() {
    // Property: over SimRng-drawn descriptors the analyzer passes, the
    // launch pre-flight agrees and the simulation retires every CTA.
    let cfg = GpuConfig::isca_baseline();
    let run_cfg = RunConfig {
        gpu: cfg.clone(),
        ..RunConfig::default()
    };
    let mut rng = SimRng::seed_from_u64(0xC0FFEE);
    for trial in 0..4u64 {
        let mut desc = clean_desc(100 + trial);
        desc.program = ProgramSpec {
            body_len: 32 + rng.range_usize(32),
            sfu_frac: 0.1 * rng.unit_f64(),
            gload_frac: 0.05 + 0.1 * rng.unit_f64(),
            gstore_frac: 0.05 * rng.unit_f64(),
            shmem_frac: 0.0,
            barrier_frac: 0.0,
            dep_distance: 1 + rng.range_usize(8),
            seed: rng.next_u64(),
        }
        .generate()
        .expect("valid spec");
        let report = analyze_kernel(&desc, &cfg);
        assert!(
            report.is_clean(),
            "trial {trial} expected a clean report, got {report}"
        );
        gpu_sim::verify::preflight(&desc, &cfg.sm)
            .expect("analyzer-clean kernel must pass the launch pre-flight");
        let grid = desc.grid_ctas;
        let policy = PolicyKind::Quota(vec![desc.max_ctas_per_sm(&cfg.sm)]);
        let mut run = Driver::new(&run_cfg, &[desc], &policy);
        run.advance_to(30_000);
        assert!(
            run.gpu().kernel_meta(KernelId(0)).completed_ctas >= grid,
            "trial {trial}: analyzer-clean kernel did not retire its {grid}-CTA grid"
        );
    }
}

#[test]
fn corrupted_programs_fail_for_the_stated_rule() {
    // Property: take a clean generated program and append one corrupted
    // instruction (appending never removes a definition, so the planted
    // violation is the only one); both layers must reject it for exactly
    // the stated rule, at the appended span.
    for trial in 0..4u64 {
        let desc = clean_desc(200 + trial);
        let insts: Vec<Inst> = desc.program.iter().copied().collect();
        let victim = insts.len();
        let (bad_inst, rule) = if trial % 2 == 0 {
            (
                Inst {
                    op: OpClass::Barrier,
                    dst: None,
                    srcs: [Some(0), None],
                },
                "barrier-operands",
            )
        } else {
            (
                Inst {
                    op: OpClass::GlobalLoad,
                    dst: None,
                    srcs: [None, None],
                },
                "load-without-dest",
            )
        };
        let mut corrupted = insts;
        corrupted.push(bad_inst);
        let mut bad = desc;
        bad.program = Program::new(corrupted);
        let cfg = GpuConfig::isca_baseline();
        let report = analyze_kernel(&bad, &cfg);
        let offending: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == rule)
            .collect();
        assert!(
            offending.iter().any(|d| d.span == Some(victim)),
            "trial {trial}: expected [{rule}] at inst {victim}, got {:?}",
            report.diagnostics
        );
        let mut gpu = Gpu::new(cfg, SchedulerKind::GreedyThenOldest);
        let err = gpu.try_add_kernel(bad).expect_err("pre-flight must reject");
        assert_eq!(err.rule(), rule);
    }
}

#[test]
fn shipped_suites_are_verifier_clean() {
    // The xtask gate depends on this staying true; keep it pinned by a test
    // so a suite edit that introduces a diagnostic fails close to the edit.
    let cfg = GpuConfig::isca_baseline();
    for report in ws_analyze::verify_suite(&extended_suite(), &cfg) {
        assert!(report.is_clean(), "unexpected diagnostics:\n{report}");
    }
}

#[test]
fn by_abbrev_resolves_any_case() {
    // `MUM` and `mum` must name the same benchmark, and the same holds for
    // every abbreviation in the extended suite.
    let upper = by_abbrev("MUM").expect("MUM resolves");
    let lower = by_abbrev("mum").expect("mum resolves");
    assert_eq!(upper.abbrev, lower.abbrev);
    assert_eq!(upper.desc, lower.desc);
    for bench in extended_suite() {
        let from_lower = by_abbrev(&bench.abbrev.to_ascii_lowercase())
            .unwrap_or_else(|| panic!("{} resolves lowercased", bench.abbrev));
        assert_eq!(from_lower.abbrev, bench.abbrev);
    }
}

/// A descriptor consistent with the fixture's declared metadata (Compute
/// class, non-saturating archetype): light global traffic, unit RAW chain.
fn compute_fixture_desc(seed: u64) -> KernelDesc {
    let mut desc = clean_desc(seed);
    desc.program = ProgramSpec {
        body_len: 48,
        sfu_frac: 0.05,
        gload_frac: 0.06,
        gstore_frac: 0.02,
        shmem_frac: 0.0,
        barrier_frac: 0.0,
        dep_distance: 1,
        seed,
    }
    .generate()
    .expect("valid spec");
    desc
}

/// Wraps a descriptor into a fixture [`Benchmark`] with the given waivers.
fn fixture_bench(desc: KernelDesc, waivers: &'static [Waiver]) -> Benchmark {
    Benchmark {
        abbrev: "FIX",
        full_name: "waiver fixture",
        desc,
        class: WorkloadClass::Compute,
        archetype: ScalingArchetype::ComputeNonSaturating,
        paper: PaperRow {
            reg: 0.0,
            shm: 0.0,
            alu: 0.0,
            sfu: 0.0,
            ls: 0.0,
            l2_mpki: 0.0,
        },
        waivers,
    }
}

#[test]
fn waiver_downgrades_a_warning_and_stale_waivers_warn() {
    let cfg = GpuConfig::isca_baseline();
    // Shared memory allocated but never touched: warns unwaived...
    let mut desc = compute_fixture_desc(7);
    desc.shmem_per_cta = 1024;
    let unwaived = analyze_benchmark(&fixture_bench(desc.clone(), &[]), &cfg);
    assert!(!unwaived.is_clean());
    assert!(unwaived.failures().any(|d| d.rule == "unused-shmem"));

    // ...and is downgraded to Info by a justified waiver.
    let waived = analyze_benchmark(
        &fixture_bench(
            desc.clone(),
            &[Waiver {
                rule: "unused-shmem",
                justification: "models an over-allocating compiler; occupancy throttle intended",
            }],
        ),
        &cfg,
    );
    assert!(waived.is_clean(), "waived report still fails:\n{waived}");
    assert!(waived
        .diagnostics
        .iter()
        .any(|d| d.rule == "unused-shmem" && d.severity == Severity::Info));

    // A waiver whose rule never fires is itself reported as stale.
    let mut plain = compute_fixture_desc(8);
    plain.shmem_per_cta = 0;
    let stale = analyze_benchmark(
        &fixture_bench(
            plain,
            &[Waiver {
                rule: "unused-shmem",
                justification: "left over from an earlier descriptor",
            }],
        ),
        &cfg,
    );
    assert!(stale.failures().any(|d| d.rule == "stale-waiver"));
}

#[test]
fn waiver_bookkeeping_is_itself_verified() {
    let cfg = GpuConfig::isca_baseline();
    // Empty justification: hard error, cannot be waived away.
    let empty = analyze_benchmark(
        &fixture_bench(
            compute_fixture_desc(9),
            &[Waiver {
                rule: "unused-shmem",
                justification: "",
            }],
        ),
        &cfg,
    );
    assert!(error_rules(&empty).contains(&"empty-waiver-justification"));
    // Unknown rule id: flagged so typos don't silently waive nothing.
    let unknown = analyze_benchmark(
        &fixture_bench(
            compute_fixture_desc(10),
            &[Waiver {
                rule: "no-such-rule",
                justification: "typo'd rule id",
            }],
        ),
        &cfg,
    );
    assert!(unknown.failures().any(|d| d.rule == "unknown-waiver-rule"));
}
