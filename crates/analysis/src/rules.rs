//! The analyzer rule catalogue: hard launch rules re-surfaced as
//! diagnostics, kernel-level well-formedness warnings, and the
//! declared-vs-derived consistency checks for suite benchmarks.
//!
//! Severity policy:
//!
//! * **Errors** mirror `gpu_sim::verify` — conditions under which the
//!   simulator panics or produces a meaningless result (zero occupancy under
//!   Eq. 1 of the paper, reads of never-defined registers, malformed
//!   barriers/loads). They also fail the `Gpu::try_add_kernel` pre-flight
//!   and cannot be waived.
//! * **Warnings** are statically suspicious but simulatable (a declared
//!   footprint the address generator silently clamps, a tile larger than the
//!   L1, a benchmark whose derived traffic contradicts its declared class).
//!   They fail the `cargo xtask verify-workloads` gate unless the benchmark
//!   carries a [`Waiver`] with a written justification.
//! * **Info** diagnostics never fail anything; waived warnings are
//!   downgraded to info with the justification attached.
//!
//! The consistency thresholds are calibrated against the shipped Table II
//! suite (see each constant's documentation) so that the paper's workloads
//! pass by construction and a regressed instruction mix is caught.

use crate::dataflow::{program_flow, ProgramFlow};
use crate::diag::{Diagnostic, Report, Severity, StaticMetrics};
use gpu_sim::{
    AccessPattern, GpuConfig, KernelDesc, SmConfig, CTA_REGION_LINES, MAX_DISJOINT_CTAS,
    SHARED_REGION_LINES,
};
use ws_workloads::{Benchmark, ScalingArchetype, Waiver, WorkloadClass};

/// Hard rules, enforced both here and by the launch pre-flight
/// (`gpu_sim::verify`). Identifiers match
/// [`gpu_sim::KernelVerifyError::rule`].
pub const HARD_RULES: [&str; 8] = [
    "zero-grid",
    "zero-threads",
    "zero-iterations",
    "eq1-infeasible",
    "never-defined-read",
    "barrier-operands",
    "load-without-dest",
    "rate-out-of-range",
];

/// Analyzer-only rules: kernel-level warnings, benchmark consistency
/// checks, and waiver hygiene.
pub const ANALYSIS_RULES: [&str; 16] = [
    "barrier-first-inst",
    "barrier-single-warp",
    "footprint-overflow",
    "zero-footprint",
    "transactions-clamped",
    "tile-exceeds-l1",
    "conflict-degree-range",
    "unused-shmem",
    "shmem-without-allocation",
    "cta-region-overlap",
    "class-traffic",
    "archetype-class",
    "archetype-raw",
    "empty-waiver-justification",
    "unknown-waiver-rule",
    "stale-waiver",
];

/// Every rule identifier the analyzer can emit, hard rules first.
#[must_use]
pub fn rule_catalogue() -> Vec<&'static str> {
    HARD_RULES
        .iter()
        .chain(ANALYSIS_RULES.iter())
        .copied()
        .collect()
}

/// Memory-class benchmarks must generate at least this much global traffic
/// (transactions per warp instruction). Calibrated against the suite: the
/// lightest Memory benchmark (BLK) derives 0.20, the heaviest Compute one
/// (MM) 0.13.
const MEMORY_MIN_TRAFFIC: f64 = 0.15;

/// Compute-class benchmarks must stay at or below this much global traffic.
const COMPUTE_MAX_TRAFFIC: f64 = 0.14;

/// Compute-class benchmarks must keep their global-instruction fraction at
/// or below this bound, independent of coalescing.
const COMPUTE_MAX_GLOBAL_FRAC: f64 = 0.25;

/// Statically analyzes one kernel descriptor: hard launch rules, dataflow,
/// derived metrics, and kernel-level warnings.
///
/// Unlike the launch pre-flight (which stops at the first violation), the
/// analyzer collects *every* finding, so a malformed fixture reports all of
/// its defects at once.
#[must_use]
pub fn analyze_kernel(desc: &KernelDesc, cfg: &GpuConfig) -> Report {
    let flow = program_flow(&desc.program);
    let mut diagnostics = hard_diagnostics(desc, &cfg.sm, &flow);
    let metrics = compute_metrics(desc, &cfg.sm, flow);
    diagnostics.extend(kernel_warnings(desc, cfg, &metrics));
    let mut report = Report {
        subject: desc.name.clone(),
        metrics,
        diagnostics,
    };
    report.sort();
    report
}

/// Statically analyzes one suite benchmark: everything [`analyze_kernel`]
/// checks, plus the declared-vs-derived consistency rules, with the
/// benchmark's waivers applied.
#[must_use]
pub fn analyze_benchmark(bench: &Benchmark, cfg: &GpuConfig) -> Report {
    let mut report = analyze_kernel(&bench.desc, cfg);
    report.subject = bench.abbrev.to_string();
    report
        .diagnostics
        .extend(consistency_diagnostics(bench, &report.metrics));
    apply_waivers(&mut report, bench.waivers);
    report.sort();
    report
}

/// Analyzes every benchmark in `benches`, returning one report each.
#[must_use]
pub fn verify_suite(benches: &[Benchmark], cfg: &GpuConfig) -> Vec<Report> {
    benches.iter().map(|b| analyze_benchmark(b, cfg)).collect()
}

/// Strips the `"[rule] "` prefix a [`gpu_sim::KernelVerifyError`] renders,
/// so the rule id is not duplicated in the diagnostic message.
fn strip_rule_prefix(rendered: &str) -> String {
    rendered
        .split_once("] ")
        .map_or_else(|| rendered.to_string(), |(_, msg)| msg.to_string())
}

/// Collects every hard-rule violation (the launch pre-flight reports only
/// the first); the per-instruction ones are the walk's
/// [`ProgramFlow::violations`].
fn hard_diagnostics(desc: &KernelDesc, sm: &SmConfig, flow: &ProgramFlow) -> Vec<Diagnostic> {
    use gpu_sim::KernelVerifyError as E;
    let mut out = Vec::new();
    if desc.grid_ctas == 0 {
        out.push(
            Diagnostic::error(
                "zero-grid",
                None,
                strip_rule_prefix(&E::ZeroGrid.to_string()),
            )
            .with_suggestion("set grid_ctas to the benchmark's Table II griddim".to_string()),
        );
    }
    if desc.threads_per_cta == 0 {
        out.push(Diagnostic::error(
            "zero-threads",
            None,
            strip_rule_prefix(&E::ZeroThreads.to_string()),
        ));
    }
    if desc.iterations == 0 {
        out.push(Diagnostic::error(
            "zero-iterations",
            None,
            strip_rule_prefix(&E::ZeroIterations.to_string()),
        ));
    }
    if !(0.0..=1.0).contains(&desc.icache_miss_rate) {
        let err = E::RateOutOfRange {
            field: "icache_miss_rate",
            value: desc.icache_miss_rate,
        };
        out.push(Diagnostic::error(
            "rate-out-of-range",
            None,
            strip_rule_prefix(&err.to_string()),
        ));
    }
    if desc.threads_per_cta > 0 {
        if let Err(err @ E::Infeasible { .. }) = desc.try_max_ctas_per_sm(sm) {
            out.push(
                Diagnostic::error("eq1-infeasible", None, strip_rule_prefix(&err.to_string()))
                    .with_suggestion(
                        "shrink the CTA's per-resource demand until one CTA fits an idle SM \
                         (Eq. 1)"
                            .to_string(),
                    ),
            );
        }
    }
    for err in &flow.violations {
        let diag = Diagnostic::error(err.rule(), err.span(), strip_rule_prefix(&err.to_string()));
        out.push(match *err {
            E::BarrierOperands { .. } => {
                diag.with_suggestion("clear the barrier's dst and srcs".to_string())
            }
            E::LoadWithoutDest { .. } => {
                diag.with_suggestion("give the load a destination register".to_string())
            }
            E::NeverDefinedRead { reg, .. } => diag.with_suggestion(format!(
                "add an instruction defining r{reg} or drop the operand"
            )),
            _ => diag,
        });
    }
    out
}

/// Kernel-level warnings: suspicious but simulatable descriptors. The op
/// mix comes from the body's `metrics`.
fn kernel_warnings(desc: &KernelDesc, cfg: &GpuConfig, metrics: &StaticMetrics) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let has_barrier = metrics.barrier_frac > 0.0;
    if desc
        .program
        .iter()
        .next()
        .is_some_and(|i| i.op.is_barrier())
    {
        out.push(
            Diagnostic::warning(
                "barrier-first-inst",
                Some(0),
                "the loop body opens with a barrier: warps synchronize before doing any work \
                 each iteration"
                    .to_string(),
            )
            .with_suggestion("move the barrier between the tile load and the tile use".to_string()),
        );
    }
    if has_barrier && desc.warps_per_cta() <= 1 {
        out.push(Diagnostic::warning(
            "barrier-single-warp",
            None,
            format!(
                "the body contains barriers but a {}-thread CTA has a single warp, so every \
                 barrier is a no-op",
                desc.threads_per_cta
            ),
        ));
    }
    out.extend(pattern_warnings(desc, cfg));
    if desc.shmem_conflict_degree == 0 || desc.shmem_conflict_degree > SmConfig::WARP_SIZE {
        out.push(Diagnostic::warning(
            "conflict-degree-range",
            None,
            format!(
                "shmem_conflict_degree {} is outside 1..={} (one warp cannot serialize more \
                 than its lane count)",
                desc.shmem_conflict_degree,
                SmConfig::WARP_SIZE
            ),
        ));
    }
    let shmem_frac = metrics.shmem_frac;
    if desc.shmem_per_cta > 0 && shmem_frac <= 0.0 {
        out.push(
            Diagnostic::warning(
                "unused-shmem",
                None,
                format!(
                    "{} bytes of shared memory are allocated per CTA but the body never \
                     issues a shared-memory access; the allocation only throttles occupancy",
                    desc.shmem_per_cta
                ),
            )
            .with_suggestion(
                "drop shmem_per_cta or add SharedMem instructions to the mix".to_string(),
            ),
        );
    }
    if desc.shmem_per_cta == 0 && shmem_frac > 0.0 {
        out.push(
            Diagnostic::warning(
                "shmem-without-allocation",
                None,
                format!(
                    "{:.0}% of the body accesses shared memory but shmem_per_cta is 0",
                    shmem_frac * 100.0
                ),
            )
            .with_suggestion("declare the CTA's shared-memory allocation".to_string()),
        );
    }
    if desc.grid_ctas > MAX_DISJOINT_CTAS {
        out.push(Diagnostic::warning(
            "cta-region-overlap",
            None,
            format!(
                "grid of {} CTAs exceeds the {MAX_DISJOINT_CTAS} disjoint per-CTA address \
                 regions; private footprints would alias the kernel-shared region",
                desc.grid_ctas
            ),
        ));
    }
    out
}

/// Warnings derived from the declared [`AccessPattern`] against the address
/// -space and cache geometry.
fn pattern_warnings(desc: &KernelDesc, cfg: &GpuConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut overflow = |what: &str, declared: u64, capacity: u64| {
        if declared > capacity {
            out.push(
                Diagnostic::warning(
                    "footprint-overflow",
                    None,
                    format!(
                        "declared {what} of {declared} lines exceeds the {capacity}-line \
                         region the address generator wraps within"
                    ),
                )
                .with_suggestion(format!("declare at most {capacity} lines")),
            );
        }
    };
    match desc.pattern {
        AccessPattern::Streaming { .. } => {}
        AccessPattern::Random {
            footprint_lines, ..
        } => {
            overflow("random footprint", footprint_lines, SHARED_REGION_LINES);
            if footprint_lines == 0 {
                out.push(zero_footprint("footprint_lines"));
            }
        }
        AccessPattern::BoundedFootprint {
            private_lines,
            shared_lines,
            shared_frac,
            ..
        } => {
            overflow(
                "private footprint",
                u64::from(private_lines),
                CTA_REGION_LINES,
            );
            overflow("shared footprint", shared_lines, SHARED_REGION_LINES);
            if private_lines == 0 {
                out.push(zero_footprint("private_lines"));
            }
            if shared_lines == 0 {
                out.push(zero_footprint("shared_lines"));
            }
            if !(0.0..=1.0).contains(&shared_frac) {
                out.push(Diagnostic::warning(
                    "rate-out-of-range",
                    None,
                    format!("shared_frac is {shared_frac}, outside [0, 1]"),
                ));
            }
        }
        AccessPattern::HotCold {
            hot_lines,
            hot_frac,
            ..
        } => {
            // The cold stream walks the CTA region above the hot lines, so
            // the hot set must leave most of the region to stream through.
            overflow("hot footprint", u64::from(hot_lines), CTA_REGION_LINES / 2);
            if hot_lines == 0 {
                out.push(zero_footprint("hot_lines"));
            }
            if !(0.0..=1.0).contains(&hot_frac) {
                out.push(Diagnostic::warning(
                    "rate-out-of-range",
                    None,
                    format!("hot_frac is {hot_frac}, outside [0, 1]"),
                ));
            }
        }
        AccessPattern::Tiled {
            tile_lines, reuse, ..
        } => {
            overflow("tile", u64::from(tile_lines), CTA_REGION_LINES);
            if tile_lines == 0 {
                out.push(zero_footprint("tile_lines"));
            }
            if reuse == 0 {
                out.push(zero_footprint("reuse"));
            }
            let l1_lines = u64::from(cfg.l1.size_bytes) / u64::from(cfg.l1.line_bytes.max(1));
            if u64::from(tile_lines) > l1_lines {
                out.push(
                    Diagnostic::warning(
                        "tile-exceeds-l1",
                        None,
                        format!(
                            "a {tile_lines}-line tile cannot be L1-resident ({l1_lines} lines \
                             per SM); the tiled pattern's low-miss-rate premise breaks"
                        ),
                    )
                    .with_suggestion(format!("keep tiles at or below {l1_lines} lines")),
                );
            }
        }
    }
    let raw_transactions = match desc.pattern {
        AccessPattern::Streaming { transactions }
        | AccessPattern::Random { transactions, .. }
        | AccessPattern::BoundedFootprint { transactions, .. }
        | AccessPattern::Tiled { transactions, .. }
        | AccessPattern::HotCold { transactions, .. } => transactions,
    };
    if raw_transactions == 0 || raw_transactions > SmConfig::WARP_SIZE {
        out.push(
            Diagnostic::warning(
                "transactions-clamped",
                None,
                format!(
                    "declared {raw_transactions} transactions per access; the generator \
                     silently clamps to 1..={} and the declared value misstates the traffic",
                    SmConfig::WARP_SIZE
                ),
            )
            .with_suggestion("declare the clamped value explicitly".to_string()),
        );
    }
    out
}

fn zero_footprint(field: &str) -> Diagnostic {
    Diagnostic::warning(
        "zero-footprint",
        None,
        format!(
            "{field} is 0; the address generator clamps it to 1, so every access hits one \
             line and the declared geometry is misleading"
        ),
    )
    .with_suggestion(format!("declare {field} >= 1"))
}

/// Declared-vs-derived consistency checks for a classified benchmark.
fn consistency_diagnostics(bench: &Benchmark, metrics: &StaticMetrics) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let traffic = metrics.global_traffic;
    let global_frac = metrics.gload_frac + metrics.gstore_frac;
    match bench.class {
        WorkloadClass::Memory => {
            if traffic < MEMORY_MIN_TRAFFIC {
                out.push(Diagnostic::warning(
                    "class-traffic",
                    None,
                    format!(
                        "declared Memory class but derives only {traffic:.2} global \
                         transactions per warp instruction (< {MEMORY_MIN_TRAFFIC}); the \
                         kernel cannot saturate DRAM bandwidth"
                    ),
                ));
            }
        }
        WorkloadClass::Compute => {
            if traffic > COMPUTE_MAX_TRAFFIC || global_frac > COMPUTE_MAX_GLOBAL_FRAC {
                out.push(Diagnostic::warning(
                    "class-traffic",
                    None,
                    format!(
                        "declared Compute class but derives {traffic:.2} global transactions \
                         per warp instruction with a {global_frac:.2} global fraction \
                         (bounds: {COMPUTE_MAX_TRAFFIC} and {COMPUTE_MAX_GLOBAL_FRAC})"
                    ),
                ));
            }
        }
        WorkloadClass::Cache => {
            let bounded = matches!(
                bench.desc.pattern,
                AccessPattern::HotCold { .. } | AccessPattern::BoundedFootprint { .. }
            );
            if !bounded {
                out.push(
                    Diagnostic::warning(
                        "class-traffic",
                        None,
                        "declared Cache class but the access pattern has no bounded reused \
                         footprint, so L1 capacity cannot be the performance knee"
                            .to_string(),
                    )
                    .with_suggestion(
                        "use a HotCold or BoundedFootprint pattern for cache-sensitive \
                         benchmarks"
                            .to_string(),
                    ),
                );
            }
        }
    }
    let class_for_archetype = match bench.archetype {
        ScalingArchetype::MemorySaturating => WorkloadClass::Memory,
        ScalingArchetype::CacheSensitive => WorkloadClass::Cache,
        ScalingArchetype::ComputeNonSaturating | ScalingArchetype::ComputeSaturating => {
            WorkloadClass::Compute
        }
    };
    if class_for_archetype != bench.class {
        out.push(Diagnostic::warning(
            "archetype-class",
            None,
            format!(
                "archetype {:?} implies class {class_for_archetype} but the benchmark \
                 declares {}",
                bench.archetype, bench.class
            ),
        ));
    }
    let dominant = metrics.dominant_raw_distance;
    match bench.archetype {
        ScalingArchetype::ComputeNonSaturating => {
            if dominant.is_none_or(|d| d > 1) {
                out.push(Diagnostic::warning(
                    "archetype-raw",
                    None,
                    format!(
                        "ComputeNonSaturating needs a serializing RAW chain (dominant \
                         distance 1) but the body's dominant distance is {dominant:?}; \
                         performance would saturate before the occupancy limit"
                    ),
                ));
            }
        }
        ScalingArchetype::ComputeSaturating => {
            if dominant.is_none_or(|d| d < 2) {
                out.push(Diagnostic::warning(
                    "archetype-raw",
                    None,
                    format!(
                        "ComputeSaturating needs exposed ILP (dominant RAW distance >= 2) \
                         but the body's dominant distance is {dominant:?}; the warp would \
                         serialize and keep scaling"
                    ),
                ));
            }
        }
        ScalingArchetype::MemorySaturating | ScalingArchetype::CacheSensitive => {}
    }
    out
}

/// Applies a benchmark's waivers: matching warnings are downgraded to info
/// with the justification attached; waiver-hygiene findings (empty
/// justification, unknown rule, stale waiver) are appended and cannot
/// themselves be waived.
fn apply_waivers(report: &mut Report, waivers: &[Waiver]) {
    let catalogue = rule_catalogue();
    for waiver in waivers {
        if waiver.justification.trim().is_empty() {
            report.diagnostics.push(Diagnostic::error(
                "empty-waiver-justification",
                None,
                format!(
                    "waiver for rule `{}` has no justification; waivers must record why \
                     the violation is intentional",
                    waiver.rule
                ),
            ));
            continue;
        }
        if !catalogue.contains(&waiver.rule) {
            report.diagnostics.push(Diagnostic::warning(
                "unknown-waiver-rule",
                None,
                format!("waiver names unknown rule `{}`", waiver.rule),
            ));
            continue;
        }
        let mut hit = false;
        for diag in &mut report.diagnostics {
            if diag.rule == waiver.rule && diag.severity == Severity::Warning {
                diag.severity = Severity::Info;
                diag.message = format!("{} (waived: {})", diag.message, waiver.justification);
                hit = true;
            }
        }
        if !hit {
            report.diagnostics.push(Diagnostic::warning(
                "stale-waiver",
                None,
                format!(
                    "waiver for rule `{}` suppresses nothing under this configuration",
                    waiver.rule
                ),
            ));
        }
    }
}

/// Derives the static metrics for one kernel. Shared with the performance
/// predictor ([`crate::predict`]), whose abstract domain starts from these
/// mix/dataflow/occupancy facts.
pub(crate) fn compute_metrics(
    desc: &KernelDesc,
    sm: &SmConfig,
    flow: ProgramFlow,
) -> StaticMetrics {
    let p = &desc.program;
    // The walk counted every op class; each fraction is the same
    // `count / len` division as `Program::fraction`.
    let [alu, sfu, gload, gstore, shmem, barrier] = flow.op_counts;
    let frac = |n: usize| n as f64 / p.len() as f64;
    let gload_frac = frac(gload);
    let gstore_frac = frac(gstore);
    let shmem_frac = frac(shmem);
    let alu_frac = frac(alu);
    let sfu_frac = frac(sfu);
    let global_traffic = (gload_frac + gstore_frac) * f64::from(desc.pattern.transactions());
    let arithmetic_intensity = if global_traffic > 0.0 {
        (alu_frac + sfu_frac) / global_traffic
    } else {
        f64::INFINITY
    };
    let (max_ctas_by, max_ctas) = gpu_sim::occupancy_breakdown(desc, sm);
    StaticMetrics {
        body_len: p.len(),
        iterations: desc.iterations,
        alu_frac,
        sfu_frac,
        gload_frac,
        gstore_frac,
        shmem_frac,
        barrier_frac: frac(barrier),
        lsu_frac: gload_frac + gstore_frac + shmem_frac,
        global_traffic,
        arithmetic_intensity,
        median_raw_distance: flow.median_raw_distance(),
        dominant_raw_distance: flow.dominant_raw_distance(),
        raw_histogram: flow.raw_histogram,
        first_iter_uninit_reads: flow.first_iter_uninit_reads,
        max_ctas_by,
        max_ctas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::tests::{random_program, standalone_analyze, RefDataflow};
    use gpu_sim::{Inst, OpClass, Program, ProgramSpec, SimRng};

    fn cfg() -> GpuConfig {
        GpuConfig::isca_baseline()
    }

    fn desc() -> KernelDesc {
        KernelDesc {
            name: "K".into(),
            grid_ctas: 64,
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

    fn rules_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn well_formed_kernel_is_clean() {
        let r = analyze_kernel(&desc(), &cfg());
        assert!(r.is_clean(), "unexpected findings: {r}");
        assert_eq!(r.metrics.max_ctas, 8);
    }

    #[test]
    fn analyzer_collects_every_hard_error() {
        let mut d = desc();
        d.grid_ctas = 0;
        d.iterations = 0;
        d.icache_miss_rate = 2.0;
        let r = analyze_kernel(&d, &cfg());
        let rules = rules_of(&r);
        assert!(rules.contains(&"zero-grid"));
        assert!(rules.contains(&"zero-iterations"));
        assert!(rules.contains(&"rate-out-of-range"));
        assert!(r.diagnostics.len() >= 3);
    }

    #[test]
    fn infeasible_kernel_is_a_hard_error_with_suggestion() {
        let mut d = desc();
        d.shmem_per_cta = 49 * 1024;
        let r = analyze_kernel(&d, &cfg());
        let diag = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "eq1-infeasible")
            .expect("eq1 violation reported");
        assert_eq!(diag.severity, Severity::Error);
        assert!(diag.suggestion.is_some());
        assert_eq!(r.metrics.max_ctas, 0, "zero occupancy in the breakdown");
    }

    /// The per-instruction half of `hard_diagnostics` before the one walk,
    /// verbatim: its own barrier and load scan, then the analyzer pass's
    /// never-defined reads.
    fn reference_instruction_diagnostics(desc: &KernelDesc, flow: &RefDataflow) -> Vec<Diagnostic> {
        use gpu_sim::KernelVerifyError as E;
        let mut out = Vec::new();
        for (i, inst) in desc.program.iter().enumerate() {
            if inst.op.is_barrier() && (inst.dst.is_some() || inst.srcs.iter().any(Option::is_some))
            {
                let err = E::BarrierOperands { inst: i };
                out.push(
                    Diagnostic::error(
                        "barrier-operands",
                        Some(i),
                        strip_rule_prefix(&err.to_string()),
                    )
                    .with_suggestion("clear the barrier's dst and srcs".to_string()),
                );
            }
            if inst.op == OpClass::GlobalLoad && inst.dst.is_none() {
                let err = E::LoadWithoutDest { inst: i };
                out.push(
                    Diagnostic::error(
                        "load-without-dest",
                        Some(i),
                        strip_rule_prefix(&err.to_string()),
                    )
                    .with_suggestion("give the load a destination register".to_string()),
                );
            }
        }
        for &(i, reg) in &flow.never_defined {
            let err = E::NeverDefinedRead { inst: i, reg };
            out.push(
                Diagnostic::error(
                    "never-defined-read",
                    Some(i),
                    strip_rule_prefix(&err.to_string()),
                )
                .with_suggestion(format!(
                    "add an instruction defining r{reg} or drop the operand"
                )),
            );
        }
        out
    }

    #[test]
    fn hard_diagnostics_match_the_reference_on_random_programs() {
        // The structural half is unchanged, so an infeasible, zero-grid
        // kernel keeps it in every report; the sorted reports must agree.
        let mut rng = SimRng::seed_from_u64(0xd1a6_0001);
        let mut d = desc();
        d.grid_ctas = 0;
        d.shmem_per_cta = 49 * 1024;
        let metrics = analyze_kernel(&desc(), &cfg()).metrics;
        let sorted = |diagnostics: Vec<Diagnostic>| {
            let mut report = Report {
                subject: String::new(),
                metrics: metrics.clone(),
                diagnostics,
            };
            report.sort();
            report.diagnostics
        };
        let mut per_inst = 0usize;
        for case in 0..1_000 {
            d.program = random_program(&mut rng);
            let flow = program_flow(&d.program);
            let new = sorted(hard_diagnostics(&d, &cfg().sm, &flow));
            let mut reference = hard_diagnostics(
                &d,
                &cfg().sm,
                &ProgramFlow {
                    violations: Vec::new(),
                    ..flow
                },
            );
            reference.extend(reference_instruction_diagnostics(
                &d,
                &standalone_analyze(&d.program),
            ));
            assert_eq!(new, sorted(reference), "case {case}: {:?}", d.program);
            per_inst += new.iter().filter(|diag| diag.span.is_some()).count();
        }
        assert!(per_inst > 1_000, "the cases carry per-instruction errors");
    }

    #[test]
    fn never_defined_reads_all_reported() {
        let mut d = desc();
        d.program = Program::new(vec![
            Inst {
                op: OpClass::Alu,
                dst: Some(0),
                srcs: [Some(7), None], // r7 never defined
            },
            Inst {
                op: OpClass::Alu,
                dst: Some(1),
                srcs: [Some(8), None], // r8 never defined
            },
        ]);
        let r = analyze_kernel(&d, &cfg());
        let spans: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == "never-defined-read")
            .map(|d| d.span)
            .collect();
        assert_eq!(spans, vec![Some(0), Some(1)]);
    }

    #[test]
    fn leading_barrier_and_single_warp_are_warned() {
        let mut d = desc();
        d.threads_per_cta = 32;
        d.program = Program::new(vec![
            Inst {
                op: OpClass::Barrier,
                dst: None,
                srcs: [None, None],
            },
            Inst {
                op: OpClass::Alu,
                dst: Some(0),
                srcs: [Some(0), None],
            },
        ]);
        let r = analyze_kernel(&d, &cfg());
        let rules = rules_of(&r);
        assert!(rules.contains(&"barrier-first-inst"));
        assert!(rules.contains(&"barrier-single-warp"));
        assert!(!r.is_clean());
    }

    #[test]
    fn footprint_and_transaction_bounds_are_checked() {
        let mut d = desc();
        d.pattern = AccessPattern::Random {
            footprint_lines: SHARED_REGION_LINES + 1,
            transactions: 64,
        };
        let r = analyze_kernel(&d, &cfg());
        let rules = rules_of(&r);
        assert!(rules.contains(&"footprint-overflow"));
        assert!(rules.contains(&"transactions-clamped"));
    }

    #[test]
    fn zero_footprints_and_oversized_tiles_are_warned() {
        let mut d = desc();
        d.pattern = AccessPattern::Tiled {
            tile_lines: 256, // L1 holds 128 lines
            reuse: 0,
            transactions: 1,
        };
        let r = analyze_kernel(&d, &cfg());
        let rules = rules_of(&r);
        assert!(rules.contains(&"tile-exceeds-l1"));
        assert!(rules.contains(&"zero-footprint"));
    }

    #[test]
    fn shmem_mismatches_are_warned_both_ways() {
        let mut d = desc();
        d.shmem_per_cta = 1024; // allocated but never accessed
        let r = analyze_kernel(&d, &cfg());
        assert!(rules_of(&r).contains(&"unused-shmem"));

        let mut d = desc();
        d.program = ProgramSpec {
            shmem_frac: 0.2,
            ..ProgramSpec::default()
        }
        .generate()
        .expect("valid spec");
        let r = analyze_kernel(&d, &cfg());
        assert!(rules_of(&r).contains(&"shmem-without-allocation"));
    }

    #[test]
    fn oversized_grid_warns_region_overlap() {
        let mut d = desc();
        d.grid_ctas = MAX_DISJOINT_CTAS + 1;
        let r = analyze_kernel(&d, &cfg());
        assert!(rules_of(&r).contains(&"cta-region-overlap"));
    }

    #[test]
    fn conflict_degree_out_of_range_is_warned() {
        let mut d = desc();
        d.shmem_conflict_degree = 33;
        let r = analyze_kernel(&d, &cfg());
        assert!(rules_of(&r).contains(&"conflict-degree-range"));
    }

    #[test]
    fn occupancy_breakdown_marks_unbounded_resources() {
        let (by, max) = gpu_sim::occupancy_breakdown(&desc(), &cfg().sm);
        let [threads, regs, shmem, slots] = by;
        assert_eq!(threads, 12); // 1536 / 128
        assert_eq!(regs, 16); // 32768 / 2048
        assert_eq!(shmem, u32::MAX, "no shared memory demanded");
        assert_eq!(slots, 8);
        assert_eq!(max, 8);
    }

    #[test]
    fn catalogue_is_deduplicated_and_complete() {
        let cat = rule_catalogue();
        let mut sorted = cat.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cat.len(), "no duplicate rule ids");
        assert!(cat.contains(&"eq1-infeasible"));
        assert!(cat.contains(&"class-traffic"));
    }
}
