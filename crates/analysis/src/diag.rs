//! Structured analyzer diagnostics: rule identifiers, severities, spans
//! into the instruction list, suggested fixes, and per-kernel reports
//! rendered in the same `file:line: [rule] message` shape as the
//! `cargo xtask lint` findings.

use gpu_sim::RawHistogram;
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Derived metric or note; never fails the gate.
    Info,
    /// Suspicious but simulatable; fails the gate unless waived.
    Warning,
    /// The simulator cannot produce a meaningful result; fails the gate and
    /// the `Gpu` launch pre-flight. Errors cannot be waived.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Info => write!(f, "info"),
            Self::Warning => write!(f, "warning"),
            Self::Error => write!(f, "error"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule identifier (see [`crate::rules`] for the catalogue).
    pub rule: &'static str,
    /// Severity; the gate fails on anything above [`Severity::Info`].
    pub severity: Severity,
    /// Index into the kernel's loop-body instruction list, when the finding
    /// concerns one instruction.
    pub span: Option<usize>,
    /// Human-oriented explanation of the defect.
    pub message: String,
    /// A concrete suggested fix, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    #[must_use]
    pub fn error(rule: &'static str, span: Option<usize>, message: String) -> Self {
        Self {
            rule,
            severity: Severity::Error,
            span,
            message,
            suggestion: None,
        }
    }

    /// Builds a warning diagnostic.
    #[must_use]
    pub fn warning(rule: &'static str, span: Option<usize>, message: String) -> Self {
        Self {
            rule,
            severity: Severity::Warning,
            span,
            message,
            suggestion: None,
        }
    }

    /// Builds an informational diagnostic.
    #[must_use]
    pub fn info(rule: &'static str, message: String) -> Self {
        Self {
            rule,
            severity: Severity::Info,
            span: None,
            message,
            suggestion: None,
        }
    }

    /// Attaches a suggested fix.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: String) -> Self {
        self.suggestion = Some(suggestion);
        self
    }
}

/// Per-kernel statically derived metrics, printed by the report mode and
/// consumed by the declared-vs-derived consistency rules.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticMetrics {
    /// Loop-body length in instructions.
    pub body_len: usize,
    /// Loop iterations per warp.
    pub iterations: u32,
    /// Fraction of the body on the ALU pipeline.
    pub alu_frac: f64,
    /// Fraction of the body on the SFU pipeline.
    pub sfu_frac: f64,
    /// Fraction of the body that is global loads.
    pub gload_frac: f64,
    /// Fraction of the body that is global stores.
    pub gstore_frac: f64,
    /// Fraction of the body that is shared-memory accesses.
    pub shmem_frac: f64,
    /// Fraction of the body that is CTA-wide barriers.
    pub barrier_frac: f64,
    /// Fraction of the body occupying the load/store unit.
    pub lsu_frac: f64,
    /// Global-memory transactions generated per warp instruction
    /// (global fraction x transactions per access).
    pub global_traffic: f64,
    /// Arithmetic instructions per global-memory transaction — the static
    /// arithmetic-intensity proxy. `f64::INFINITY` for kernels with no
    /// global traffic.
    pub arithmetic_intensity: f64,
    /// Median nearest-definition RAW distance across all register reads
    /// (`None` when the body reads no registers).
    pub median_raw_distance: Option<usize>,
    /// Most common nearest-definition RAW distance (ties break short); the
    /// generator's dependence chain concentrates mass here.
    pub dominant_raw_distance: Option<usize>,
    /// RAW dependence-distance histogram: `raw_histogram[d]` counts reads
    /// whose nearest reaching definition is `d + 1` instruction slots away.
    /// Shared with the body's kept walk rather than copied from it.
    pub raw_histogram: RawHistogram,
    /// Reads with no same-iteration definition (live-ins on iteration 1).
    pub first_iter_uninit_reads: usize,
    /// Maximum resident CTAs per SM by each resource:
    /// `[threads, registers, shared memory, CTA slots]`.
    pub max_ctas_by: [u32; 4],
    /// Overall maximum CTAs per SM (the minimum over `max_ctas_by`).
    pub max_ctas: u32,
}

/// The analyzer's output for one kernel: the derived metrics plus every
/// diagnostic, with waived findings downgraded to [`Severity::Info`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Kernel or benchmark name the report describes.
    pub subject: String,
    /// Statically derived metrics.
    pub metrics: StaticMetrics,
    /// All findings, hardest first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether the kernel passes the gate: no diagnostic above
    /// [`Severity::Info`].
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity == Severity::Info)
    }

    /// The diagnostics that fail the gate (severity above info).
    pub fn failures(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity > Severity::Info)
    }

    /// Sorts diagnostics by severity (errors first), then rule, then span.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (b.severity, a.rule, a.span).cmp(&(a.severity, b.rule, b.span)));
    }
}

/// Renders a per-resource CTA quota; `u32::MAX` marks a resource with zero
/// per-CTA demand, which never binds.
fn quota(v: u32) -> String {
    if v == u32::MAX {
        "-".to_string()
    } else {
        v.to_string()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.metrics;
        writeln!(
            f,
            "{}: {} insts x {} iters | alu {:.2} sfu {:.2} gload {:.2} gstore {:.2} \
             shm {:.2} bar {:.2}",
            self.subject,
            m.body_len,
            m.iterations,
            m.alu_frac,
            m.sfu_frac,
            m.gload_frac,
            m.gstore_frac,
            m.shmem_frac,
            m.barrier_frac
        )?;
        let dist = |d: Option<usize>| d.map_or_else(|| "-".to_string(), |d| d.to_string());
        writeln!(
            f,
            "{}: lsu {:.2} | traffic/inst {:.2} | arith intensity {:.1} | RAW median {} \
             dominant {} | live-in reads {}",
            self.subject,
            m.lsu_frac,
            m.global_traffic,
            m.arithmetic_intensity,
            dist(m.median_raw_distance),
            dist(m.dominant_raw_distance),
            m.first_iter_uninit_reads
        )?;
        let [by_threads, by_regs, by_shmem, by_slots] = m.max_ctas_by;
        writeln!(
            f,
            "{}: max CTAs/SM {} (threads {}, regs {}, shmem {}, slots {})",
            self.subject,
            quota(m.max_ctas),
            quota(by_threads),
            quota(by_regs),
            quota(by_shmem),
            quota(by_slots)
        )?;
        for d in &self.diagnostics {
            let span = d.span.map_or_else(String::new, |s| format!(":inst {s}"));
            writeln!(
                f,
                "{}{}: {}: [{}] {}",
                self.subject, span, d.severity, d.rule, d.message
            )?;
            if let Some(fix) = &d.suggestion {
                writeln!(f, "{}{}: help: {}", self.subject, span, fix)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> StaticMetrics {
        StaticMetrics {
            body_len: 4,
            iterations: 2,
            alu_frac: 0.5,
            sfu_frac: 0.0,
            gload_frac: 0.25,
            gstore_frac: 0.0,
            shmem_frac: 0.25,
            barrier_frac: 0.0,
            lsu_frac: 0.5,
            global_traffic: 0.25,
            arithmetic_intensity: 2.0,
            median_raw_distance: Some(2),
            dominant_raw_distance: Some(2),
            raw_histogram: vec![0, 3].into(),
            first_iter_uninit_reads: 1,
            max_ctas_by: [8, 8, 8, 8],
            max_ctas: 8,
        }
    }

    #[test]
    fn severity_ordering_drives_gate() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn clean_report_has_no_failures() {
        let r = Report {
            subject: "K".into(),
            metrics: metrics(),
            diagnostics: vec![Diagnostic::info("note", "fyi".into())],
        };
        assert!(r.is_clean());
        assert_eq!(r.failures().count(), 0);
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut r = Report {
            subject: "K".into(),
            metrics: metrics(),
            diagnostics: vec![
                Diagnostic::warning("w", None, "later".into()),
                Diagnostic::error("e", Some(3), "first".into()),
            ],
        };
        r.sort();
        assert_eq!(r.diagnostics[0].rule, "e");
        assert!(!r.is_clean());
        assert_eq!(r.failures().count(), 2);
    }

    #[test]
    fn report_renders_rule_and_span() {
        let r = Report {
            subject: "BLK".into(),
            metrics: metrics(),
            diagnostics: vec![
                Diagnostic::error("never-defined-read", Some(7), "r9".into())
                    .with_suggestion("define r9 somewhere in the body".into()),
            ],
        };
        let text = r.to_string();
        assert!(text.contains("BLK:inst 7: error: [never-defined-read] r9"));
        assert!(text.contains("help: define r9"));
    }
}
