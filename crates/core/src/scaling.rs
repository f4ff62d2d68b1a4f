//! The bandwidth-interference IPC scaling factor (Sec. IV-A, Eq. 2-4).
//!
//! During the profiling phase every SM runs a different CTA count, so SMs
//! with more CTAs demand more than their fair share of DRAM bandwidth and
//! their sampled IPC misrepresents what the kernel would achieve at that
//! CTA count in isolation. Following Jog et al.'s observation that
//! `IPC ∝ BW / MPKI` for memory-intensive kernels (Eq. 2), the sampled IPC
//! is corrected by
//!
//! ```text
//! IPC_scaled = IPC_sampled * (1 + φ_mem * ψ),   ψ ≈ CTA_i / CTA_avg - 1
//! ```
//!
//! where `φ_mem` is the fraction of scheduler-cycles lost to long memory
//! latency during the sample (so compute-bound samples are barely touched).

/// Lower edge of the soft clamp on every Eq. 3 factor, so one noisy sample
/// cannot dominate a curve (and a pathological one can never produce a
/// negative or zero scaled IPC).
pub const FACTOR_CLAMP_MIN: f64 = 0.25;

/// Upper edge of the soft clamp on every Eq. 3 factor.
pub const FACTOR_CLAMP_MAX: f64 = 2.5;

/// One audited application of an Eq. 3-style scaling factor: the scaled
/// IPC together with the factor used, the raw (pre-clamp) factor, and
/// whether clamping fired. Decision-audit traces record these outcomes so a
/// clamped sample is attributable instead of silently floored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleOutcome {
    /// The scaled IPC (`ipc_sampled * factor`).
    pub ipc: f64,
    /// The factor actually applied (after any clamping).
    pub factor: f64,
    /// The raw Eq. 3 factor before clamping.
    pub raw_factor: f64,
    /// Whether the raw factor fell outside the clamp range.
    pub clamped: bool,
}

/// Clamps `raw` into `[lo, hi]` and packages the audited outcome.
fn clamp_outcome(ipc_sampled: f64, raw: f64, lo: f64, hi: f64) -> ScaleOutcome {
    let clamped = raw < lo || raw > hi;
    let factor = raw.clamp(lo, hi);
    ScaleOutcome {
        ipc: ipc_sampled * factor,
        factor,
        raw_factor: raw,
        clamped,
    }
}

/// Computes `ψ ≈ CTA_i / CTA_avg − 1` (Eq. 4).
///
/// # Panics
///
/// Panics if `cta_avg` is not positive.
#[must_use]
pub fn psi(cta_i: u32, cta_avg: f64) -> f64 {
    assert!(cta_avg > 0.0, "cta_avg must be positive");
    f64::from(cta_i) / cta_avg - 1.0
}

/// Computes `ψ` from *measured* per-SM bandwidth instead of the paper's
/// CTA-count simplification.
///
/// The paper derives `ψ = B_scaled / B_sampled − 1` (Eq. 3) and then
/// approximates the bandwidth ratio by `CTA_i / CTA_avg` under the
/// assumption that sampling-phase bandwidth is split evenly across SMs. Our
/// DRAM substrate arbitrates demand-proportionally (FR-FCFS), so this
/// implementation evaluates the ratio directly: `B_scaled` is the fair
/// per-SM share the SM would get if every SM ran its configuration
/// (`fair_transactions`), and `B_sampled` is the SM's measured transaction
/// count. The correction matters only when the DRAM was actually contended,
/// so `ψ` is damped by the measured bus-busy fraction.
#[must_use]
pub fn psi_measured(sm_transactions: u64, fair_transactions: f64, dram_busy: f64) -> f64 {
    if sm_transactions == 0 || fair_transactions <= 0.0 {
        return 0.0;
    }
    let ratio = fair_transactions / sm_transactions as f64;
    if ratio < 1.0 {
        // Over-share: if every SM ran this configuration the bus *would*
        // saturate and this SM would be cut to its fair share — no damping.
        ratio - 1.0
    } else {
        // Under-share: the sample was only pessimistic to the extent the
        // bus was actually contended during sampling.
        dram_busy.clamp(0.0, 1.0) * (ratio - 1.0)
    }
}

/// Applies Eq. 3 with an explicit `ψ` (from [`psi`] or [`psi_measured`]),
/// reporting whether the `[`[`FACTOR_CLAMP_MIN`]`, `[`FACTOR_CLAMP_MAX`]`]`
/// clamp fired. `phi_mem` is clamped into `[0, 1]`.
///
/// # Examples
///
/// ```
/// use warped_slicer::scaling::{psi, scale_ipc_with_psi_audited};
///
/// // A fully memory-bound SM holding twice the average CTA count is
/// // assumed to deserve twice the bandwidth it got during sampling.
/// assert_eq!(scale_ipc_with_psi_audited(1.0, 1.0, psi(8, 4.0)).ipc, 2.0);
/// // A compute-bound sample is untouched.
/// assert_eq!(scale_ipc_with_psi_audited(2.0, 0.0, psi(8, 4.0)).ipc, 2.0);
/// ```
#[must_use]
pub fn scale_ipc_with_psi_audited(ipc_sampled: f64, phi_mem: f64, psi: f64) -> ScaleOutcome {
    let phi = phi_mem.clamp(0.0, 1.0);
    clamp_outcome(
        ipc_sampled,
        1.0 + phi * psi,
        FACTOR_CLAMP_MIN,
        FACTOR_CLAMP_MAX,
    )
}

/// The measured-bandwidth correction applied to a sampled IPC, reporting
/// whether the `[`[`FACTOR_CLAMP_MIN`]`, `[`FACTOR_CLAMP_MAX`]`]` clamp
/// fired.
///
/// * **Over-share** (`sm > fair`): if every SM ran this configuration, the
///   bus would saturate and the SM would be cut to its fair share; by
///   Eq. 2 (`IPC ∝ BW/MPKI`) its IPC scales with the cut directly.
/// * **Under-share**: the sample was pessimistic only to the extent the
///   bus was contended during sampling and the kernel was memory-stalled,
///   so the relief is damped by both `dram_busy` and `φ_mem` (Eq. 3).
#[must_use]
pub fn bandwidth_scale_factor_audited(
    ipc_sampled: f64,
    sm_transactions: u64,
    fair_transactions: f64,
    dram_busy: f64,
    phi_mem: f64,
) -> ScaleOutcome {
    if sm_transactions == 0 || fair_transactions <= 0.0 {
        return ScaleOutcome {
            ipc: ipc_sampled,
            factor: 1.0,
            raw_factor: 1.0,
            clamped: false,
        };
    }
    let ratio = fair_transactions / sm_transactions as f64;
    let raw = if ratio < 1.0 {
        ratio
    } else {
        1.0 + phi_mem.clamp(0.0, 1.0) * dram_busy.clamp(0.0, 1.0) * (ratio - 1.0)
    };
    clamp_outcome(ipc_sampled, raw, FACTOR_CLAMP_MIN, FACTOR_CLAMP_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. 3 with the paper's Eq. 4 CTA-ratio `ψ`.
    fn scale_by_ctas(ipc_sampled: f64, phi_mem: f64, cta_i: u32, cta_avg: f64) -> ScaleOutcome {
        scale_ipc_with_psi_audited(ipc_sampled, phi_mem, psi(cta_i, cta_avg))
    }

    /// The measured-bandwidth factor alone (applied to a unit IPC).
    fn bandwidth_factor(sm: u64, fair: f64, dram_busy: f64, phi_mem: f64) -> f64 {
        bandwidth_scale_factor_audited(1.0, sm, fair, dram_busy, phi_mem).factor
    }

    #[test]
    fn psi_is_zero_at_average() {
        assert!((psi(4, 4.0)).abs() < 1e-12);
        assert!(psi(8, 4.0) > 0.0);
        assert!(psi(1, 4.0) < 0.0);
    }

    #[test]
    fn compute_bound_samples_are_untouched() {
        // phi_mem = 0: no memory stalls -> no correction.
        let ipc = scale_by_ctas(2.0, 0.0, 8, 4.0).ipc;
        assert!((ipc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_over_average_scales_up() {
        // An SM running twice the average CTA count, fully memory bound:
        // factor = 1 + 1.0 * (2 - 1) = 2.
        let ipc = scale_by_ctas(1.0, 1.0, 8, 4.0).ipc;
        assert!((ipc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_under_average_scales_down() {
        // factor = 1 + 0.5 * (0.25 - 1) = 0.625.
        let ipc = scale_by_ctas(2.0, 0.5, 1, 4.0).ipc;
        assert!((ipc - 1.25).abs() < 1e-12);
    }

    #[test]
    fn factor_is_floored_positive_and_flagged() {
        // Extreme inputs cannot flip the sign of IPC — and the floor is not
        // silent: the audited outcome pins the clamped path.
        let out = scale_by_ctas(1.0, 1.0, 0, 100.0);
        assert!(out.ipc > 0.0);
        assert!(out.clamped, "hitting the floor must be flagged");
        assert!((out.factor - FACTOR_CLAMP_MIN).abs() < 1e-12);
        assert!((out.ipc - FACTOR_CLAMP_MIN).abs() < 1e-12);
        assert!(out.raw_factor < FACTOR_CLAMP_MIN);
        // A healthy sample is not flagged.
        let ok = scale_by_ctas(1.0, 1.0, 8, 4.0);
        assert!(!ok.clamped);
        assert!((ok.ipc - 2.0).abs() < 1e-12);
        assert!((ok.factor - ok.raw_factor).abs() < 1e-12);
    }

    #[test]
    fn psi_and_bandwidth_audits_flag_their_clamps() {
        let out = scale_ipc_with_psi_audited(1.0, 1.0, 10.0);
        assert!(out.clamped);
        assert!((out.factor - FACTOR_CLAMP_MAX).abs() < 1e-12);
        assert!((out.raw_factor - 11.0).abs() < 1e-12);
        assert!(!scale_ipc_with_psi_audited(1.0, 1.0, 0.5).clamped);
        // 8x over fair share: raw 0.125 clamps to 0.25.
        let out = bandwidth_scale_factor_audited(2.0, 800, 100.0, 1.0, 1.0);
        assert!(out.clamped);
        assert!((out.factor - FACTOR_CLAMP_MIN).abs() < 1e-12);
        assert!((out.ipc - 0.5).abs() < 1e-12);
        // Degenerate inputs are an unclamped identity.
        let out = bandwidth_scale_factor_audited(2.0, 0, 100.0, 1.0, 1.0);
        assert!(!out.clamped);
        assert!((out.ipc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phi_is_clamped() {
        let a = scale_by_ctas(1.0, 5.0, 8, 4.0).ipc;
        let b = scale_by_ctas(1.0, 1.0, 8, 4.0).ipc;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_average_panics() {
        let _ = psi(1, 0.0);
    }

    #[test]
    fn measured_psi_scales_down_bandwidth_hogs() {
        // An SM that consumed twice its fair share under a saturated bus.
        let p = psi_measured(200, 100.0, 1.0);
        assert!((p - (-0.5)).abs() < 1e-12);
        // And scales up an underfed one.
        let p = psi_measured(50, 100.0, 1.0);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_psi_vanishes_without_contention() {
        // Under-share relief is damped away on an idle bus...
        assert_eq!(psi_measured(50, 100.0, 0.0), 0.0);
        assert_eq!(psi_measured(0, 100.0, 1.0), 0.0);
        // ...but the over-share counterfactual cut is not: a hog would
        // saturate the bus if every SM ran like it.
        assert!((psi_measured(200, 100.0, 0.0) - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_factor_cuts_hogs_fully() {
        // 4x over fair share -> 0.25x IPC regardless of phi.
        let f = bandwidth_factor(400, 100.0, 0.2, 0.1);
        assert!((f - 0.25).abs() < 1e-12);
        let f = bandwidth_factor(200, 100.0, 0.0, 0.0);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_factor_relief_is_damped() {
        // 2x under fair share: relief needs both contention and stalls.
        assert!((bandwidth_factor(50, 100.0, 1.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((bandwidth_factor(50, 100.0, 0.5, 1.0) - 1.5).abs() < 1e-12);
        assert!((bandwidth_factor(50, 100.0, 1.0, 0.0) - 1.0).abs() < 1e-12);
        assert_eq!(bandwidth_factor(0, 100.0, 1.0, 1.0), 1.0);
    }

    #[test]
    fn explicit_psi_factor_is_clamped() {
        let scaled = |ipc: f64, phi: f64, psi: f64| scale_ipc_with_psi_audited(ipc, phi, psi).ipc;
        assert!((scaled(1.0, 1.0, 10.0) - 2.5).abs() < 1e-12);
        assert!((scaled(1.0, 1.0, -10.0) - 0.25).abs() < 1e-12);
        assert!((scaled(2.0, 0.5, 0.5) - 2.5).abs() < 1e-12);
    }
}
