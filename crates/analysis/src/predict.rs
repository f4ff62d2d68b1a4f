//! `ws-predict`: static performance prediction from the kernel IR.
//!
//! The analyzer walks the loop body once, with the launch pre-flight's
//! reaching-definition fixpoint ([`crate::dataflow`]), and abstracts each kernel into a small feature vector
//! ([`Features`]): memory intensity φ_mem from load/store density, an ILP
//! bound from the RAW dependence-distance histogram, an MLP bound (how many
//! independent global loads one warp keeps in flight), a
//! barrier-serialization factor, and the Eq. 1 occupancy-feasible CTA range
//! (the [`gpu_sim::Occupancy`] the launch pre-flight checked).
//!
//! The features are composed through an **analytic contention model** into a
//! predicted [`PerfCurve`]: IPC at every feasible CTA count, plus the
//! predicted knee (the smallest CTA count within [`KNEE_TOL`] of the curve's
//! peak — the Fig. 3a operating point Warped-Slicer's water-filling cares
//! about). The model mirrors the simulator's actual bottlenecks:
//!
//! * **per-warp issue rate** `1 / max(c_fetch, c_raw)` — the front end
//!   delivers one instruction per `fetch_latency + miss x penalty` cycles
//!   per warp, and the RAW scoreboard lets a warp cover its mix-weighted
//!   producer latency with `dep_distance` independent slots (global loads
//!   overlap only up to the per-warp MLP);
//! * **SM-wide unit caps** — scheduler issue slots and ALU / SFU / LSU
//!   initiation intervals, combined with the latency line through a p-norm
//!   soft-minimum (contention near a cap bends the curve before it clips);
//! * **shared-memory-system caps** — hard DRAM and L2 service-rate ceilings
//!   over the *post-coalescing* DRAM traffic, with a utilization-driven
//!   latency inflation feeding back into the latency line;
//! * **cache feedback** — a per-[`AccessPattern`] L1 model in which the
//!   warps of a CTA *share* sequential walks (the leader warp misses, the
//!   trailers hit) until the aggregate resident demand thrashes the L1 —
//!   the mechanism that bends cache-sensitive kernels (NN, MVP) back down
//!   past their peak.
//!
//! Predictions are *advisory*: the profiling sweep remains the ground truth,
//! and the `SweepPlan` built from a predicted knee always carries a
//! measured-guard fallback (see `warped_slicer::sweep`). The
//! `verify-predictions` binary cross-validates every suite workload's
//! predicted curve against simulated ground truth and gates the knee-hit
//! rate in CI.

use crate::diag::StaticMetrics;
use crate::rules;
use gpu_sim::{AccessPattern, GpuConfig, KernelDesc, KernelVerifyError, SmConfig};

/// Relative tolerance defining the knee: the smallest CTA count whose IPC is
/// within this fraction of the curve's peak. Shared between predicted and
/// measured curves so knee-hit accuracy compares like with like.
pub const KNEE_TOL: f64 = 0.05;

/// Light-load round-trip latency of a DRAM-serviced miss in core cycles
/// (interconnect + L2 probe + DRAM service). Queueing on top of this is the
/// `DRAM_QUEUE` inflation term.
const DRAM_LATENCY: f64 = 220.0;

/// Round-trip latency of an L2-resident miss (interconnect + L2 hit).
const L2_LATENCY: f64 = 46.0;

/// Latency of an L1 hit as seen by the consumer (LSU issue + hit latency).
const L1_HIT: f64 = 30.0;

/// Residual miss rate of a footprint that fits the L1 (cold misses,
/// conflict noise).
const RESIDENT_MISS: f64 = 0.03;

/// Fraction of the L1 usable as a working set before conflict misses set in
/// (4-way associativity pressure).
const L1_EFFECTIVE: f64 = 0.6;

/// L1 lines of residency one sequential stream needs for trailing warps to
/// keep hitting the leader's fills.
const STREAM_LINES: f64 = 2.0;

/// Drift factor of a shared sequential walk: trailers occasionally run past
/// the leader's fills, so the effective miss divisor is
/// `warps x STREAM_SHARE`, not `warps`.
const STREAM_SHARE: f64 = 1.5;

/// Exponent of the p-norm soft-minimum combining the latency line with the
/// SM unit caps.
const SOFTMIN_P: f64 = 4.0;

/// DRAM latency inflation per unit of modeled DRAM utilization.
const DRAM_QUEUE: f64 = 0.5;

/// Achievable fraction of the theoretical DRAM service rate.
const DRAM_ETA: f64 = 0.95;

/// Achievable fraction of the theoretical L2 service rate.
const L2_ETA: f64 = 0.87;

/// Per-warp cost multiplier applied to a barrier instruction per extra warp
/// it synchronizes.
const BARRIER_COST: f64 = 0.5;

/// Fixed-point iterations of the DRAM-utilization feedback loop.
const FEEDBACK_ITERS: u32 = 4;

/// The static feature vector the abstract interpretation derives for one
/// kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// The shared mix/dataflow/occupancy metrics (also reported by
    /// `--analyze`).
    pub metrics: StaticMetrics,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Eq. 1 occupancy-feasible CTA range: `1..=max_ctas`.
    pub max_ctas: u32,
    /// Per-resource Eq. 1 quotas (threads / registers / shared memory / CTA
    /// slots), `u32::MAX` where a resource never binds.
    pub max_ctas_by: [u32; 4],
    /// Memory intensity: fraction of issue slots that are global memory
    /// instructions (the static analogue of the paper's φ_mem).
    pub phi_mem: f64,
    /// Independent instructions one warp keeps in flight, bounded by the
    /// dominant RAW dependence distance.
    pub ilp: f64,
    /// Independent global loads one warp keeps in flight: loads spaced
    /// closer than the dependence distance overlap, everything else
    /// serializes on the consumer.
    pub mlp: f64,
    /// Throughput multiplier (`<= 1`) from barrier serialization across the
    /// CTA's warps.
    pub barrier_eff: f64,
    /// Memory transactions per warp instruction when every access misses.
    pub traffic_per_inst: f64,
}

/// A predicted IPC-vs-CTA curve.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCurve {
    /// `ipc[i]` is the predicted per-SM IPC with `i + 1` resident CTAs;
    /// the length is the Eq. 1 feasible maximum.
    pub ipc: Vec<f64>,
    /// Predicted knee: smallest CTA count within [`KNEE_TOL`] of the peak.
    pub knee: u32,
}

impl PerfCurve {
    /// Number of feasible CTA counts the curve covers.
    #[must_use]
    pub fn max_ctas(&self) -> u32 {
        u32::try_from(self.ipc.len()).unwrap_or(u32::MAX)
    }
}

/// The knee of an IPC-vs-CTA curve (`curve[i]` = IPC at `i + 1` CTAs): the
/// smallest CTA count whose IPC is within [`KNEE_TOL`] of the peak. An
/// empty or all-zero curve has its knee at 1 CTA.
#[must_use]
pub fn knee_of(curve: &[f64]) -> u32 {
    let peak = curve.iter().copied().fold(0.0_f64, f64::max);
    if peak <= 0.0 {
        return 1;
    }
    let threshold = (1.0 - KNEE_TOL) * peak;
    curve
        .iter()
        .position(|&p| p >= threshold)
        .and_then(|i| u32::try_from(i + 1).ok())
        .unwrap_or(1)
}

/// Extracts the static feature vector for one kernel.
///
/// Gated on the launch pre-flight: a kernel the simulator would reject (or
/// execute meaninglessly) has no performance to predict, so the pre-flight
/// error is surfaced instead of a garbage curve. The Eq. 1 evaluation the
/// pre-flight checked is the feature vector's occupancy range, and the
/// body's kept walk ([`gpu_sim::Program::flow`]) is its dataflow and op mix.
pub fn extract_features(desc: &KernelDesc, cfg: &GpuConfig) -> Result<Features, KernelVerifyError> {
    let occupancy = gpu_sim::verify::preflight(desc, &cfg.sm)?;
    let metrics = rules::compute_metrics(desc, &occupancy, desc.program.flow());
    let (max_ctas_by, max_ctas) = (metrics.max_ctas_by, metrics.max_ctas);
    let warps_per_cta = desc.warps_per_cta();

    // ILP: the generator's primary dependence chain spaces producer and
    // consumer `dominant_raw_distance` slots apart, so that many
    // instructions are independent and schedulable back to back.
    let body_len = metrics.body_len.max(1);
    let dominant = metrics
        .dominant_raw_distance
        .or(metrics.median_raw_distance)
        .unwrap_or(body_len);
    let ilp = clampf(to_f64(dominant), 1.0, 32.0);

    // MLP: a warp issues past a pending load only within the dependence
    // window, so a second load overlaps only if the inter-load gap
    // (`1 / gload_frac` slots) fits inside it: in-flight loads per warp
    // `= max(1, ilp x gload_frac)`.
    let mlp = if metrics.gload_frac > 0.0 {
        (ilp * metrics.gload_frac).max(1.0)
    } else {
        0.0
    };

    // Barriers make every warp in the CTA wait for the slowest sibling; the
    // cost grows with the number of warps synchronized.
    let extra_warps = f64::from(warps_per_cta.saturating_sub(1));
    let barrier_eff = 1.0 / (1.0 + metrics.barrier_frac * extra_warps * BARRIER_COST);

    Ok(Features {
        phi_mem: metrics.gload_frac + metrics.gstore_frac,
        traffic_per_inst: metrics.global_traffic,
        metrics,
        warps_per_cta,
        max_ctas,
        max_ctas_by,
        ilp,
        mlp,
        barrier_eff,
    })
}

/// Composes the features through the analytic contention model into a
/// predicted curve over the feasible CTA range.
#[must_use]
pub fn predict_curve(features: &Features, desc: &KernelDesc, cfg: &GpuConfig) -> PerfCurve {
    let ipc: Vec<f64> = (1..=features.max_ctas)
        .map(|n| predict_ipc(features, desc, cfg, n))
        .collect();
    let knee = knee_of(&ipc);
    PerfCurve { ipc, knee }
}

/// Predicts one kernel end to end: pre-flight gate, feature extraction, and
/// the contention model.
pub fn predict_kernel(desc: &KernelDesc, cfg: &GpuConfig) -> Result<PerfCurve, KernelVerifyError> {
    let features = extract_features(desc, cfg)?;
    Ok(predict_curve(&features, desc, cfg))
}

/// The L1 behaviour of one kernel at `n` resident CTAs, produced by
/// [`miss_profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissProfile {
    /// Effective L1 misses per global access (after shared-walk
    /// coalescing: trailing warps hit the leader's fills).
    pub l1_miss: f64,
    /// Of those L1 misses, the fraction serviced by the L2 (the rest go to
    /// DRAM).
    pub l2_hit: f64,
}

/// The per-pattern L1/L2 model at `n` resident CTAs.
///
/// This is where CTA count feeds back into per-access cost. Two mechanisms
/// matter: (1) warps of a CTA share sequential walks (Streaming / Tiled /
/// the HotCold cold stream), so only the leading warp misses — *until* the
/// aggregate resident demand (stream windows + reused footprints) exceeds
/// the effective L1 capacity and the sharing collapses; (2) bounded reused
/// footprints grow with `n` and thrash. Both produce the cache-sensitive
/// archetype's mid-curve peak.
#[must_use]
pub fn miss_profile(desc: &KernelDesc, cfg: &GpuConfig, n: u32) -> MissProfile {
    let l1_lines = f64::from(cfg.l1.size_bytes / cfg.l1.line_bytes.max(1)) * L1_EFFECTIVE;
    let l2_lines = total_l2_lines(cfg);
    let n = f64::from(n.max(1));
    let warps = f64::from(desc.warps_per_cta().max(1));
    let share = warps * STREAM_SHARE;
    match desc.pattern {
        // One sequential walk per CTA, shared by its warps: the leader
        // misses every line, trailers hit while the walk windows stay
        // resident. Far too large for any cache: L2 misses too.
        AccessPattern::Streaming { .. } => {
            let resident = (l1_lines / (n * warps * STREAM_LINES)).min(1.0);
            MissProfile {
                l1_miss: mix(1.0 / share, 1.0, resident),
                l2_hit: 0.0,
            }
        }
        // Independent uniformly random draws over a kernel-shared
        // footprint: no sharing benefit, hit rate is pure residency.
        AccessPattern::Random {
            footprint_lines, ..
        } => {
            let footprint = u64_to_f64(footprint_lines).max(1.0);
            MissProfile {
                l1_miss: (1.0 - l1_lines / footprint).max(RESIDENT_MISS),
                l2_hit: (l2_lines / footprint).min(1.0),
            }
        }
        // A resident tile hits `reuse - 1` of its `reuse` passes and the
        // tile walk is shared across the CTA's warps; tiles of co-resident
        // CTAs competing past the L1 degrade toward miss-per-pass. Spilled
        // tiles are L2-resident.
        AccessPattern::Tiled {
            tile_lines, reuse, ..
        } => {
            let reuse = f64::from(reuse.max(1));
            let demand = n * warps * STREAM_LINES + n * f64::from(tile_lines.max(1));
            let resident = (l1_lines / demand).min(1.0);
            let shared_base = 1.0 / reuse / share;
            MissProfile {
                l1_miss: mix(shared_base, 1.0 / reuse, resident),
                l2_hit: 1.0,
            }
        }
        // Random draws over private-per-CTA plus kernel-shared footprints:
        // the private demand scales with `n`; spills stay L2-resident.
        AccessPattern::BoundedFootprint {
            private_lines,
            shared_lines,
            shared_frac,
            ..
        } => {
            let shared_frac = clampf(shared_frac, 0.0, 1.0);
            let demand = n * f64::from(private_lines.max(1)) * (1.0 - shared_frac)
                + u64_to_f64(shared_lines.max(1)) * shared_frac;
            let resident = (l1_lines / demand).min(1.0);
            MissProfile {
                l1_miss: mix(RESIDENT_MISS, 1.0, resident),
                l2_hit: 1.0,
            }
        }
        // Reused hot lines plus a shared sequential cold stream. The cold
        // stream behaves like Streaming (leader-miss, DRAM-bound); the hot
        // set behaves like a bounded footprint (L2-resident spills). Both
        // compete for the same L1.
        AccessPattern::HotCold {
            hot_lines,
            hot_frac,
            ..
        } => {
            let hot_frac = clampf(hot_frac, 0.0, 1.0);
            let demand = n * warps * STREAM_LINES + n * f64::from(hot_lines.max(1));
            let resident = (l1_lines / demand).min(1.0);
            let cold = (1.0 - hot_frac) * mix(1.0 / share, 1.0, resident);
            let hot = hot_frac * mix(RESIDENT_MISS, 1.0, resident);
            let miss = cold + hot;
            MissProfile {
                l1_miss: miss,
                l2_hit: if miss > 0.0 { hot / miss } else { 0.0 },
            }
        }
    }
}

/// The contention model at one operating point: predicted per-SM IPC with
/// `n` resident CTAs.
#[must_use]
pub fn predict_ipc(features: &Features, desc: &KernelDesc, cfg: &GpuConfig, n: u32) -> f64 {
    let m = &features.metrics;
    let sm = &cfg.sm;
    let warps = f64::from(n) * f64::from(features.warps_per_cta);
    let schedulers = f64::from(sm.num_schedulers.max(1));
    let profile = miss_profile(desc, cfg, n);
    let tx = f64::from(desc.pattern.transactions());

    // Front end: one instruction per warp per fetch round trip.
    let c_fetch = f64::from(sm.fetch_latency.max(1))
        + desc.icache_miss_rate * f64::from(sm.icache_miss_penalty);

    // Execution-unit occupancy cycles per warp instruction (each scheduler
    // owns one ALU / SFU / LSU pipe).
    let warp_size = f64::from(SmConfig::WARP_SIZE);
    let alu_occ = warp_size / f64::from(sm.simt_width.max(1));
    let sfu_occ = warp_size / f64::from(sm.sfu_width.max(1));
    let conflict = f64::from(desc.shmem_conflict_degree.max(1));
    let gmem_occ = tx.max(2.0);
    let shmem_occ = 2.0 * conflict;
    let lsu_demand = (m.gload_frac + m.gstore_frac) * gmem_occ + m.shmem_frac * shmem_occ;

    // SM-wide throughput caps (warp instructions per cycle).
    let issue_cap = schedulers;
    let alu_cap = per_frac(schedulers / alu_occ, m.alu_frac);
    let sfu_cap = per_frac(schedulers / sfu_occ, m.sfu_frac);
    let lsu_cap = per_frac(schedulers, lsu_demand);

    // Shared-memory-system service rates (per SM, per cycle).
    let num_sms = f64::from(cfg.num_sms.max(1));
    let burst = f64::from(cfg.mem.timing.t_burst.max(1)) * cfg.core_per_dram_clock();
    let dram_rate = DRAM_ETA * f64::from(cfg.mem.num_channels.max(1)) / burst;
    let l2_rate = L2_ETA * f64::from(cfg.mem.num_channels.max(1)) / num_sms;
    let l2_per_inst = features.phi_mem * tx * profile.l1_miss;
    let dram_per_inst = l2_per_inst * (1.0 - profile.l2_hit);
    let l2_cap = per_frac(l2_rate, l2_per_inst);

    // RAW latency per warp, with the DRAM-utilization feedback: higher
    // predicted throughput -> higher DRAM utilization -> longer miss
    // latency -> lower latency-line throughput. A few damped iterations
    // converge.
    let shmem_lat = f64::from(sm.shmem_latency) + 2.0 * (conflict - 1.0);
    let l_nonload = m.alu_frac * f64::from(sm.alu_latency)
        + m.sfu_frac * f64::from(sm.sfu_latency)
        + m.shmem_frac * shmem_lat;
    let mut ipc = 0.0;
    for _ in 0..FEEDBACK_ITERS {
        let util = if dram_rate > 0.0 {
            (ipc * dram_per_inst * num_sms / (dram_rate * num_sms)).min(1.0)
        } else {
            0.0
        };
        let dram_lat = DRAM_LATENCY * (1.0 + DRAM_QUEUE * util / (1.0 - 0.9 * util));
        let l_load = (1.0 - profile.l1_miss) * L1_HIT
            + profile.l1_miss * (profile.l2_hit * L2_LATENCY + (1.0 - profile.l2_hit) * dram_lat);
        let c_raw = l_nonload / features.ilp + m.gload_frac * l_load / features.mlp.max(1.0);
        let line = warps / c_fetch.max(c_raw);

        // Soft-minimum of the latency line and the pipe caps: contention
        // bends the curve as a bound is approached, it does not clip.
        let core = soft_min(&[line, issue_cap, alu_cap, sfu_cap, lsu_cap]);

        // Hard shared-system ceilings: DRAM service on post-coalescing
        // traffic, L2 service on every L1 miss, and MSHR occupancy
        // (Little's law over in-flight misses).
        let dram_cap = per_frac(dram_rate / num_sms, dram_per_inst);
        let mshr_cap = if l2_per_inst > 0.0 {
            let outstanding =
                f64::from(cfg.l1.mshr_entries).min(warps * features.mlp.max(1.0) * tx);
            let lat = profile.l2_hit * L2_LATENCY + (1.0 - profile.l2_hit) * dram_lat;
            outstanding / lat / l2_per_inst
        } else {
            f64::INFINITY
        };

        let next = core.min(dram_cap).min(l2_cap).min(mshr_cap).max(0.0) * features.barrier_eff;
        ipc = 0.5 * (ipc + next);
    }
    ipc
}

/// `limit / frac`, unbounded when the kernel never exercises the resource.
fn per_frac(limit: f64, frac: f64) -> f64 {
    if frac > 0.0 {
        limit / frac
    } else {
        f64::INFINITY
    }
}

/// p-norm soft-minimum: close to `min` but bends as bounds converge.
fn soft_min(bounds: &[f64]) -> f64 {
    let sum: f64 = bounds
        .iter()
        .filter(|b| b.is_finite() && **b > 0.0)
        .map(|b| b.powf(-SOFTMIN_P))
        .sum();
    if sum > 0.0 {
        sum.powf(-1.0 / SOFTMIN_P)
    } else {
        0.0
    }
}

/// Linear blend from `fit` (fully resident) to `spill` as residency drops.
fn mix(fit: f64, spill: f64, resident: f64) -> f64 {
    spill + (fit - spill) * resident
}

/// Total L2 capacity in lines across all channels.
fn total_l2_lines(cfg: &GpuConfig) -> f64 {
    f64::from(cfg.l2.size_bytes_per_channel / cfg.l2.line_bytes.max(1))
        * f64::from(cfg.mem.num_channels.max(1))
}

/// `usize -> f64` without a lossy `as` cast.
fn to_f64(v: usize) -> f64 {
    u64_to_f64(u64::try_from(v).unwrap_or(u64::MAX))
}

/// `u64 -> f64` without a lossy `as` cast: exact below 2^53 (every count
/// this module produces), monotone above.
fn u64_to_f64(v: u64) -> f64 {
    let hi = u32::try_from(v >> 32).unwrap_or(u32::MAX);
    let lo = u32::try_from(v & 0xFFFF_FFFF).unwrap_or(u32::MAX);
    f64::from(hi) * 4_294_967_296.0 + f64::from(lo)
}

fn clampf(v: f64, lo: f64, hi: f64) -> f64 {
    v.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::{by_abbrev, suite, ScalingArchetype};

    fn cfg() -> GpuConfig {
        GpuConfig::isca_baseline()
    }

    #[test]
    fn knee_of_handles_degenerate_curves() {
        assert_eq!(knee_of(&[]), 1);
        assert_eq!(knee_of(&[0.0, 0.0]), 1);
        assert_eq!(knee_of(&[1.0]), 1);
        // Monotone rise: knee at the first point within 5% of the peak.
        assert_eq!(knee_of(&[1.0, 2.0, 3.0, 3.9, 4.0]), 4);
        // Peak-then-degrade: knee at the peak, not the tail.
        assert_eq!(knee_of(&[1.0, 4.0, 2.0, 1.5]), 2);
    }

    #[test]
    fn features_gate_on_the_preflight() {
        let mut d = by_abbrev("BLK").unwrap().desc;
        d.grid_ctas = 0;
        let err = extract_features(&d, &cfg()).unwrap_err();
        assert_eq!(err.rule(), "zero-grid");
        assert!(predict_kernel(&d, &cfg()).is_err());
    }

    #[test]
    fn curves_cover_the_feasible_range_and_are_positive() {
        for b in suite() {
            let curve = predict_kernel(&b.desc, &cfg()).unwrap();
            assert_eq!(
                curve.max_ctas(),
                b.max_ctas_baseline(),
                "{}: curve length is the Eq. 1 range",
                b.abbrev
            );
            assert!(
                curve.ipc.iter().all(|&p| p > 0.0 && p.is_finite()),
                "{}: positive finite IPC",
                b.abbrev
            );
            assert!(curve.knee >= 1 && curve.knee <= curve.max_ctas());
        }
    }

    /// The calibration contract: predicted knees stay within +-1 CTA of the
    /// simulated ground truth recorded by `verify-predictions` (40k-cycle
    /// isolation sweeps under the ISCA baseline). This pins model quality
    /// without running simulations.
    #[test]
    fn predicted_knees_track_simulated_ground_truth() {
        let measured = [
            ("BLK", 4),
            ("BFS", 2),
            ("DXT", 8),
            ("HOT", 6),
            ("IMG", 6),
            ("KNN", 2),
            ("LBM", 7),
            ("MM", 4),
            ("MVP", 2),
            ("NN", 3),
        ];
        let mut misses = Vec::new();
        for (abbrev, knee) in measured {
            let b = by_abbrev(abbrev).unwrap();
            let c = predict_kernel(&b.desc, &cfg()).unwrap();
            if c.knee.abs_diff(knee) > 1 {
                misses.push(format!("{abbrev}: predicted {} vs measured {knee}", c.knee));
            }
        }
        assert!(
            misses.len() <= 2,
            "knee-hit rate must stay >= 80%: {misses:?}"
        );
    }

    #[test]
    fn cache_sensitive_curves_peak_below_the_occupancy_limit() {
        // MVP's cold-stream sharing collapses once co-resident CTAs thrash
        // the L1: the predicted curve must degrade past its peak. NN's
        // spills stay L2-resident so the predicted tail merely flattens,
        // but its knee must still land well below the Eq. 1 limit.
        let mvp = predict_kernel(&by_abbrev("MVP").unwrap().desc, &cfg()).unwrap();
        let peak = mvp.ipc.iter().copied().fold(0.0_f64, f64::max);
        let last = mvp.ipc.last().copied().unwrap_or(0.0);
        assert!(last < peak, "MVP: tail {last} should sit below peak {peak}");

        let nn = by_abbrev("NN").unwrap();
        assert_eq!(nn.archetype, ScalingArchetype::CacheSensitive);
        let nn_curve = predict_kernel(&nn.desc, &cfg()).unwrap();
        assert!(
            nn_curve.knee + 2 <= nn_curve.max_ctas(),
            "NN: knee {} should sit well below the occupancy limit {}",
            nn_curve.knee,
            nn_curve.max_ctas()
        );
    }

    #[test]
    fn miss_profile_is_monotone_for_private_footprints() {
        let d = by_abbrev("NN").unwrap().desc;
        let c = cfg();
        let rates: Vec<f64> = (1..=8).map(|n| miss_profile(&d, &c, n).l1_miss).collect();
        for pair in rates.windows(2) {
            if let [a, b] = pair {
                assert!(b >= a, "miss rate must not drop with more CTAs: {rates:?}");
            }
        }
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn phi_mem_tracks_the_instruction_mix() {
        let lbm = extract_features(&by_abbrev("LBM").unwrap().desc, &cfg()).unwrap();
        let img = extract_features(&by_abbrev("IMG").unwrap().desc, &cfg()).unwrap();
        assert!(
            lbm.phi_mem > img.phi_mem,
            "LBM ({}) is more memory-intense than IMG ({})",
            lbm.phi_mem,
            img.phi_mem
        );
        assert!(lbm.mlp >= 1.0);
        assert!((0.0..=1.0).contains(&img.barrier_eff));
    }
}
