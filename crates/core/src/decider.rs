//! The Sec. IV decision as one body. A [`Decider`] holds no `Gpu` and owns
//! the three rules that the online [`WarpedSlicerController`], the offline
//! [`profile_curves_planned`] and the offline-curve policies (the
//! ablation's offline water-fill, Fig. 3b's sweet spot) all drive: the
//! plan rule (`Decider::plan`: static prediction → [`SweepWindow`]), the
//! offline sample rounds (`SampleRounds`: samples in, a fallback round
//! or a finished curve out) and the decision tail
//! ([`Decider::decide`]: water-fill, fallback threshold, [`Decision`]).
//! Each rule records into an optional [`DecisionAudit`] sink and computes
//! the same result without one.
//!
//! [`WarpedSlicerController`]: crate::policy::WarpedSlicerController
//! [`profile_curves_planned`]: crate::sweep::profile_curves_planned

use gpu_sim::{GpuConfig, KernelDesc, SmConfig};
use ws_analyze::predict_kernel;

use crate::audit::{AuditEvent, DecisionAudit};
use crate::policy::Decision;
use crate::resources::ResourceVec;
use crate::sweep::{accept_pruned, SweepPlan, SweepWindow};
use crate::waterfill::{water_fill_with, KernelCurve};

/// The three decision rules. The Warped-Slicer sets them from its own
/// `predict` and `loss_threshold`; the offline-curve policies use
/// [`Decider::WITHOUT_FALLBACK`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decider {
    /// Plan each kernel's sweep from its `ws-predict` static curve; `false`
    /// plans the full `1..=N` sweep for every kernel.
    pub(crate) predict: bool,
    /// Per-kernel performance-loss threshold above which the decision falls
    /// back to spatial multitasking. `None` selects the paper's
    /// `1/K × 120 %`.
    pub(crate) loss_threshold: Option<f64>,
}

impl Decider {
    /// The offline-curve policies' Decider: full sweeps, and no fallback.
    /// Every loss is `1 − perf` with `perf` in `[0, 1]`, so a threshold of
    /// `1.0` keeps every feasible partition.
    pub const WITHOUT_FALLBACK: Self = Self {
        predict: false,
        loss_threshold: Some(1.0),
    };

    /// The plan rule: a kernel whose `ws-predict` static curve resolves
    /// gets a ±1 window around the predicted knee; a kernel the
    /// pre-flight rejects, or any kernel when prediction is off, keeps its
    /// full `1..=max` window — pruning is an optimization, never a gate.
    /// The audit gets each resolved prediction and the window it produced.
    #[must_use]
    pub(crate) fn plan(
        &self,
        descs: &[&KernelDesc],
        max_ctas: &[u32],
        cfg: &GpuConfig,
        mut audit: Option<&mut DecisionAudit>,
    ) -> SweepPlan {
        let windows = descs
            .iter()
            .zip(max_ctas)
            .enumerate()
            .map(|(kernel, (desc, &max))| {
                let curve = match self.predict.then(|| predict_kernel(desc, cfg)) {
                    Some(Ok(curve)) => curve,
                    _ => return SweepWindow::full(max),
                };
                let w = SweepWindow::around_knee(curve.knee, max);
                if let Some(audit) = audit.as_deref_mut() {
                    audit.record(AuditEvent::PredictedCurve {
                        kernel,
                        perf: curve.ipc,
                        knee: curve.knee,
                    });
                    audit.record(AuditEvent::SweepWindow {
                        kernel,
                        hi: w.hi(),
                        max: w.max(),
                    });
                }
                w
            })
            .collect();
        SweepPlan { windows }
    }

    /// The decision tail: water-fills `curves` (`curves[i][j]` =
    /// performance of `descs[i]` at `j + 1` CTAs) on one SM of `sm`,
    /// applies the fallback threshold and returns the [`Decision`] stamped
    /// `decided_at`. The audit gets the water-filling inputs, each curve,
    /// every grant, the partition and the fallback verdict, in that order.
    #[must_use]
    pub fn decide(
        &self,
        descs: &[&KernelDesc],
        sm: &SmConfig,
        curves: Vec<Vec<f64>>,
        decided_at: u64,
        mut audit: Option<&mut DecisionAudit>,
    ) -> Decision {
        let measured_curves = curves.clone();
        let kernels: Vec<KernelCurve> = descs
            .iter()
            .zip(curves)
            .map(|(desc, perf)| KernelCurve {
                perf,
                cta_cost: ResourceVec::cta_cost(desc),
            })
            .collect();
        let capacity = ResourceVec::sm_capacity(sm);
        let threshold = self.loss_threshold.unwrap_or(1.2 / descs.len() as f64);

        if let Some(audit) = audit.as_deref_mut() {
            audit.record(AuditEvent::WaterFillInputs {
                cta_costs: kernels.iter().map(|k| k.cta_cost).collect(),
                capacity,
            });
            for (kernel, k) in kernels.iter().enumerate() {
                audit.record(AuditEvent::Curve {
                    kernel,
                    perf: k.perf.clone(),
                });
            }
        }
        let partition = water_fill_with(&kernels, capacity, &mut |s| {
            if let Some(audit) = audit.as_deref_mut() {
                audit.record(AuditEvent::WaterFillStep {
                    kernel: s.kernel,
                    ctas: s.ctas,
                    perf: s.perf,
                });
            }
        });
        let fits = partition
            .as_ref()
            .is_some_and(|p| p.losses().iter().all(|&l| l <= threshold));
        if let Some(audit) = audit {
            if let Some(p) = &partition {
                audit.record(AuditEvent::WaterFillDecision {
                    quotas: p.ctas.clone(),
                    water_level: p.min_perf(),
                    predicted: p.perf.clone(),
                });
            }
            audit.record(AuditEvent::FallbackVerdict {
                threshold,
                max_loss: partition
                    .as_ref()
                    .map(|p| p.losses().into_iter().fold(f64::NEG_INFINITY, f64::max)),
                spatial: !fits,
            });
        }
        let (quotas, predicted_perf) =
            partition.map_or((None, Vec::new()), |p| (fits.then_some(p.ctas), p.perf));
        Decision {
            quotas,
            spatial_fallback: !fits,
            predicted_perf,
            decided_at,
            measured_curves,
        }
    }
}

/// One kernel's offline sample rounds: a first round over its window's
/// planned caps and, when [`accept_pruned`] rejects the window, a fallback
/// round over the CTA counts still missing. Samples are keyed by CTA count
/// and acceptance is order-insensitive, so arrival order changes nothing.
/// A failed sample closes the rounds: no acceptance and no fallback round
/// follow it.
#[derive(Debug, Clone)]
pub(crate) struct SampleRounds {
    /// The window the first round samples.
    window: SweepWindow,
    /// Samples collected so far, `(cta_count, ipc)`, in CTA order once the
    /// current round closes.
    samples: Vec<(u32, f64)>,
    /// Outstanding samples of the current round.
    pending: usize,
    /// Whether the current round is the full-sweep fallback.
    fallback: bool,
    /// Whether a sample failed.
    failed: bool,
    /// The finished full-length curve.
    curve: Option<Vec<f64>>,
    /// Whether the pruned window was accepted.
    pruned: bool,
}

impl SampleRounds {
    /// Opens the first round over `window`; returns the rounds and the CTA
    /// counts to sample.
    #[must_use]
    pub(crate) fn open(window: &SweepWindow) -> (Self, Vec<u32>) {
        let caps = window.planned_caps();
        let rounds = Self {
            window: *window,
            samples: Vec::new(),
            pending: caps.len(),
            fallback: false,
            failed: false,
            curve: None,
            pruned: false,
        };
        (rounds, caps)
    }

    /// Takes the sample at `cap`: its IPC, or `None` for a failed sample,
    /// which still closes its slot. Returns the fallback round's CTA
    /// counts, ascending, when this sample closes a rejected window;
    /// otherwise nothing. After a failed sample nothing more is returned:
    /// only a panicked job fails, and its panic is re-raised once the
    /// sweep drains, so a fallback round would only re-run it.
    pub(crate) fn sample(&mut self, cap: u32, ipc: Option<f64>) -> Vec<u32> {
        self.samples.extend(ipc.map(|ipc| (cap, ipc)));
        self.failed |= ipc.is_none();
        if !self.deliver() || self.failed {
            return Vec::new();
        }
        self.samples.sort_by_key(|&(c, _)| c);
        let mut missing = Vec::new();
        if !self.fallback {
            if let Some(curve) = accept_pruned(&self.samples, &self.window) {
                self.pruned = !self.window.is_full();
                self.curve = Some(curve);
                return missing;
            }
            self.fallback = true;
            missing = (1..=self.window.max())
                .filter(|&cap| !self.samples.iter().any(|&(c, _)| c == cap))
                .collect();
            self.pending = missing.len();
        }
        if self.pending == 0 {
            // Fully sampled: the fallback round closed, or the rejected
            // window's caps already covered `1..=max`.
            self.curve = Some(self.samples.iter().map(|&(_, v)| v).collect());
        }
        missing
    }

    /// The finished curve (empty while a round is still open) and whether
    /// the pruned window was accepted.
    #[must_use]
    pub(crate) fn finish(self) -> (Vec<f64>, bool) {
        (self.curve.unwrap_or_default(), self.pruned)
    }

    /// Accounts one delivered sample against the current round; returns
    /// whether that delivery completed the round. A delivery with nothing
    /// outstanding is a double-delivery of some (kernel, cap) result — a
    /// checked invariant, because a saturating decrement would report it
    /// as a *spurious round completion* and re-run acceptance (or
    /// re-submit a fallback) on a half-sampled round. In release builds the
    /// duplicate is dropped instead.
    fn deliver(&mut self) -> bool {
        if self.pending == 0 {
            gpu_sim::strict_assert!(
                false,
                "duplicate delivery: sweep result arrived with no round outstanding"
            );
            return false;
        }
        self.pending -= 1;
        self.pending == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliver_counts_down_and_completes_the_round_once() {
        let (mut k, _) = SampleRounds::open(&SweepWindow::full(2));
        assert!(!k.deliver(), "first of two results: round still open");
        assert!(k.deliver(), "second result completes the round");
    }

    #[test]
    fn duplicate_delivery_is_a_checked_invariant() {
        let (mut k, _) = SampleRounds::open(&SweepWindow::full(1));
        assert!(k.deliver());
        // A second delivery of the same (kernel, cap) result must not be
        // reported as another round completion: strict builds panic,
        // release builds drop the duplicate.
        if let Some(completed) = crate::strict::violation("duplicate delivery", || k.deliver()) {
            assert!(!completed);
            assert_eq!(k.pending, 0);
        }
    }

    #[test]
    fn a_failed_sample_opens_no_fallback_round() {
        // Knee 2 of 8 plans 1, 2, 3, 5, 8. The sample at 2 fails: its job
        // panicked, and re-running it and the rest of the ramp would only
        // panic again.
        let (mut k, caps) = SampleRounds::open(&SweepWindow::around_knee(2, 8));
        let fallback: Vec<u32> = caps
            .into_iter()
            .flat_map(|cap| k.sample(cap, (cap != 2).then_some(1.0)))
            .collect();
        assert_eq!(fallback, Vec::<u32>::new());
        assert_eq!(k.finish(), (Vec::new(), false));
    }
}
