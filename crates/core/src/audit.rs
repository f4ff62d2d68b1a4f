//! ws-trace decision-audit channel: a structured record of *why* the
//! Warped-Slicer controller partitioned the way it did.
//!
//! Where [`gpu_sim::trace`] records what the simulator *did* (CTA
//! lifecycle, fills, fast-forward jumps), this channel records what the
//! policy *decided* and from which inputs: every Eq. 2-4 scaling
//! application with its `φ_mem`/`ψ` inputs and clamp verdict, the curves
//! handed to the water-filling partitioner together with the CTA costs and
//! SM capacity, each Algorithm 1 grant, the chosen water level and quota
//! vector, the `1/K × 120 %` fallback verdict, and the phase monitor's
//! baseline/deviation history.
//!
//! The audit is recorded only at decision points (profile end, phase-monitor
//! windows), never per tick, and only when
//! [`WarpedSlicerConfig::audit`](crate::policy::WarpedSlicerConfig) is set —
//! the run path is unaffected otherwise. A recorded audit is *sufficient to
//! replay the decision*: [`DecisionAudit::replay_water_fill`] re-runs
//! Algorithm 1 from the recorded inputs and must reproduce the recorded
//! quota vector (a property the test suite pins).

use crate::resources::ResourceVec;
use crate::scaling::ScaleOutcome;
use crate::waterfill::{water_fill, KernelCurve, Partition};

/// One decision-level audit record.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// Eq. 2-4 scaling applied to one raw profile sample.
    ScaledPoint {
        /// Kernel slot the sample measures.
        kernel: usize,
        /// CTA count the profiled SM was holding.
        ctas: u32,
        /// Raw sampled IPC before correction.
        ipc_sampled: f64,
        /// Fraction of scheduler-cycles lost to long memory latency.
        phi_mem: f64,
        /// The `ψ` input used (Eq. 4 CTA ratio, or the measured-bandwidth
        /// equivalent when DRAM evidence was available).
        psi: f64,
        /// The factor applied, its pre-clamp value, and the clamp verdict.
        outcome: ScaleOutcome,
    },
    /// The partitioner's resource inputs (recorded once per decision,
    /// before the per-kernel curves).
    WaterFillInputs {
        /// Per-kernel single-CTA resource footprints.
        cta_costs: Vec<ResourceVec>,
        /// The SM capacity partitioned (Eq. 1 right-hand side).
        capacity: ResourceVec,
    },
    /// One kernel's scaled performance-vs-CTA curve as handed to the
    /// partitioner.
    Curve {
        /// Kernel slot.
        kernel: usize,
        /// `perf[j]` is the predicted performance with `j + 1` CTAs.
        perf: Vec<f64>,
    },
    /// One Algorithm 1 grant (the water-filling main loop raising the
    /// currently-worst lane).
    WaterFillStep {
        /// Kernel whose lane was raised.
        kernel: usize,
        /// The lane's CTA total after the grant.
        ctas: u32,
        /// The lane's normalized performance after the grant.
        perf: f64,
    },
    /// The water-filling answer.
    WaterFillDecision {
        /// The chosen quota vector `(T_1..T_K)`.
        quotas: Vec<u32>,
        /// The water level: the minimum normalized performance achieved.
        water_level: f64,
        /// Per-kernel normalized performance at the chosen quotas.
        predicted: Vec<f64>,
    },
    /// The fallback-threshold test (Sec. IV: fall back to spatial
    /// multitasking when any kernel's predicted loss exceeds `1/K × 120 %`).
    FallbackVerdict {
        /// The per-kernel loss threshold in force.
        threshold: f64,
        /// The largest predicted loss (`None` when partitioning was
        /// infeasible and there was nothing to compare).
        max_loss: Option<f64>,
        /// Whether the controller fell back to spatial multitasking.
        spatial: bool,
    },
    /// One kernel's `ws-predict` static curve, recorded when the
    /// controller used prediction to plan its profiling sweep. Distinct
    /// from [`AuditEvent::Curve`] (the *sampled* curve handed to the
    /// partitioner), so predicted-vs-sampled comparisons are replayable
    /// from one audit.
    PredictedCurve {
        /// Kernel slot.
        kernel: usize,
        /// `perf[j]` is the predicted IPC with `j + 1` CTAs.
        perf: Vec<f64>,
        /// The predicted performance knee (CTA count).
        knee: u32,
    },
    /// The profiling window the controller chose for one kernel from its
    /// static prediction (dense sampling `1..=hi` out of `1..=max`).
    SweepWindow {
        /// Kernel slot.
        kernel: usize,
        /// Last densely sampled CTA count.
        hi: u32,
        /// The kernel's Eq. 1 feasibility bound.
        max: u32,
    },
    /// A ws-store warm hit: the controller found a memoized performance
    /// curve for this kernel and skipped its profiling sweep. The recorded
    /// curve is the one handed to the partitioner, so warm decisions stay
    /// replayable from the audit alone.
    StoreHit {
        /// Kernel slot.
        kernel: usize,
        /// The kernel-signature half of the [`CurveKey`](crate::store::CurveKey).
        sig: u64,
        /// The memoized curve (`perf[j]` = performance with `j + 1` CTAs).
        perf: Vec<f64>,
    },
    /// A ws-store miss: no memoized curve for this kernel signature, so
    /// the cold profiling path ran (and inserted its accepted curve).
    StoreMiss {
        /// Kernel slot.
        kernel: usize,
        /// The kernel-signature half of the [`CurveKey`](crate::store::CurveKey).
        sig: u64,
    },
    /// A ws-store invalidation: a phase-monitor trigger removed exactly
    /// this kernel's memoized curve before the re-profile.
    StoreInvalidate {
        /// Kernel slot.
        kernel: usize,
        /// The kernel-signature half of the [`CurveKey`](crate::store::CurveKey).
        sig: u64,
    },
    /// One phase-monitor window observation for one kernel.
    PhaseSample {
        /// Kernel slot.
        kernel: usize,
        /// Core cycle at which the window closed.
        cycle: u64,
        /// The window's IPC.
        ipc: f64,
        /// The baseline the deviation was measured against (`None` while
        /// the monitor was re-arming).
        baseline: Option<f64>,
        /// Whether this window triggered a re-profile.
        triggered: bool,
    },
}

/// The accumulated audit of one controller's decision process, in recording
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionAudit {
    /// Events in the order they were recorded.
    pub events: Vec<AuditEvent>,
}

impl DecisionAudit {
    /// Appends one event.
    pub fn record(&mut self, event: AuditEvent) {
        self.events.push(event);
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent recorded quota vector, if a feasible partition was
    /// ever chosen.
    #[must_use]
    pub fn last_quotas(&self) -> Option<&[u32]> {
        self.events.iter().rev().find_map(|e| match e {
            AuditEvent::WaterFillDecision { quotas, .. } => Some(quotas.as_slice()),
            _ => None,
        })
    }

    /// The most recent `ws-predict` curve recorded for kernel `kernel`
    /// (the predicted IPC-vs-CTA points and the predicted knee), if the
    /// controller planned its sweep from a prediction.
    #[must_use]
    pub fn predicted_curve(&self, kernel: usize) -> Option<(&[f64], u32)> {
        self.events.iter().rev().find_map(|e| match e {
            AuditEvent::PredictedCurve {
                kernel: k,
                perf,
                knee,
            } if *k == kernel => Some((perf.as_slice(), *knee)),
            _ => None,
        })
    }

    /// Scaled-point records for kernel `kernel` (sampled vs. scaled IPC
    /// with the `φ_mem`/`ψ` inputs), in recording order.
    pub fn scaled_points(&self, kernel: usize) -> impl Iterator<Item = &AuditEvent> {
        self.events
            .iter()
            .filter(move |e| matches!(e, AuditEvent::ScaledPoint { kernel: k, .. } if *k == kernel))
    }

    /// Replays the most recent recorded decision: rebuilds the
    /// [`KernelCurve`]s from the last [`AuditEvent::WaterFillInputs`] and
    /// the [`AuditEvent::Curve`]s recorded with it, and re-runs Algorithm 1.
    /// Returns `None` when the audit holds no complete decision.
    ///
    /// The trace-sufficiency contract: for any recorded decision,
    /// `replay_water_fill().map(|p| p.ctas)` equals the recorded
    /// [`AuditEvent::WaterFillDecision`] quota vector.
    #[must_use]
    pub fn replay_water_fill(&self) -> Option<Partition> {
        let start = self
            .events
            .iter()
            .rposition(|e| matches!(e, AuditEvent::WaterFillInputs { .. }))?;
        let tail = self.events.get(start..)?;
        let Some(AuditEvent::WaterFillInputs {
            cta_costs,
            capacity,
        }) = tail.first()
        else {
            return None;
        };
        let mut curves: Vec<Option<Vec<f64>>> = vec![None; cta_costs.len()];
        for e in tail {
            if let AuditEvent::Curve { kernel, perf } = e {
                if let Some(slot) = curves.get_mut(*kernel) {
                    *slot = Some(perf.clone());
                }
            }
        }
        let kernels: Vec<KernelCurve> = cta_costs
            .iter()
            .zip(curves)
            .map(|(&cta_cost, perf)| perf.map(|perf| KernelCurve { perf, cta_cost }))
            .collect::<Option<_>>()?;
        water_fill(&kernels, *capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> ResourceVec {
        ResourceVec {
            regs: 2048,
            shmem: 0,
            threads: 128,
            ctas: 1,
        }
    }

    fn capacity() -> ResourceVec {
        ResourceVec {
            regs: 32768,
            shmem: 48 * 1024,
            threads: 1536,
            ctas: 8,
        }
    }

    #[test]
    fn property_replay_matches_water_fill_on_random_curves() {
        // Trace-sufficiency, fuzzed: for any recorded (inputs, curves,
        // decision) triple, replaying Algorithm 1 from the audit alone must
        // reproduce the recorded quota vector.
        let mut rng = gpu_sim::SimRng::seed_from_u64(0xa0d17);
        let mut replayed_decisions = 0;
        for _ in 0..100 {
            let k = 2 + (rng.next_u64() % 2) as usize;
            let kernels: Vec<KernelCurve> = (0..k)
                .map(|_| {
                    let len = 3 + (rng.next_u64() % 6) as usize;
                    KernelCurve {
                        perf: (0..len)
                            .map(|_| (1 + rng.next_u64() % 1000) as f64 / 1000.0)
                            .collect(),
                        cta_cost: ResourceVec {
                            regs: 1024 * (1 + rng.next_u64() % 8),
                            shmem: 4096 * (rng.next_u64() % 4),
                            threads: 64 * (1 + rng.next_u64() % 6),
                            ctas: 1,
                        },
                    }
                })
                .collect();
            let mut a = DecisionAudit::default();
            a.record(AuditEvent::WaterFillInputs {
                cta_costs: kernels.iter().map(|c| c.cta_cost).collect(),
                capacity: capacity(),
            });
            for (i, c) in kernels.iter().enumerate() {
                a.record(AuditEvent::Curve {
                    kernel: i,
                    perf: c.perf.clone(),
                });
            }
            let Some(p) = water_fill(&kernels, capacity()) else {
                assert!(
                    a.replay_water_fill().is_none(),
                    "infeasible partitions have no decision to replay"
                );
                continue;
            };
            a.record(AuditEvent::WaterFillDecision {
                quotas: p.ctas.clone(),
                water_level: p.min_perf(),
                predicted: p.perf.clone(),
            });
            let replayed = a.replay_water_fill().expect("decision is complete");
            assert_eq!(replayed.ctas.as_slice(), a.last_quotas().unwrap());
            assert_eq!(replayed.ctas, p.ctas);
            replayed_decisions += 1;
        }
        assert!(replayed_decisions > 50, "feasible cases dominate the fuzz");
    }

    #[test]
    fn empty_audit_has_no_decision() {
        let a = DecisionAudit::default();
        assert!(a.is_empty());
        assert_eq!(a.last_quotas(), None);
        assert!(a.replay_water_fill().is_none());
    }

    #[test]
    fn replay_reproduces_the_recorded_quotas() {
        let mut a = DecisionAudit::default();
        a.record(AuditEvent::WaterFillInputs {
            cta_costs: vec![cost(), cost()],
            capacity: capacity(),
        });
        a.record(AuditEvent::Curve {
            kernel: 0,
            perf: vec![0.25, 0.5, 0.75, 1.0],
        });
        a.record(AuditEvent::Curve {
            kernel: 1,
            perf: vec![0.9, 1.0, 0.6, 0.4],
        });
        // The recorded answer for these curves under this capacity.
        let expected = water_fill(
            &[
                KernelCurve {
                    perf: vec![0.25, 0.5, 0.75, 1.0],
                    cta_cost: cost(),
                },
                KernelCurve {
                    perf: vec![0.9, 1.0, 0.6, 0.4],
                    cta_cost: cost(),
                },
            ],
            capacity(),
        )
        .expect("feasible");
        a.record(AuditEvent::WaterFillDecision {
            quotas: expected.ctas.clone(),
            water_level: expected.min_perf(),
            predicted: expected.perf.clone(),
        });
        let replayed = a.replay_water_fill().expect("complete decision");
        assert_eq!(replayed.ctas.as_slice(), a.last_quotas().unwrap());
    }

    #[test]
    fn incomplete_decision_does_not_replay() {
        let mut a = DecisionAudit::default();
        a.record(AuditEvent::WaterFillInputs {
            cta_costs: vec![cost(), cost()],
            capacity: capacity(),
        });
        a.record(AuditEvent::Curve {
            kernel: 0,
            perf: vec![1.0],
        });
        // Kernel 1's curve is missing.
        assert!(a.replay_water_fill().is_none());
    }

    #[test]
    fn scaled_points_filter_by_kernel() {
        let mut a = DecisionAudit::default();
        for kernel in [0usize, 1, 0] {
            a.record(AuditEvent::ScaledPoint {
                kernel,
                ctas: 1,
                ipc_sampled: 1.0,
                phi_mem: 0.5,
                psi: 0.0,
                outcome: crate::scaling::scale_ipc_with_psi_audited(1.0, 0.5, 0.0),
            });
        }
        assert_eq!(a.scaled_points(0).count(), 2);
        assert_eq!(a.scaled_points(1).count(), 1);
    }
}
