//! Phase-behaviour detection (Sec. IV-B).
//!
//! After a partition decision, per-kernel IPC is monitored over fixed
//! windows. If the IPC deviates from the post-decision baseline by more
//! than a threshold for several consecutive windows (a *significant and
//! sustained* change), the controller should re-enter the sampling phase
//! and re-run the partitioning algorithm.

/// Sliding-window IPC monitor for one kernel.
///
/// # Examples
///
/// ```
/// use warped_slicer::phase::PhaseMonitor;
///
/// let mut m = PhaseMonitor::new(0.3, 2);
/// assert!(!m.observe(2.0)); // establishes the baseline
/// assert!(!m.observe(0.5)); // first deviant window
/// assert!(m.observe(0.5));  // sustained -> phase change
/// ```
#[derive(Debug, Clone)]
pub struct PhaseMonitor {
    threshold: f64,
    sustain: u32,
    baseline: Option<f64>,
    deviant_windows: u32,
}

impl PhaseMonitor {
    /// Creates a monitor that triggers after `sustain` consecutive windows
    /// deviating more than `threshold` (relative) from the baseline.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive or `sustain` is zero.
    #[must_use]
    pub fn new(threshold: f64, sustain: u32) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        assert!(sustain > 0, "sustain must be at least one window");
        Self {
            threshold,
            sustain,
            baseline: None,
            deviant_windows: 0,
        }
    }

    /// Defaults matching the paper's discussion: a 30 % sustained change
    /// over at least the length of one profile run (one 5 K-cycle window).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(0.3, 2)
    }

    /// Feeds one window's IPC. Returns `true` when a significant, sustained
    /// phase change is detected; the monitor then re-arms — the baseline is
    /// cleared and re-established from the *next* observed window, so the
    /// kernel's post-trigger steady state (typically under a fresh
    /// partition) defines the new reference rather than the transition
    /// window itself.
    pub fn observe(&mut self, window_ipc: f64) -> bool {
        let Some(base) = self.baseline else {
            self.baseline = Some(window_ipc);
            return false;
        };
        let deviation = if base.abs() < f64::EPSILON {
            if window_ipc.abs() < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (window_ipc - base).abs() / base
        };
        if deviation > self.threshold {
            self.deviant_windows += 1;
            if self.deviant_windows >= self.sustain {
                // Re-arm rather than re-baseline at the transition window's
                // IPC: the trigger window is mid-transition, and using it as
                // the new reference made any settled level > threshold away
                // from it re-fire every `sustain` windows (a re-sampling
                // storm).
                self.baseline = None;
                self.deviant_windows = 0;
                return true;
            }
        } else {
            self.deviant_windows = 0;
        }
        false
    }

    /// The current baseline IPC, if established.
    #[must_use]
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_ipc_never_triggers() {
        let mut m = PhaseMonitor::new(0.3, 2);
        for _ in 0..100 {
            assert!(!m.observe(2.0));
        }
    }

    #[test]
    fn small_noise_never_triggers() {
        let mut m = PhaseMonitor::new(0.3, 2);
        let series = [2.0, 2.2, 1.9, 2.1, 1.8, 2.3, 2.0];
        for ipc in series {
            assert!(!m.observe(ipc));
        }
    }

    #[test]
    fn sustained_change_triggers_once() {
        let mut m = PhaseMonitor::new(0.3, 2);
        assert!(!m.observe(2.0)); // baseline
        assert!(!m.observe(0.5)); // first deviant window
        assert!(m.observe(0.5)); // second -> trigger
                                 // Re-armed: the next window re-establishes
                                 // the baseline, so a stable continuation is
                                 // quiet.
        assert!(!m.observe(0.5));
        assert!(!m.observe(0.52));
    }

    #[test]
    fn rearms_after_trigger_and_does_not_refire() {
        // Regression: the monitor used to re-baseline at the *trigger
        // window's* IPC instead of re-arming. A kernel settling afterwards
        // at a level > threshold away from that mid-transition value then
        // re-fired every `sustain` windows — a perpetual re-sampling storm.
        let mut m = PhaseMonitor::new(0.3, 2);
        assert!(!m.observe(2.0)); // baseline
        assert!(!m.observe(0.2)); // first deviant window
        assert!(m.observe(0.6)); // second -> trigger, re-arm
        assert_eq!(m.baseline(), None, "trigger must clear the baseline");
        // Settled level 0.8 deviates 33% from the trigger window's 0.6, so
        // the buggy monitor fired again here every two windows. The fixed
        // one re-baselines at 0.8 and stays quiet forever.
        for _ in 0..20 {
            assert!(!m.observe(0.8), "monitor re-fired after settling");
        }
        assert_eq!(m.baseline(), Some(0.8));
    }

    #[test]
    fn transient_spike_does_not_trigger() {
        let mut m = PhaseMonitor::new(0.3, 2);
        assert!(!m.observe(2.0));
        assert!(!m.observe(0.5)); // one bad window
        assert!(!m.observe(2.0)); // recovered -> counter resets
        assert!(!m.observe(0.5));
        assert!(!m.observe(2.0));
    }

    #[test]
    fn zero_baseline_handled() {
        let mut m = PhaseMonitor::new(0.3, 1);
        assert!(!m.observe(0.0));
        assert!(
            m.observe(1.0),
            "any activity after a dead window is a change"
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_rejected() {
        let _ = PhaseMonitor::new(0.0, 1);
    }
}
