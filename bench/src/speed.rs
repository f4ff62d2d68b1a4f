//! The host-speed probe: fixed work of the benchmark's own, timed next to
//! every operation and set-up, by which each time the benchmark reports is
//! scaled to a host of reference speed.
//!
//! The reference host gives the benchmark two vCPUs of a machine it shares
//! with other tenants, and its speed moves by 15-40% within seconds and
//! drifts over minutes as their load comes and goes. A run measures for
//! 20 s, so the drift moves whole runs: over ten runs of one workload,
//! unscaled latencies spread by 12-35% in busy periods, however each run
//! summarised its own samples. The probe sorts 64 Ki seeded `u32`s
//! (256 KiB: branchy, L2-resident code, as the simulator's is) in 1.2-1.9
//! ms there. Interleaved with co-run jobs for five minutes on that host,
//! the jobs' 20-s medians followed the probe's with slope 0.92 and
//! correlation 0.99, and dividing each job by the probes next to it halved
//! its job-to-job noise. Scaled this way, the ten-run spreads fell to
//! 2-6%. The probe is benchmark code: a change to the program does not
//! move it, only the host does.

use std::time::{Duration, Instant};

use gpu_sim::SimRng;

use crate::stats::median;

/// The probe time, in ms, to which every time is scaled: a round figure
/// near the probe's median on the reference host (2 vCPUs of a shared Xeon
/// at 2.0 GHz). A scaled time reads as on a host where the probe takes
/// this long.
pub const REFERENCE_PROBE_MS: f64 = 1.5;

/// Elements the probe sorts.
const PROBE_LEN: usize = 1 << 16;

/// A timed call is preceded and followed by a mark unless one was taken
/// this recently, and so is each checkpoint inside it.
const MARK_EVERY: Duration = Duration::from_millis(20);

/// The unscaled time of a call: its segments between the marks taken
/// inside it, each with its start and length in ms.
pub type Segments = Vec<(Instant, f64)>;

/// Probe times across a run.
#[derive(Debug)]
pub struct HostSpeed {
    src: Vec<u32>,
    buf: Vec<u32>,
    /// When each mark was taken, and its probe time in ms.
    marks: Vec<(Instant, f64)>,
    /// The call being timed: its closed segments and the start of its open
    /// one.
    open: Option<(Segments, Instant)>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut rng = SimRng::seed_from_u64(0x50f7_0000_0000_0001);
        let src: Vec<u32> = (0..PROBE_LEN)
            .map(|_| u32::try_from(rng.range_usize(1 << 31)).expect("below 2^31"))
            .collect();
        let mut s = Self {
            buf: src.clone(),
            src,
            marks: Vec::new(),
            open: None,
        };
        s.probe_ms();
        s
    }

    /// One probe: copy the seeded values into place and sort them.
    fn probe_ms(&mut self) -> f64 {
        let start = Instant::now();
        self.buf.copy_from_slice(&self.src);
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Whether the latest mark is older than [`MARK_EVERY`].
    fn due(&self) -> bool {
        self.marks
            .last()
            .is_none_or(|&(t, _)| t.elapsed() >= MARK_EVERY)
    }

    /// Times the probe and records it as the host's speed at this moment.
    fn mark(&mut self) {
        let ms = self.probe_ms();
        self.marks.push((Instant::now(), ms));
    }

    /// Runs `f` between speed marks and returns its result and its time.
    /// `f` may call [`Self::checkpoint`] between its parts.
    pub fn time<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Segments) {
        if self.due() {
            self.mark();
        }
        self.open = Some((Vec::new(), Instant::now()));
        let out = f(self);
        let (mut segments, start) = self.open.take().expect("the call is open");
        segments.push((start, start.elapsed().as_secs_f64() * 1e3));
        if self.due() {
            self.mark();
        }
        (out, segments)
    }

    /// Inside a long call to [`Self::time`]: marks the host's speed if a
    /// mark is due, leaving the probe's time out of the call's.
    pub fn checkpoint(&mut self) {
        if !self.due() {
            return;
        }
        if let Some((segments, start)) = &mut self.open {
            segments.push((*start, start.elapsed().as_secs_f64() * 1e3));
        }
        self.mark();
        if let Some((_, start)) = &mut self.open {
            *start = Instant::now();
        }
    }

    /// A call's time as the reference host would have taken, in ms: each
    /// segment scaled by the median probe time of the two marks before it
    /// and the two after it (fewer at either end of the run). The median
    /// keeps one probe that the host happened to interrupt from skewing
    /// a segment.
    pub fn scaled(&self, segments: &[(Instant, f64)]) -> f64 {
        segments
            .iter()
            .map(|&(at, ms)| {
                let after = self.marks.partition_point(|&(t, _)| t <= at);
                let near: Vec<f64> = self.marks
                    [after.saturating_sub(2)..(after + 2).min(self.marks.len())]
                    .iter()
                    .map(|&(_, p)| p)
                    .collect();
                if near.is_empty() {
                    return ms;
                }
                ms * REFERENCE_PROBE_MS / median(&near)
            })
            .sum()
    }

    /// The probe times of every mark, in ms.
    pub fn probe_times(&self) -> Vec<f64> {
        self.marks.iter().map(|&(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_scaled_by_the_marks_around_them() {
        let mut s = HostSpeed::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(s.scaled(&[(t0, 10.0)]), 10.0, "no marks: unscaled");
        let r = REFERENCE_PROBE_MS;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Two marks: their median (the mean) wherever the segment is.
        s.marks = vec![(at(0), 1.0), (at(1000), 3.0)];
        assert!(close(s.scaled(&[(at(500), 10.0)]), 10.0 * r / 2.0));
        assert!(close(s.scaled(&[(at(2000), 10.0)]), 10.0 * r / 2.0));
        // One interrupted probe among its neighbours does not move a
        // segment next to it; the segments of a call add up.
        s.marks = [1.0, 1.0, 9.0, 1.0, 1.0, 4.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| (at(100 * i as u64), p))
            .collect();
        assert!(close(s.scaled(&[(at(150), 10.0)]), 10.0 * r));
        assert!(close(s.scaled(&[(at(250), 10.0)]), 10.0 * r));
        assert!(close(s.scaled(&[(at(950), 10.0)]), 10.0 * r / 4.0));
        let both = s.scaled(&[(at(150), 10.0), (at(950), 10.0)]);
        assert!(close(both, 10.0 * r * (1.0 + 1.0 / 4.0)));
    }

    #[test]
    fn checkpoints_split_a_call_and_leave_the_probe_out() {
        let mut s = HostSpeed::new();
        let pause = || std::thread::sleep(Duration::from_millis(25));
        let (out, segments) = s.time(|s| {
            pause();
            s.checkpoint();
            pause();
            7
        });
        assert_eq!(out, 7);
        assert_eq!(segments.len(), 2, "{segments:?}");
        assert!(segments.iter().all(|&(_, ms)| (25.0..200.0).contains(&ms)));
        // Marks before the call, at the checkpoint and after the call.
        assert_eq!(s.probe_times().len(), 3);
        assert!(s.probe_times().iter().all(|&p| p > 0.0));
    }
}
