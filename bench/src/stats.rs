//! Sample statistics and the regression rule `compare` applies.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread this crate reports is the
//! spread any external check computes from the same values.

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartiles, as `statistics.quantiles(xs, n=4)` gives
/// them. `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (`None` with fewer than
/// two samples or a zero median).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// How far `new`'s median moved from `base`'s, as a share of `base`'s
/// median, signed so that a positive value is a worsening.
pub fn worsening(base: &[f64], new: &[f64], better: Better) -> f64 {
    let (b, n) = (median(base), median(new));
    let change = (n - b) / b.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The regression rule:
///
/// * `unresolved` when either side has fewer than two runs, or either
///   side's interquartile spread exceeds `bound` (the noise is wider than
///   the change the bound is meant to catch);
/// * `worse` when the median worsened by more than `bound`;
/// * `better` when the median improved by more than both sides' spread;
/// * `same` otherwise.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(sb), Some(sn)) = (spread(base), spread(new)) else {
        return Verdict::Unresolved;
    };
    let noise = sb.max(sn);
    if noise > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(base, new, better);
    if w > bound {
        Verdict::Worse
    } else if -w > noise && w < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimRng;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values computed with Python's statistics.quantiles(n=4).
        let cases: [(&[f64], f64, f64, f64); 4] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0], 1.5, 3.0, 4.5),
            (&[10.0, 20.0], 7.5, 15.0, 22.5),
            (
                &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0],
                1.75,
                3.5,
                5.25,
            ),
            (&[1.5, 2.5, 2.5, 7.0, 8.25, 9.0, 100.0], 2.5, 7.0, 9.0),
        ];
        for (xs, q1, med, q3) in cases {
            let (a, b) = quartiles(xs).expect("two or more samples");
            assert!(close(a, q1) && close(b, q3), "{xs:?}: {a} {b}");
            assert!(close(median(xs), med), "{xs:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&xs, 50.0), 50.0));
        assert!(close(percentile(&xs, 90.0), 90.0));
        assert!(close(percentile(&xs, 99.0), 99.0));
        assert!(close(percentile(&xs, 100.0), 100.0));
        // Ten samples beyond p90 of 100: enough to report that tail.
        assert_eq!(
            xs.iter().filter(|&&x| x > percentile(&xs, 90.0)).count(),
            10
        );
        assert!(close(percentile(&[7.0], 99.0), 7.0));
        assert!(close(percentile(&[], 50.0), 0.0));
    }

    /// `n` seeded samples around `center` with relative jitter `jitter`.
    fn samples(seed: u64, n: usize, center: f64, jitter: f64) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| center * (1.0 + jitter * (2.0 * rng.unit_f64() - 1.0)))
            .collect()
    }

    #[test]
    fn bound_arithmetic_respects_direction() {
        let base = samples(1, 9, 100.0, 0.01);
        let slower = samples(2, 9, 120.0, 0.01);
        let faster = samples(3, 9, 80.0, 0.01);
        assert!((worsening(&base, &slower, Better::Lower) - 0.2).abs() < 0.03);
        assert!((worsening(&base, &slower, Better::Higher) + 0.2).abs() < 0.03);
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(&base, &faster, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &faster, Better::Higher, 0.1), Verdict::Worse);
        // A 20% worsening is within a 25% bound.
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.25), Verdict::Same);
    }

    #[test]
    fn two_sets_of_the_same_distribution_compare_same() {
        for seed in 0..20 {
            let a = samples(seed, 7, 50.0, 0.02);
            let b = samples(seed + 100, 7, 50.0, 0.02);
            let v = verdict(&a, &b, Better::Lower, 0.1);
            assert_ne!(v, Verdict::Worse, "seed {seed}");
            assert_ne!(v, Verdict::Unresolved, "seed {seed}");
        }
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = samples(4, 9, 100.0, 0.5);
        let quiet = samples(5, 9, 200.0, 0.01);
        assert!(spread(&noisy).is_some_and(|s| s > 0.1));
        assert_eq!(
            verdict(&noisy, &quiet, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&quiet, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[1.0], &[2.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let same = [1.15, 1.15, 1.15];
        assert_eq!(verdict(&same, &same, Better::Higher, 0.0), Verdict::Same);
        let lower = [1.1, 1.1, 1.1];
        assert_eq!(verdict(&same, &lower, Better::Higher, 0.0), Verdict::Worse);
    }
}
