//! Fig. 10: sensitivity studies — (a) profiling length and partitioning-
//! algorithm delay, (b) warp schedulers (gto vs. round-robin).

use gpu_sim::SchedulerKind;
use warped_slicer::{PolicyKind, ProfileTiming, RunConfig, WarpedSlicerConfig};
use ws_workloads::{suite, Benchmark, Pair, PairCategory};

use crate::context::ExperimentContext;
use crate::experiments::fig6::{self, Fig6Data};
use crate::report::{f2, gmean, Table};

/// A representative subset of pairs (one per category) used for the
/// sensitivity sweeps; the paper sweeps all 30, which the `--full` flag
/// also allows.
#[must_use]
pub fn subset_pairs() -> Vec<Pair> {
    let suite = suite();
    let member = |abbrev: &str| {
        suite
            .iter()
            .find(|b| b.abbrev == abbrev)
            .cloned()
            // Static suite abbreviations: the lookup cannot fail on them.
            // xtask-allow: no-unwrap
            .expect("suite")
    };
    [
        ("IMG", "NN", PairCategory::ComputeCache),
        ("MM", "BLK", PairCategory::ComputeMemory),
        ("HOT", "LBM", PairCategory::ComputeMemory),
        ("MM", "IMG", PairCategory::ComputeCompute),
    ]
    .into_iter()
    .map(|(a, b, category)| Pair {
        a: member(a),
        b: member(b),
        category,
    })
    .collect()
}

fn dynamic_with(timing: ProfileTiming) -> PolicyKind {
    PolicyKind::WarpedSlicer(WarpedSlicerConfig {
        timing,
        ..WarpedSlicerConfig::default()
    })
}

/// Geomean combined IPC of the Warped-Slicer with `timing` over `pairs`,
/// normalized to the default timing. All `timings x pairs` runs go out as
/// one job batch.
pub fn sweep_timing(
    ctx: &ExperimentContext,
    pairs: &[Pair],
    timings: &[(String, ProfileTiming)],
) -> Vec<(String, f64)> {
    let runs: Vec<(Vec<&Benchmark>, PolicyKind)> = timings
        .iter()
        .flat_map(|(_, timing)| {
            pairs
                .iter()
                .map(move |p| (vec![&p.a, &p.b], dynamic_with(*timing)))
        })
        .collect();
    let corun = ctx.corun_batch(&runs);
    let mut results = Vec::new();
    let mut baseline: Option<f64> = None;
    for ((label, _), chunk) in timings.iter().zip(corun.chunks(pairs.len().max(1))) {
        let ipcs: Vec<f64> = chunk.iter().map(|r| r.combined_ipc).collect();
        let g = gmean(&ipcs);
        let base = *baseline.get_or_insert(g);
        results.push((label.clone(), g / base));
    }
    results
}

/// Fig. 10a: sampling-length and algorithm-delay sensitivity. Lengths and
/// delays are scaled to the run budget in the same proportion as the
/// paper's 5 K/10 K/1 K..10 K out of 2 M.
pub fn compute_timing(ctx: &ExperimentContext, pairs: &[Pair]) -> Vec<(String, f64)> {
    let base = WarpedSlicerConfig::scaled_for(ctx.cfg.isolation_cycles).timing;
    let timings = vec![
        (format!("sample {}", base.sample), base),
        (
            format!("sample {}", base.sample * 2),
            ProfileTiming {
                sample: base.sample * 2,
                ..base
            },
        ),
        (
            format!("sample {}", base.sample * 4),
            ProfileTiming {
                sample: base.sample * 4,
                ..base
            },
        ),
        (
            format!("delay {}", base.sample / 2),
            ProfileTiming {
                algorithm_delay: base.sample / 2,
                ..base
            },
        ),
        (
            format!("delay {}", base.sample * 2),
            ProfileTiming {
                algorithm_delay: base.sample * 2,
                ..base
            },
        ),
        (
            format!("delay {}", base.sample * 4),
            ProfileTiming {
                algorithm_delay: base.sample * 4,
                ..base
            },
        ),
    ];
    sweep_timing(ctx, pairs, &timings)
}

/// Fig. 10b: policy comparison under each warp scheduler. Each scheduler's
/// `pairs x 4` runs go out as one job batch.
pub fn compute_schedulers(isolation_cycles: u64, pairs: &[Pair]) -> Vec<(String, f64, f64, f64)> {
    compute_schedulers_on(&ExperimentContext::new(isolation_cycles), pairs)
}

/// [`compute_schedulers`] with `ctx`'s run configuration and on its pool,
/// so an observer of `ctx` sees the simulations it runs.
pub fn compute_schedulers_on(
    ctx: &ExperimentContext,
    pairs: &[Pair],
) -> Vec<(String, f64, f64, f64)> {
    let mut out = Vec::new();
    for sched in [SchedulerKind::GreedyThenOldest, SchedulerKind::RoundRobin] {
        let ctx = ctx.for_config(RunConfig {
            scheduler: sched,
            ..ctx.cfg.clone()
        });
        let data = Fig6Data {
            pairs: fig6::run_pairs(&ctx, pairs, false),
        };
        let (sp, ev, dy, _) = data.gmeans();
        out.push((sched.to_string(), sp, ev, dy));
    }
    out
}

/// Renders Fig. 10a.
#[must_use]
pub fn render_timing(rows: &[(String, f64)]) -> String {
    let mut t = Table::new(vec!["Profiling variant (cycles)", "Normalized IPC"]);
    for (label, ipc) in rows {
        t.row(vec![label.clone(), f2(*ipc)]);
    }
    format!(
        "Fig. 10a: sensitivity to profiling length and algorithm delay\n{}",
        t.render()
    )
}

/// Renders Fig. 10b.
#[must_use]
pub fn render_schedulers(rows: &[(String, f64, f64, f64)]) -> String {
    let mut t = Table::new(vec!["Scheduler", "Spatial", "Even", "Dynamic"]);
    for (name, s, e, d) in rows {
        t.row(vec![name.clone(), f2(*s), f2(*e), f2(*d)]);
    }
    format!("Fig. 10b: sensitivity to warp schedulers\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_pairs_match_the_per_member_scan() {
        // Reference lookup: a scan of the built extended suite, one whole
        // suite build per member.
        let scan = |abbrev: &str| {
            ws_workloads::extended_suite()
                .into_iter()
                .find(|b| b.abbrev.eq_ignore_ascii_case(abbrev))
                .expect("suite")
        };
        let want = [
            ("IMG", "NN", PairCategory::ComputeCache),
            ("MM", "BLK", PairCategory::ComputeMemory),
            ("HOT", "LBM", PairCategory::ComputeMemory),
            ("MM", "IMG", PairCategory::ComputeCompute),
        ];
        let got = subset_pairs();
        assert_eq!(got.len(), want.len());
        for (g, (a, b, category)) in got.iter().zip(want) {
            assert_eq!(g.label(), format!("{a}_{b}"));
            assert_eq!(g.category, category);
            assert_eq!(g.a.desc, scan(a).desc, "{a}");
            assert_eq!(g.b.desc, scan(b).desc, "{b}");
        }
    }

    #[test]
    fn timing_sensitivity_is_small() {
        let ctx = ExperimentContext::new(12_000);
        let pairs = vec![subset_pairs().remove(0)];
        let rows = compute_timing(&ctx, &pairs);
        assert_eq!(rows.len(), 6);
        for (label, ipc) in &rows {
            // The paper reports <= ~2% IPC variation; allow slack for the
            // reduced budget.
            assert!((0.85..=1.15).contains(ipc), "{label}: {ipc}");
        }
    }

    #[test]
    fn both_schedulers_preserve_dynamic_wins() {
        let pairs = vec![subset_pairs().remove(0)];
        let rows = compute_schedulers(10_000, &pairs);
        assert_eq!(rows.len(), 2);
        for (name, _s, _e, d) in &rows {
            assert!(*d > 0.9, "{name}: dynamic {d}");
        }
    }
}
