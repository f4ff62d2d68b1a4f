//! Fig. 8: three kernels sharing an SM — all 15 combinations of one
//! memory/cache benchmark with two compute benchmarks.

use warped_slicer::CorunResult;
use ws_workloads::{all_triples, Benchmark, Triple};

use crate::context::ExperimentContext;
use crate::report::{f2, gmean, Table};

/// Results for one triple.
#[derive(Debug, Clone)]
pub struct TripleResult {
    /// The workload.
    pub triple: Triple,
    /// Left-Over baseline.
    pub left_over: CorunResult,
    /// Spatial multitasking.
    pub spatial: CorunResult,
    /// Even split (1/3 each).
    pub even: CorunResult,
    /// Warped-Slicer.
    pub dynamic: CorunResult,
}

impl TripleResult {
    /// (spatial, even, dynamic) IPC normalized to Left-Over.
    #[must_use]
    pub fn normalized(&self) -> (f64, f64, f64) {
        let base = self.left_over.combined_ipc.max(1e-12);
        (
            self.spatial.combined_ipc / base,
            self.even.combined_ipc / base,
            self.dynamic.combined_ipc / base,
        )
    }
}

/// Runs one triple under every policy.
pub fn run_triple(ctx: &ExperimentContext, triple: &Triple) -> TripleResult {
    run_triples(ctx, std::slice::from_ref(triple)).swap_remove(0)
}

/// Runs every triple under every policy as one `triples x 4` job batch.
pub fn run_triples(ctx: &ExperimentContext, triples: &[Triple]) -> Vec<TripleResult> {
    let workloads: Vec<Vec<&Benchmark>> = triples.iter().map(|t| vec![&t.a, &t.b, &t.c]).collect();
    triples
        .iter()
        .zip(ctx.policy_batch(&workloads))
        .map(
            |(triple, [left_over, spatial, even, dynamic])| TripleResult {
                triple: triple.clone(),
                left_over,
                spatial,
                even,
                dynamic,
            },
        )
        .collect()
}

/// Runs all 15 triples.
pub fn compute(ctx: &ExperimentContext) -> Vec<TripleResult> {
    run_triples(ctx, &all_triples())
}

/// Machine-readable Fig. 8 data.
#[must_use]
pub fn csv(results: &[TripleResult]) -> String {
    let mut t = Table::new(vec![
        "workload",
        "spatial",
        "even",
        "dynamic",
        "leftover_ipc",
    ]);
    for r in results {
        let (s, e, d) = r.normalized();
        t.row(vec![
            r.triple.label(),
            format!("{s:.4}"),
            format!("{e:.4}"),
            format!("{d:.4}"),
            format!("{:.4}", r.left_over.combined_ipc),
        ]);
    }
    t.to_csv()
}

/// Renders Fig. 8.
#[must_use]
pub fn render(results: &[TripleResult]) -> String {
    let mut t = Table::new(vec!["Workload", "Spatial", "Even", "Dynamic"]);
    let mut sp = Vec::new();
    let mut ev = Vec::new();
    let mut dy = Vec::new();
    for r in results {
        let (s, e, d) = r.normalized();
        sp.push(s);
        ev.push(e);
        dy.push(d);
        t.row(vec![r.triple.label(), f2(s), f2(e), f2(d)]);
    }
    t.row(vec![
        "GMEAN".to_string(),
        f2(gmean(&sp)),
        f2(gmean(&ev)),
        f2(gmean(&dy)),
    ]);
    format!(
        "Fig. 8: three applications per SM, normalized IPC (vs. Left-Over)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::by_abbrev;

    #[test]
    fn one_triple_runs_under_all_policies() {
        let ctx = ExperimentContext::new(10_000);
        let triple = Triple {
            a: by_abbrev("BLK").unwrap(),
            b: by_abbrev("IMG").unwrap(),
            c: by_abbrev("DXT").unwrap(),
        };
        let r = run_triple(&ctx, &triple);
        assert!(!r.left_over.timed_out, "{:?}", r.left_over.finish_cycle);
        assert!(!r.dynamic.timed_out);
        let (s, e, d) = r.normalized();
        assert!(s > 0.4 && e > 0.4 && d > 0.4, "({s}, {e}, {d})");
        // The dynamic controller made a 3-way decision.
        let dec = r.dynamic.decision.expect("decision");
        if let Some(q) = dec.quotas {
            assert_eq!(q.len(), 3);
        }
    }
}
