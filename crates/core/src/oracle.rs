//! The Oracle (Sec. V-A): "the highest performance we obtained for the
//! application pair among all multiprogramming approaches discussed in this
//! paper (Left-Over, Spatial and Intra-SM Slicing)", with intra-SM slicing
//! searched exhaustively over all feasible CTA combinations.

use gpu_sim::KernelDesc;

use crate::policy::PolicyKind;
use crate::resources::ResourceVec;
use crate::runner::{run_corun, CorunResult, RunConfig};

/// Enumerates every feasible CTA-quota vector for `descs` on one SM (each
/// kernel gets at least one CTA; all capacity constraints respected).
#[must_use]
pub fn feasible_quotas(descs: &[&KernelDesc], cfg: &RunConfig) -> Vec<Vec<u32>> {
    let cap = ResourceVec::sm_capacity(&cfg.gpu.sm);
    let costs: Vec<ResourceVec> = descs.iter().map(|d| ResourceVec::cta_cost(d)).collect();
    let maxes: Vec<u32> = descs
        .iter()
        .map(|d| d.max_ctas_per_sm(&cfg.gpu.sm).max(1))
        .collect();
    let mut out = Vec::new();
    let mut current = vec![1u32; descs.len()];
    enumerate(&costs, &maxes, cap, 0, &mut current, &mut out);
    out
}

fn enumerate(
    costs: &[ResourceVec],
    maxes: &[u32],
    left: ResourceVec,
    i: usize,
    current: &mut Vec<u32>,
    out: &mut Vec<Vec<u32>>,
) {
    if i == costs.len() {
        out.push(current.clone());
        return;
    }
    for t in 1..=maxes[i] {
        let need = costs[i].times(u64::from(t));
        if !left.covers(&need) {
            break;
        }
        current[i] = t;
        enumerate(
            costs,
            maxes,
            left.saturating_sub(&need),
            i + 1,
            current,
            out,
        );
    }
}

/// The Oracle's verdict for one workload.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// The best run found.
    pub best: CorunResult,
    /// The policy that achieved it (a `Quota` carries its quota vector).
    pub best_policy: PolicyKind,
    /// Combined IPC of every candidate tried, for inspection.
    pub candidates: Vec<(PolicyKind, f64)>,
}

/// Exhaustively searches Left-Over, Spatial, Even and every feasible CTA
/// quota, returning the best result by combined IPC.
///
/// # Panics
///
/// Panics if `descs` is empty or the workload has no feasible co-location
/// *and* no baseline run completes.
#[must_use]
pub fn run_oracle(descs: &[&KernelDesc], targets: &[u64], cfg: &RunConfig) -> OracleResult {
    let mut policies: Vec<PolicyKind> =
        vec![PolicyKind::LeftOver, PolicyKind::Spatial, PolicyKind::Even];
    policies.extend(
        feasible_quotas(descs, cfg)
            .into_iter()
            .map(PolicyKind::Quota),
    );
    let mut candidates = Vec::with_capacity(policies.len());
    let mut best: Option<(CorunResult, PolicyKind)> = None;
    for p in policies {
        let r = run_corun(descs, targets, &p, cfg);
        candidates.push((p.clone(), r.combined_ipc));
        let better = match &best {
            None => true,
            Some((b, _)) => r.combined_ipc > b.combined_ipc,
        };
        if better {
            best = Some((r, p));
        }
    }
    // Invariant: the candidate list always contains the spatial fallback,
    // so `best` is set. xtask-allow: no-unwrap
    let (best, best_policy) = best.expect("at least one policy candidate");
    OracleResult {
        best,
        best_policy,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::by_abbrev;

    #[test]
    fn quota_enumeration_respects_capacity() {
        let cfg = RunConfig::default();
        let img = by_abbrev("IMG").unwrap().desc;
        let nn = by_abbrev("NN").unwrap().desc;
        let quotas = feasible_quotas(&[&img, &nn], &cfg);
        assert!(!quotas.is_empty());
        let cap = ResourceVec::sm_capacity(&cfg.gpu.sm);
        for q in &quotas {
            let used = ResourceVec::cta_cost(&img)
                .times(u64::from(q[0]))
                .plus(&ResourceVec::cta_cost(&nn).times(u64::from(q[1])));
            assert!(cap.covers(&used), "infeasible quota {q:?}");
            assert!(q.iter().all(|&t| t >= 1));
        }
        // Every quota vector is unique.
        let mut sorted = quotas.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), quotas.len());
    }

    #[test]
    fn big_kernels_have_few_feasible_combos() {
        let cfg = RunConfig::default();
        let bfs = by_abbrev("BFS").unwrap().desc;
        let hot = by_abbrev("HOT").unwrap().desc;
        // BFS CTAs are 512 threads and HOT CTAs 256: at most
        // (1536 - 256) / 512 = 2 BFS with 1 HOT, etc.
        let quotas = feasible_quotas(&[&hot, &bfs], &cfg);
        for q in &quotas {
            assert!(256 * q[0] + 512 * q[1] <= 1536, "{q:?}");
        }
    }

    #[test]
    fn oracle_beats_or_matches_left_over() {
        let cfg = RunConfig {
            isolation_cycles: 8_000,
            ..RunConfig::default()
        };
        let img = by_abbrev("IMG").unwrap().desc;
        let blk = by_abbrev("BLK").unwrap().desc;
        let ta = crate::runner::run_isolation(&img, &cfg).target_insts;
        let tb = crate::runner::run_isolation(&blk, &cfg).target_insts;
        let oracle = run_oracle(&[&img, &blk], &[ta, tb], &cfg);
        let lo = oracle
            .candidates
            .iter()
            .find(|(p, _)| *p == PolicyKind::LeftOver)
            .expect("left-over evaluated");
        assert!(oracle.best.combined_ipc >= lo.1);
        assert!(oracle.candidates.len() > 3, "quota combos were searched");
    }
}
