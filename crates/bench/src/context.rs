//! Shared experiment state: run configuration, the deterministic execution
//! pool, memoized isolation runs (every figure normalizes against the same
//! per-benchmark targets, so the isolation runs are computed once and
//! shared), and the progress sink the harness reports through.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use warped_slicer::{
    execute_batch, profile_curves_planned, CorunResult, IsolationResult, PolicyKind, RunConfig,
    SimJob, SweepPlan, WarpedSlicerConfig,
};
use ws_workloads::Benchmark;

/// One progress report, emitted after an observed unit of work completes.
#[derive(Debug, Clone)]
pub struct Progress {
    /// What finished (an artifact name like `"fig6"`).
    pub label: String,
    /// Wall-clock time the unit took.
    pub wall: Duration,
    /// Simulation jobs the pool completed during the unit.
    pub jobs: u64,
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} jobs in {:.2}s",
            self.label,
            self.jobs,
            self.wall.as_secs_f64()
        )
    }
}

/// Callback receiving [`Progress`] events (see
/// [`ExperimentContext::set_progress`]).
pub type ProgressSink = Box<dyn Fn(&Progress) + Send + Sync>;

/// Shared state for the experiment harness.
///
/// Methods take `&self`: the isolation memo uses interior mutability and
/// hands out [`Arc`]s, so experiment code can fan work out through the
/// context from batch closures without cloning full results.
pub struct ExperimentContext {
    /// The run configuration every experiment uses (unless it explicitly
    /// overrides, e.g. the large-configuration study).
    pub cfg: RunConfig,
    /// Shared with the contexts [`Self::for_config`] makes, so
    /// [`Self::observe`] counts their jobs too.
    pool: Arc<ws_exec::Pool>,
    iso: Mutex<HashMap<String, Arc<IsolationResult>>>,
    progress: Option<ProgressSink>,
}

impl std::fmt::Debug for ExperimentContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentContext")
            .field("cfg", &self.cfg)
            .field("pool", &self.pool)
            .field("progress", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

impl ExperimentContext {
    /// Creates a context with the default configuration and the given
    /// isolation cycle budget. The pool is sized by `WS_EXEC_THREADS`.
    #[must_use]
    pub fn new(isolation_cycles: u64) -> Self {
        Self::with_config(RunConfig {
            isolation_cycles,
            ..RunConfig::default()
        })
    }

    /// Creates a context with an explicit configuration. The pool is sized
    /// by `WS_EXEC_THREADS`.
    #[must_use]
    pub fn with_config(cfg: RunConfig) -> Self {
        Self::with_pool(cfg, ws_exec::Pool::from_env())
    }

    /// Creates a context with an explicit configuration and pool (tests pin
    /// worker counts this way).
    #[must_use]
    pub fn with_pool(cfg: RunConfig, pool: ws_exec::Pool) -> Self {
        Self {
            cfg,
            pool: Arc::new(pool),
            iso: Mutex::new(HashMap::new()),
            progress: None,
        }
    }

    /// A context running `cfg` on this context's pool, for a study that
    /// overrides the run configuration (a scheduler, the large GPU). It
    /// keeps its own isolation memo, since isolation results depend on the
    /// configuration, and reports no progress of its own: jobs it runs
    /// inside [`Self::observe`] count toward this context's report.
    #[must_use]
    pub fn for_config(&self, cfg: RunConfig) -> Self {
        Self {
            cfg,
            pool: Arc::clone(&self.pool),
            iso: Mutex::new(HashMap::new()),
            progress: None,
        }
    }

    /// The execution pool experiments submit job batches to.
    #[must_use]
    pub fn pool(&self) -> &ws_exec::Pool {
        &self.pool
    }

    /// Installs a progress sink; [`Self::observe`] reports through it.
    pub fn set_progress(&mut self, sink: ProgressSink) {
        self.progress = Some(sink);
    }

    /// Runs `f`, then reports its wall-clock time and the number of pool
    /// jobs it completed to the progress sink (if one is installed).
    pub fn observe<T>(&self, label: &str, f: impl FnOnce(&Self) -> T) -> T {
        let jobs_before = self.pool.jobs_completed();
        let start = Instant::now();
        let out = f(self);
        if let Some(sink) = &self.progress {
            sink(&Progress {
                label: label.to_string(),
                wall: start.elapsed(),
                jobs: self.pool.jobs_completed() - jobs_before,
            });
        }
        out
    }

    /// The Warped-Slicer policy with profile phases scaled to this
    /// context's budget.
    #[must_use]
    pub fn dynamic_policy(&self) -> PolicyKind {
        PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(self.cfg.isolation_cycles))
    }

    /// The isolation run for `bench`, memoized and shared.
    pub fn isolation(&self, bench: &Benchmark) -> Arc<IsolationResult> {
        self.isolation_batch(&[bench]).swap_remove(0)
    }

    /// Isolation runs for every benchmark in `benches`, in order.
    ///
    /// Misses are simulated as one job batch on the pool; hits come from
    /// the memo. The memo is keyed by abbreviation, so duplicates in
    /// `benches` cost one simulation.
    pub fn isolation_batch(&self, benches: &[&Benchmark]) -> Vec<Arc<IsolationResult>> {
        let missing: Vec<&Benchmark> = {
            let iso = self.iso.lock().unwrap_or_else(PoisonError::into_inner);
            let mut seen: Vec<&str> = Vec::new();
            let mut out = Vec::new();
            for b in benches {
                if !iso.contains_key(b.abbrev) && !seen.contains(&b.abbrev) {
                    seen.push(b.abbrev);
                    out.push(*b);
                }
            }
            out
        };
        if !missing.is_empty() {
            let jobs: Vec<SimJob> = missing
                .iter()
                .map(|b| SimJob::isolation(&b.desc, &self.cfg))
                .collect();
            let results = execute_batch(&self.pool, &jobs);
            let mut iso = self.iso.lock().unwrap_or_else(PoisonError::into_inner);
            for (b, outcome) in missing.iter().zip(results) {
                iso.entry(b.abbrev.to_string())
                    .or_insert_with(|| Arc::new(outcome.into_isolation()));
            }
        }
        let iso = self.iso.lock().unwrap_or_else(PoisonError::into_inner);
        benches
            .iter()
            .map(|b| {
                Arc::clone(iso.get(b.abbrev).unwrap_or_else(|| {
                    // Unreachable: the miss pass above filled every key.
                    panic!("isolation memo missing {}", b.abbrev)
                }))
            })
            .collect()
    }

    /// Equal-work instruction targets for a multiprogrammed workload.
    pub fn targets(&self, benches: &[&Benchmark]) -> Vec<u64> {
        self.isolation_batch(benches)
            .iter()
            .map(|r| r.target_insts)
            .collect()
    }

    /// Per-kernel *true* isolated cycle counts for a workload — how long
    /// each benchmark alone needed for its equal-work target (its last
    /// instruction-issue cycle, not the shared isolation budget). This is
    /// the normalizer [`warped_slicer::metrics`] requires, one entry per
    /// kernel.
    pub fn isolated_cycles(&self, benches: &[&Benchmark]) -> Vec<u64> {
        self.isolation_batch(benches)
            .iter()
            .map(|r| r.isolated_cycles)
            .collect()
    }

    /// The equal-work corun job for `benches` under `policy` (targets come
    /// from the isolation memo).
    pub fn corun_job(&self, benches: &[&Benchmark], policy: &PolicyKind) -> SimJob {
        let targets = self.targets(benches);
        let descs: Vec<&gpu_sim::KernelDesc> = benches.iter().map(|b| &b.desc).collect();
        SimJob::corun(&descs, &targets, policy, &self.cfg)
    }

    /// Runs `benches` concurrently under `policy` with equal-work targets.
    pub fn corun(&self, benches: &[&Benchmark], policy: &PolicyKind) -> CorunResult {
        self.corun_batch(&[(benches.to_vec(), policy.clone())])
            .swap_remove(0)
    }

    /// Runs every `(workload, policy)` pair as one job batch on the pool,
    /// returning results in submission order.
    ///
    /// Isolation targets for every distinct benchmark are resolved first
    /// (one batch), then the coruns themselves run as a second batch.
    pub fn corun_batch(&self, runs: &[(Vec<&Benchmark>, PolicyKind)]) -> Vec<CorunResult> {
        let all: Vec<&Benchmark> = runs.iter().flat_map(|(bs, _)| bs.iter().copied()).collect();
        let _ = self.isolation_batch(&all);
        let jobs: Vec<SimJob> = runs
            .iter()
            .map(|(bs, policy)| self.corun_job(bs, policy))
            .collect();
        execute_batch(&self.pool, &jobs)
            .into_iter()
            .zip(&jobs)
            .map(|(outcome, job)| outcome.into_corun(job))
            .collect()
    }

    /// CTA-occupancy sweeps for Fig. 3-style curves: for each benchmark,
    /// the IPC at every CTA count `1..=max_ctas[i]`, sampled over `window`
    /// cycles — the unpruned [`SweepPlan::full`] run of
    /// [`profile_curves_planned`]. All points across all benchmarks stream
    /// through the pool together.
    pub fn cta_sweeps(
        &self,
        benches: &[&Benchmark],
        max_ctas: &[u32],
        window: u64,
    ) -> Vec<Vec<f64>> {
        let descs: Vec<&gpu_sim::KernelDesc> = benches.iter().map(|b| &b.desc).collect();
        let plan = SweepPlan::full(max_ctas);
        profile_curves_planned(&self.pool, &descs, &plan, window, &self.cfg).curves
    }

    /// Eq. 1 CTA-feasibility bound for `bench` on this context's hardware.
    #[must_use]
    pub fn max_ctas(&self, bench: &Benchmark) -> u32 {
        bench.desc.max_ctas_per_sm(&self.cfg.gpu.sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::by_abbrev;

    #[test]
    fn isolation_runs_are_memoized() {
        let ctx = ExperimentContext::new(5_000);
        let img = by_abbrev("IMG").unwrap();
        let a = ctx.isolation(&img);
        let b = ctx.isolation(&img);
        assert_eq!(a.target_insts, b.target_insts);
        assert!(Arc::ptr_eq(&a, &b), "memo shares one result");
    }

    #[test]
    fn corun_uses_cached_targets() {
        let ctx = ExperimentContext::new(5_000);
        let img = by_abbrev("IMG").unwrap();
        let mm = by_abbrev("MM").unwrap();
        let r = ctx.corun(&[&img, &mm], &PolicyKind::Even);
        assert_eq!(r.targets, ctx.targets(&[&img, &mm]));
        assert_eq!(
            ctx.iso.lock().unwrap_or_else(PoisonError::into_inner).len(),
            2
        );
    }

    #[test]
    fn batch_matches_singles_for_any_worker_count() {
        let img = by_abbrev("IMG").unwrap();
        let mm = by_abbrev("MM").unwrap();
        let cfg = RunConfig {
            isolation_cycles: 3_000,
            ..RunConfig::default()
        };
        let serial = ExperimentContext::with_pool(cfg.clone(), ws_exec::Pool::new(1));
        let parallel = ExperimentContext::with_pool(cfg, ws_exec::Pool::new(4));
        let runs = vec![
            (vec![&img, &mm], PolicyKind::Even),
            (vec![&img, &mm], PolicyKind::Spatial),
        ];
        let a = serial.corun_batch(&runs);
        let b = parallel.corun_batch(&runs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_cycles, y.total_cycles);
            assert_eq!(x.finish_cycle, y.finish_cycle);
            assert!((x.combined_ipc - y.combined_ipc).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn observe_reports_jobs_and_wall_clock() {
        let mut ctx = ExperimentContext::new(2_000);
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        ctx.set_progress(Box::new(move |p| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(p.clone());
        }));
        let img = by_abbrev("IMG").unwrap();
        ctx.observe("iso", |c| {
            let _ = c.isolation(&img);
        });
        let events = events.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "iso");
        assert_eq!(events[0].jobs, 1);
        assert!(events[0].to_string().contains("iso: 1 jobs"));
    }

    #[test]
    fn observe_counts_the_jobs_of_a_context_for_another_config() {
        let mut ctx = ExperimentContext::new(2_000);
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        ctx.set_progress(Box::new(move |p| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(p.jobs);
        }));
        let img = by_abbrev("IMG").unwrap();
        ctx.observe("large", |c| {
            let _ = c.isolation(&img);
            let large = c.for_config(RunConfig {
                gpu: gpu_sim::GpuConfig::large(),
                ..c.cfg.clone()
            });
            // Its own memo: IMG on the large GPU is a second simulation.
            let _ = large.isolation(&img);
        });
        assert_eq!(
            *events.lock().unwrap_or_else(PoisonError::into_inner),
            [2],
            "both isolation runs counted on the one pool"
        );
    }
}
