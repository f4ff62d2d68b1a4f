//! The five workloads, their set-up, the closed loop that drives them and
//! the metrics each reports.
//!
//! Every workload is a fixed *round* of operations built from the seed.
//! The closed loop runs rounds back to back on one thread (an operation
//! starts when the previous one returns) until the next round would end
//! past the run's measuring time. Work fans out over at most
//! [`THREADS`] pool workers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gpu_sim::SimRng;
use warped_slicer::store::DEFAULT_STORE_CAPACITY;
use warped_slicer::{
    execute, profile_curves_planned, water_fill, CurveKey, CurveStore, KernelCurve,
    KernelSignature, ResourceVec, RunConfig, SimJob, SimOutcome, StoreEntry, SweepPlan,
};
use ws_bench::experiments::fig6::Fig6Data;
use ws_bench::experiments::fig8::TripleResult;
use ws_bench::experiments::{
    ablation, energy, fig1, fig10, fig2, fig3, fig5, fig6, fig7, fig8, fig9, large_config,
    overhead, table1, table2, table3,
};
use ws_bench::ExperimentContext;
use ws_workloads::{all_pairs, extended_suite, suite, Benchmark, Pair};

use crate::golden;
use crate::host;
use crate::speed::{HostSpeed, Segments};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Worker threads the benchmark's pools use: the two cores of the
/// reference host.
pub const THREADS: usize = 2;

/// The seed the golden digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Mixed into the seed of the generator that orders each round, so the
/// order is independent of the generator that builds the inputs.
const ORDER_SEED: u64 = 0x5eed_0005_9a45_e000;

/// Store capacity of `decide_repeat`: below the suite's ten kernels, so the
/// store evicts.
const REPEAT_CAPACITY: usize = 9;
/// Zipf exponent of `decide_repeat`'s pair popularity.
const REPEAT_ZIPF: f64 = 1.75;
/// `decide_repeat` invalidates one kernel key every this many arrivals.
const REPEAT_INVALIDATE_EVERY: usize = 50;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    CorunDense,
    CorunSparse,
    DecideCold,
    DecideRepeat,
}

impl Workload {
    pub const ALL: [Self; 5] = [
        Self::Figures,
        Self::CorunDense,
        Self::CorunSparse,
        Self::DecideCold,
        Self::DecideRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::Figures => "figures",
            Self::CorunDense => "corun_dense",
            Self::CorunSparse => "corun_sparse",
            Self::DecideCold => "decide_cold",
            Self::DecideRepeat => "decide_repeat",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cycle budgets and counts of one benchmark mode.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups are repeated (at least [`MIN_SETUP_REPS`] times, at most
    /// [`MAX_SETUP_REPS`]) until they take this many seconds in total, so
    /// that a set-up of microseconds still gives a steady median.
    pub setup_s: f64,
    /// Isolation budget of the `figures` artifacts.
    pub figures_cycles: u64,
    /// Sampling window of the Fig. 3 sweeps, as the `experiments` binary
    /// derives it from a 2 000-cycle budget.
    pub figures_window: u64,
    /// Sampling window of the Fig. 5 series, which the `experiments`
    /// binary fixes at 5 000 cycles whatever the budget.
    pub fig5_window: u64,
    /// Equal-work isolation budget of `corun_dense`.
    pub dense_cycles: u64,
    /// Isolation budget of `corun_sparse`; the runs stop at
    /// `max_cycle_factor` times this.
    pub sparse_cycles: u64,
    /// Profiling window per sweep sample of the decide workloads.
    pub decide_window: u64,
    /// Isolation budget of the decide workloads.
    pub decide_cycles: u64,
    /// Arrivals per `decide_repeat` round.
    pub repeat_arrivals: usize,
}

impl Sizes {
    /// The measured benchmark.
    pub const STANDARD: Self = Self {
        setup_s: 2.0,
        figures_cycles: 2_000,
        figures_window: 2_000,
        fig5_window: 5_000,
        dense_cycles: 8_000,
        sparse_cycles: 12_000,
        decide_window: 2_000,
        decide_cycles: 4_000,
        repeat_arrivals: 500,
    };

    /// Tiny fixed budgets: every workload in seconds, for tests.
    pub const SMOKE: Self = Self {
        setup_s: 0.0,
        figures_cycles: 300,
        figures_window: 300,
        fig5_window: 300,
        dense_cycles: 600,
        sparse_cycles: 100,
        decide_window: 250,
        decide_cycles: 500,
        repeat_arrivals: 40,
    };
}

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Use [`Sizes::SMOKE`] and skip the golden digests (recorded at
    /// [`Sizes::STANDARD`]).
    pub smoke: bool,
}

impl RunOpts {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::STANDARD
        }
    }

    /// Whether outputs are checked against the golden digests.
    fn golden(&self) -> bool {
        !self.smoke
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced
    /// runs), by name.
    pub metrics: BTreeMap<String, f64>,
    pub tracer: Tracer,
}

/// Runs one workload.
pub fn run(opts: &RunOpts) -> Outcome {
    match opts.workload {
        Workload::Figures => figures(opts),
        Workload::CorunDense | Workload::CorunSparse => corun(opts),
        Workload::DecideCold | Workload::DecideRepeat => decide(opts),
    }
}

// ---------------------------------------------------------------------------
// Shared machinery

/// Operation accounting: attempts, failures and latencies.
///
/// Every round repeats the same operations, so each distinct operation
/// (its `key`) is timed once per round. Each time is scaled to the
/// reference host by the probe marks around it (see [`crate::speed`]), and
/// an operation's latency is the median of its scaled times.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    /// Whether the latest operation has failed already.
    last_failed: bool,
    /// Every timed operation: its key, whether it was traced, and its
    /// unscaled time.
    samples: Vec<(usize, bool, Segments)>,
    speed: HostSpeed,
}

impl Ops {
    /// Runs and times operation `key` inside a `bench` span. A panic fails
    /// the operation and yields `None`. A long operation may mark the
    /// host's speed between its parts (see [`HostSpeed::checkpoint`]).
    fn timed<T>(
        &mut self,
        key: usize,
        tr: &mut Tracer,
        name: &str,
        f: impl FnOnce(&mut Tracer, &mut HostSpeed) -> T,
    ) -> Option<T> {
        tr.next_op();
        self.attempted += 1;
        let (out, segments) = self.speed.time(|speed| {
            catch_unwind(AssertUnwindSafe(|| {
                tr.span("bench", name, |tr| f(tr, speed))
            }))
        });
        self.samples.push((key, tr.enabled(), segments));
        self.last_failed = false;
        if out.is_err() {
            tr.unwind();
            self.fail();
        }
        out.ok()
    }

    fn fail(&mut self) {
        self.failed += u64::from(!self.last_failed);
        self.last_failed = true;
    }

    /// Each operation's scaled times in the traced or untraced rounds.
    fn scaled(&self, traced: bool) -> BTreeMap<usize, Vec<f64>> {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (key, t, segments) in &self.samples {
            if *t == traced {
                by_key
                    .entry(*key)
                    .or_default()
                    .push(self.speed.scaled(segments));
            }
        }
        by_key
    }

    /// Latency of each operation in the untraced rounds.
    fn latencies(&self) -> Vec<f64> {
        self.scaled(false).values().map(|v| median(v)).collect()
    }

    /// Median over operations of traced over untraced latency, less 1.
    fn tracing_overhead(&self) -> f64 {
        let plain = self.scaled(false);
        let ratios: Vec<f64> = self
            .scaled(true)
            .iter()
            .filter_map(|(k, t)| plain.get(k).map(|p| median(t) / median(p)))
            .collect();
        median(&ratios) - 1.0
    }

    /// Fails the latest operation when `ok` is false.
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.fail();
        }
    }
}

/// Wall and CPU time of a closed loop.
#[derive(Debug, Default)]
struct Loop {
    rounds: usize,
    /// Rounds a traced run recorded spans for.
    traced_rounds: usize,
    wall_s: f64,
    cpu_s: f64,
}

impl Loop {
    /// Divisor turning a traced total into a per-round value.
    fn per_traced_round(&self) -> f64 {
        self.traced_rounds.max(1) as f64
    }
}

/// Runs `round` back to back until the next round would end past
/// `seconds` — at least once, and in a traced run at least twice, since
/// only every other round is traced (the rest give the untraced latencies
/// the tracing overhead is measured against).
fn closed_loop(opts: &RunOpts, tr: &mut Tracer, mut round: impl FnMut(usize, &mut Tracer)) -> Loop {
    let min_rounds = if opts.trace { 2 } else { 1 };
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let mut l = Loop::default();
    loop {
        let recorded = opts.trace && l.rounds % 2 == 0;
        tr.set_enabled(recorded);
        round(l.rounds, tr);
        l.rounds += 1;
        l.traced_rounds += usize::from(recorded);
        let elapsed = start.elapsed().as_secs_f64();
        if l.rounds >= min_rounds && elapsed + elapsed / l.rounds as f64 > opts.seconds {
            break;
        }
    }
    tr.set_enabled(false);
    l.wall_s = start.elapsed().as_secs_f64();
    l.cpu_s = host::process_cpu_s() - cpu0;
    l
}

/// Times repeated set-ups (see [`Sizes::setup_s`]), keeping the last one's
/// result, and returns their times in seconds, scaled to the reference
/// host. In a traced run each set-up is a `bench` span.
fn timed_setup<T>(
    opts: &RunOpts,
    tr: &mut Tracer,
    speed: &mut HostSpeed,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    tr.set_enabled(opts.trace);
    let mut times: Vec<Segments> = Vec::new();
    let mut total_ms = 0.0;
    let mut last = None;
    while times.len() < MIN_SETUP_REPS
        || (total_ms < opts.sizes().setup_s * 1e3 && times.len() < MAX_SETUP_REPS)
    {
        // Tear the previous set-up down (joining its pool's workers, say)
        // before the clock starts: set-up time excludes teardown.
        drop(last.take());
        let (out, segments) = speed.time(|_| tr.span("bench", "setup", &mut setup));
        last = Some(out);
        total_ms += segments.iter().map(|&(_, ms)| ms).sum::<f64>();
        times.push(segments);
    }
    tr.set_enabled(false);
    let scaled = times.iter().map(|s| speed.scaled(s) / 1e3).collect();
    (last.expect("at least one set-up ran"), scaled)
}

const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 1000;

/// Completes a run's outcome with the metrics every workload reports: the
/// end-to-end set for an untraced run, the shared per-layer ones (besides
/// the workload's own, in `m`) for a traced run.
fn finish(
    opts: &RunOpts,
    setup: &[f64],
    ops: Ops,
    l: &Loop,
    tr: Tracer,
    threads: usize,
    mut m: BTreeMap<String, f64>,
) -> Outcome {
    if opts.trace {
        m.insert("trace.overhead_frac".into(), ops.tracing_overhead());
        m.insert(
            "exec.cpu_util".into(),
            l.cpu_s / (threads as f64 * l.wall_s),
        );
        for (layer, s) in tr.self_time_s() {
            m.insert(format!("{layer}.self_s"), s / l.per_traced_round());
        }
        m.insert("bench.probe_ms".into(), median(&ops.speed.probe_times()));
    } else {
        let lat = ops.latencies();
        m.insert("setup_s".into(), median(setup));
        m.insert("op_p50_ms".into(), percentile(&lat, 50.0));
        m.insert("op_p75_ms".into(), percentile(&lat, 75.0));
    }
    Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: m,
        tracer: tr,
    }
}

/// The harness set-up shared by the simulation workloads: a pool of
/// `threads` workers (one runs every job inline), and the equal-work
/// isolation runs of `benches`, if any, at the `cycles` budget.
fn harness(
    cycles: u64,
    threads: usize,
    benches: &[Benchmark],
    tr: &mut Tracer,
) -> ExperimentContext {
    let ctx = ExperimentContext::with_pool(
        RunConfig {
            isolation_cycles: cycles,
            ..RunConfig::default()
        },
        ws_exec::Pool::new(threads),
    );
    if !benches.is_empty() {
        let refs: Vec<&Benchmark> = benches.iter().collect();
        tr.span("runner", "isolation_batch", |_| ctx.isolation_batch(&refs));
    }
    ctx
}

/// Median duration in seconds of the set-up isolation batches.
fn isolation_s(tr: &Tracer) -> f64 {
    median(&tr.durations_ms("runner", "isolation_batch")) / 1e3
}

// ---------------------------------------------------------------------------
// figures

/// The `experiments all` artifact list, in the order the binary prints it.
const ARTIFACTS: [&str; 18] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3a",
    "fig3b",
    "fig5",
    "fig6",
    "table3",
    "fig7",
    "fig8",
    "fig9",
    "energy",
    "fig10a",
    "fig10b",
    "large_config",
    "overhead",
    "ablation",
];

/// The artifacts whose compute step simulates, reported per layer.
const TIMED_ARTIFACTS: [&str; 13] = [
    "table2",
    "fig1",
    "fig3a",
    "fig3b",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "energy",
    "fig10a",
    "fig10b",
    "large_config",
    "ablation",
];

/// Figure data shared between artifacts within one pass.
#[derive(Default)]
struct Shared {
    six: Option<Fig6Data>,
    eight: Option<Vec<TripleResult>>,
}

impl Shared {
    fn six(&mut self, ctx: &ExperimentContext) -> &Fig6Data {
        self.six.get_or_insert_with(|| fig6::compute(ctx, false))
    }

    fn eight(&mut self, ctx: &ExperimentContext) -> &[TripleResult] {
        self.eight.get_or_insert_with(|| fig8::compute(ctx))
    }
}

/// Computes and renders one artifact, as `experiments <artifact>` does
/// (the `--full` sensitivity sweeps excluded).
fn artifact(name: &str, ctx: &ExperimentContext, sizes: &Sizes, shared: &mut Shared) -> String {
    let cycles = ctx.cfg.isolation_cycles;
    let window = sizes.figures_window;
    let subset = fig10::subset_pairs;
    match name {
        "table1" => table1::render(&ctx.cfg.gpu),
        "table2" => table2::render(&table2::compute(ctx)),
        "fig1" => fig1::render(&fig1::compute(ctx)),
        "fig2" => fig2::render(&fig2::compute()),
        "fig3a" => fig3::render(&fig3::compute(ctx, window)),
        "fig3b" => fig3::render_sweet_spot(&fig3::compute_sweet_spot(ctx, window)),
        "fig5" => fig5::render(
            &fig5::compute(ctx, sizes.fig5_window, 10),
            sizes.fig5_window,
        ),
        "fig6" => fig6::render(shared.six(ctx)),
        "table3" => table3::render(shared.six(ctx), &ctx.cfg.gpu),
        "fig7" => {
            let d = shared.six(ctx);
            format!(
                "{}\n{}\n{}",
                fig7::render_utilization(&fig7::utilization_ratios(d)),
                fig7::render_cache(d),
                fig7::render_stalls(d)
            )
        }
        "fig8" => fig8::render(shared.eight(ctx)),
        "fig9" => {
            let two = fig9::two_kernel(ctx, shared.six(ctx));
            let three = fig9::three_kernel(ctx, shared.eight(ctx));
            fig9::render(&two, &three)
        }
        "energy" => energy::render(&energy::compute(shared.six(ctx))),
        "fig10a" => fig10::render_timing(&fig10::compute_timing(ctx, &subset())),
        "fig10b" => fig10::render_schedulers(&fig10::compute_schedulers(cycles, &subset())),
        "large_config" => large_config::render(&large_config::compute(cycles, &subset())),
        "overhead" => overhead::render(),
        "ablation" => ablation::render(&ablation::compute(ctx, &subset())),
        other => panic!("unknown artifact {other}"),
    }
}

/// One pass over every artifact: the rendered texts and Warped-Slicer's
/// geometric-mean IPC gain over Left-Over (Fig. 6). The host's speed is
/// marked between artifacts, since a pass takes seconds.
fn figures_pass(
    ctx: &ExperimentContext,
    sizes: &Sizes,
    tr: &mut Tracer,
    speed: &mut HostSpeed,
) -> (Vec<(&'static str, String)>, f64) {
    let mut shared = Shared::default();
    let texts = ARTIFACTS
        .iter()
        .map(|&a| {
            speed.checkpoint();
            (
                a,
                tr.span_cpu("experiments", a, |_| artifact(a, ctx, sizes, &mut shared)),
            )
        })
        .collect();
    (texts, shared.six(ctx).gmeans().2)
}

/// Rendered artifacts at the standard budgets, keyed by artifact name.
pub fn figures_outputs() -> BTreeMap<String, String> {
    let sizes = Sizes::STANDARD;
    let ctx = harness(
        sizes.figures_cycles,
        THREADS,
        &extended_suite(),
        &mut Tracer::new(),
    );
    let (texts, _) = figures_pass(&ctx, &sizes, &mut Tracer::new(), &mut HostSpeed::new());
    texts.into_iter().map(|(a, t)| (a.to_string(), t)).collect()
}

fn figures(opts: &RunOpts) -> Outcome {
    let sizes = opts.sizes();
    let golden = golden::figures();
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let (ctx, setup) = timed_setup(opts, &mut tr, &mut ops.speed, |tr| {
        harness(sizes.figures_cycles, THREADS, &extended_suite(), tr)
    });
    let mut gain = 0.0;
    let jobs0 = ctx.pool().jobs_completed();
    let l = closed_loop(opts, &mut tr, |_, tr| {
        let Some((texts, g)) = ops.timed(0, tr, "figures_pass", |tr, speed| {
            figures_pass(&ctx, &sizes, tr, speed)
        }) else {
            return;
        };
        gain = g;
        if opts.golden() {
            let bad: Vec<&str> = texts
                .iter()
                .filter(|(a, t)| !golden.matches(a, t))
                .map(|(a, _)| *a)
                .collect();
            ops.check(
                bad.is_empty(),
                &format!("figures: golden mismatch in {bad:?}"),
            );
        }
    });
    let mut m = BTreeMap::new();
    if opts.trace {
        for a in TIMED_ARTIFACTS {
            let spans: Vec<_> = tr.matching("experiments", a).collect();
            let wall: Vec<f64> = spans.iter().map(|s| s.dur_ns as f64 / 1e9).collect();
            let util: Vec<f64> = spans
                .iter()
                .map(|s| {
                    s.cpu_s.unwrap_or(0.0) / (THREADS as f64 * (s.dur_ns as f64 / 1e9).max(1e-9))
                })
                .collect();
            m.insert(format!("experiments.{a}_s"), median(&wall));
            m.insert(format!("experiments.{a}_cpu_util"), median(&util));
        }
        let jobs = ctx.pool().jobs_completed() - jobs0;
        m.insert("exec.jobs".into(), jobs as f64 / l.rounds as f64);
        m.insert("runner.isolation_s".into(), isolation_s(&tr));
        m.insert("policy.ipc_gain_vs_leftover".into(), gain);
    }
    finish(opts, &setup, ops, &l, tr, THREADS, m)
}

// ---------------------------------------------------------------------------
// corun_dense and corun_sparse

/// One co-run job of a round.
struct CorunJob {
    label: String,
    job: SimJob,
}

/// Every outcome field except the fast-forward skip counter, which is
/// diagnostic: the statistics must not depend on whether cycles were
/// skipped.
fn fingerprint(out: &SimOutcome) -> String {
    format!(
        "{:?} {:?} {} {} {:?} {} {:?} {:?} {:?} {:?} {:?}",
        out.start_insts,
        out.end_insts,
        out.measured_cycles,
        out.total_cycles,
        out.finish_cycle,
        out.timed_out,
        out.stats,
        out.decision,
        out.last_progress_cycle,
        out.trace,
        out.audit
    )
}

/// The 30 co-run jobs. Dense: the equal-work pairs as Fig. 6 runs them.
/// Sparse: the first kernel's grid cut to one wave and the second's to
/// two, and the targets made unreachable, so the drained machine runs to
/// the `max_cycle_factor` cap.
fn corun_jobs(ctx: &ExperimentContext, sparse: bool) -> Vec<CorunJob> {
    let policy = ctx.dynamic_policy();
    all_pairs()
        .iter()
        .map(|p| {
            let (targets, descs) = if sparse {
                let cut = |b: &Benchmark, waves: u64| {
                    let mut d = b.desc.clone();
                    let wave = u64::from(ctx.cfg.gpu.num_sms) * u64::from(ctx.max_ctas(b));
                    d.grid_ctas = d.grid_ctas.min(wave * waves);
                    d
                };
                (vec![u64::MAX; 2], vec![cut(&p.a, 1), cut(&p.b, 2)])
            } else {
                (
                    ctx.targets(&[&p.a, &p.b]),
                    vec![p.a.desc.clone(), p.b.desc.clone()],
                )
            };
            let refs: Vec<&gpu_sim::KernelDesc> = descs.iter().collect();
            CorunJob {
                label: p.label(),
                job: SimJob::corun(&refs, &targets, &policy, &ctx.cfg),
            }
        })
        .collect()
}

/// The kernels whose equal-work targets a co-run workload needs: the suite
/// for dense runs, none for sparse runs, whose targets are unreachable.
fn equal_work(sparse: bool) -> Vec<Benchmark> {
    if sparse {
        Vec::new()
    } else {
        suite()
    }
}

/// Fingerprints of every co-run job at the standard budget, keyed by pair.
pub fn corun_outputs(sparse: bool) -> BTreeMap<String, String> {
    let sizes = Sizes::STANDARD;
    let cycles = if sparse {
        sizes.sparse_cycles
    } else {
        sizes.dense_cycles
    };
    let ctx = harness(cycles, 1, &equal_work(sparse), &mut Tracer::new());
    corun_jobs(&ctx, sparse)
        .iter()
        .map(|j| (j.label.clone(), fingerprint(&execute(&j.job))))
        .collect()
}

/// Simulator and policy counters over one round of co-runs.
#[derive(Debug, Default)]
struct SimCounters {
    insts: u64,
    cycles: u64,
    skipped: u64,
    timed_out: u64,
    decided_at: Vec<f64>,
    spatial_fallbacks: u64,
}

fn corun(opts: &RunOpts) -> Outcome {
    let sizes = opts.sizes();
    let sparse = opts.workload == Workload::CorunSparse;
    let cycles = if sparse {
        sizes.sparse_cycles
    } else {
        sizes.dense_cycles
    };
    let golden = opts.golden().then(|| {
        if sparse {
            golden::corun_sparse()
        } else {
            golden::corun_dense()
        }
    });
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let (jobs, setup) = timed_setup(opts, &mut tr, &mut ops.speed, |tr| {
        corun_jobs(&harness(cycles, 1, &equal_work(sparse), tr), sparse)
    });
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut rng = SimRng::seed_from_u64(opts.seed ^ ORDER_SEED);
    let mut first: BTreeMap<usize, String> = BTreeMap::new();
    let mut c = SimCounters::default();
    // One thread throughout: set-up and jobs both run on the caller.
    let l = closed_loop(opts, &mut tr, |r, tr| {
        rng.shuffle(&mut order);
        for &i in &order {
            let j = &jobs[i];
            let Some(out) = ops.timed(i, tr, "corun", |tr, _| {
                tr.span("runner", "execute", |_| execute(&j.job))
            }) else {
                continue;
            };
            let fp = fingerprint(&out);
            let expected = golden.as_ref().map_or_else(
                || *first.entry(i).or_insert_with(|| fp.clone()) == fp,
                |g| g.matches(&j.label, &fp),
            );
            ops.check(
                expected,
                &format!(
                    "{}: {} outcome differs from golden",
                    opts.workload.name(),
                    j.label
                ),
            );
            if !sparse {
                ops.check(
                    !out.timed_out,
                    &format!("corun_dense: {} timed out", j.label),
                );
            }
            if r == 0 {
                c.insts += out.stats.insts;
                c.cycles += out.total_cycles;
                c.skipped += out.ff_skipped_cycles;
                c.timed_out += u64::from(out.timed_out);
                if let Some(d) = &out.decision {
                    c.decided_at.push(d.decided_at as f64);
                    c.spatial_fallbacks += u64::from(d.spatial_fallback);
                }
            }
        }
    });
    let mut m = BTreeMap::new();
    if opts.trace {
        let exec_ms = tr.durations_ms("runner", "execute");
        let exec_s: f64 = exec_ms.iter().sum::<f64>() / 1e3;
        let ticked = c.cycles - c.skipped;
        let rounds = l.per_traced_round();
        m.insert("runner.execute_p50_ms".into(), median(&exec_ms));
        m.insert("runner.execute_max_ms".into(), percentile(&exec_ms, 100.0));
        m.insert("runner.isolation_s".into(), isolation_s(&tr));
        m.insert("gpu_sim.sim_insts".into(), c.insts as f64);
        m.insert("gpu_sim.total_cycles".into(), c.cycles as f64);
        m.insert("gpu_sim.ticked_cycles".into(), ticked as f64);
        m.insert(
            "gpu_sim.ff_skipped_frac".into(),
            c.skipped as f64 / c.cycles.max(1) as f64,
        );
        m.insert(
            "gpu_sim.ns_per_ticked_cycle".into(),
            exec_s * 1e9 / (rounds * ticked.max(1) as f64),
        );
        m.insert(
            "gpu_sim.sim_insts_per_s".into(),
            rounds * c.insts as f64 / exec_s.max(1e-9),
        );
        m.insert("gpu_sim.timed_out_jobs".into(), c.timed_out as f64);
        m.insert("policy.decided_at_p50".into(), median(&c.decided_at));
        m.insert(
            "policy.spatial_fallbacks".into(),
            c.spatial_fallbacks as f64,
        );
    }
    finish(opts, &setup, ops, &l, tr, 1, m)
}

// ---------------------------------------------------------------------------
// decide_cold and decide_repeat

/// The profile-to-decide pipeline's fixed inputs.
struct Decider {
    pool: ws_exec::Pool,
    cfg: RunConfig,
    window: u64,
}

/// Counters over the decisions of one round.
#[derive(Debug, Default)]
struct DecideCounters {
    cold: u64,
    samples_run: usize,
    planned_samples: usize,
    full_samples: usize,
    saved_samples: usize,
    pruned_planned: usize,
    pruned_accepted: usize,
    waterfill_calls: u64,
}

impl Decider {
    fn new(cycles: u64, window: u64) -> Self {
        Self {
            pool: ws_exec::Pool::new(THREADS),
            cfg: RunConfig {
                isolation_cycles: cycles,
                ..RunConfig::default()
            },
            window,
        }
    }

    /// Decides one arrival of `pair`: derive both kernels' signatures and
    /// look them up; on any miss, plan the pruned sweep, profile, and
    /// insert the measured curves after water-filling. Returns the quota
    /// vector (empty when no intra-SM partition fits) and whether the
    /// decision was cold.
    fn decide(
        &self,
        pair: &Pair,
        store: &mut CurveStore,
        tr: &mut Tracer,
        c: &mut DecideCounters,
    ) -> (Vec<u32>, bool) {
        let gpu = &self.cfg.gpu;
        let descs = [&pair.a.desc, &pair.b.desc];
        let sigs: Vec<KernelSignature> = descs
            .iter()
            .map(|d| {
                tr.span("store", "derive", |_| KernelSignature::derive(d, gpu))
                    .expect("suite kernels pass pre-flight")
            })
            .collect();
        let cached: Vec<Option<Vec<f64>>> = sigs
            .iter()
            .map(|s| {
                tr.span("store", "lookup", |_| {
                    store.lookup(&s.key).map(|e| e.perf.clone())
                })
            })
            .collect();
        let cold = cached.iter().any(Option::is_none);
        let curves: Vec<Vec<f64>> = if cold {
            let maxes = descs.map(|d| d.max_ctas_per_sm(&gpu.sm));
            let plan = tr.span("predict", "plan", |_| {
                SweepPlan::from_predictions(&descs, &maxes, gpu)
            });
            let swept = tr.span("sweep", "profile_curves_planned", |_| {
                profile_curves_planned(&self.pool, &descs, &plan, self.window, &self.cfg)
            });
            c.cold += 1;
            c.samples_run += swept.samples_run;
            c.planned_samples += plan.planned_samples();
            c.full_samples += plan.full_samples();
            c.saved_samples += plan.samples_saved();
            c.pruned_planned += plan.windows.iter().filter(|w| !w.is_full()).count();
            c.pruned_accepted += swept.pruned.iter().filter(|&&p| p).count();
            swept.curves
        } else {
            cached.into_iter().flatten().collect()
        };
        let kernels: Vec<KernelCurve> = curves
            .iter()
            .zip(descs)
            .map(|(perf, d)| KernelCurve {
                perf: perf.clone(),
                cta_cost: ResourceVec::cta_cost(d),
            })
            .collect();
        c.waterfill_calls += 1;
        let part = tr.span("waterfill", "water_fill", |_| {
            water_fill(&kernels, ResourceVec::sm_capacity(&gpu.sm))
        });
        if cold {
            for (sig, perf) in sigs.iter().zip(curves) {
                let entry = StoreEntry::measured(sig, perf);
                tr.span("store", "insert", |_| store.insert(sig.key, entry));
            }
        }
        (part.map(|p| p.ctas).unwrap_or_default(), cold)
    }
}

/// A quota vector as the text its golden digest covers.
fn quota_text(q: &[u32]) -> String {
    q.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// Every pair's cold decision at the standard budget, keyed by pair.
pub fn decide_outputs() -> BTreeMap<String, String> {
    let sizes = Sizes::STANDARD;
    let d = Decider::new(sizes.decide_cycles, sizes.decide_window);
    all_pairs()
        .iter()
        .map(|p| {
            let (q, _) = d.decide(
                p,
                &mut CurveStore::default(),
                &mut Tracer::new(),
                &mut DecideCounters::default(),
            );
            (p.label(), quota_text(&q))
        })
        .collect()
}

/// `n` arrivals over the pairs in seeded order, each with the kernel key to
/// invalidate first.
///
/// The seed changes only the order. Each pair arrives a fixed number of
/// times, its Zipf share of `n` (popularity falls with the pair's position
/// in `all_pairs()`; shares rounded by largest remainder), and every
/// [`REPEAT_INVALIDATE_EVERY`]th arrival invalidates the next kernel of a
/// seeded permutation of the suite. Drawing each arrival independently
/// instead moved the pair mix, and with it the percentiles, from seed to
/// seed.
fn repeat_trace(
    n: usize,
    pairs: usize,
    seed: u64,
    gpu: &gpu_sim::GpuConfig,
) -> Vec<(usize, Option<CurveKey>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let weights: Vec<f64> = (1..=pairs).map(|r| (r as f64).powf(-REPEAT_ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pairs).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &p in by_remainder.iter().take(short) {
        counts[p] += 1;
    }
    let mut arrivals: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(p, &c)| std::iter::repeat_n(p, c))
        .collect();
    rng.shuffle(&mut arrivals);
    let mut keys: Vec<CurveKey> = suite()
        .iter()
        .map(|b| {
            KernelSignature::derive(&b.desc, gpu)
                .expect("suite kernels pass pre-flight")
                .key
        })
        .collect();
    rng.shuffle(&mut keys);
    let mut next_key = keys.iter().cycle();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, pair)| {
            let invalidate = ((i + 1) % REPEAT_INVALIDATE_EVERY == 0)
                .then(|| *next_key.next().expect("the suite has kernels"));
            (pair, invalidate)
        })
        .collect()
}

fn decide(opts: &RunOpts) -> Outcome {
    let sizes = opts.sizes();
    let repeat = opts.workload == Workload::DecideRepeat;
    let golden = opts.golden().then(golden::decide);
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    // Set-up: the pool, the suite's pairs and, for `decide_repeat`, the
    // arrival trace (which derives every suite kernel's signature).
    let ((decider, pairs, trace), setup) = timed_setup(opts, &mut tr, &mut ops.speed, |_| {
        let decider = Decider::new(sizes.decide_cycles, sizes.decide_window);
        let pairs = all_pairs();
        let trace = if repeat {
            repeat_trace(
                sizes.repeat_arrivals,
                pairs.len(),
                opts.seed,
                &decider.cfg.gpu,
            )
        } else {
            Vec::new()
        };
        (decider, pairs, trace)
    });
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut rng = SimRng::seed_from_u64(opts.seed ^ ORDER_SEED);
    let mut cold_quotas: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let mut c = DecideCounters::default();
    let mut store_stats = None;
    let jobs0 = decider.pool.jobs_completed();
    let l = closed_loop(opts, &mut tr, |r, tr| {
        let mut round = DecideCounters::default();
        let mut store = CurveStore::new(REPEAT_CAPACITY);
        // (operation key, pair, key to invalidate first): a repeat round
        // replays the trace, a cold round decides every pair once.
        let arrivals: Vec<(usize, usize, Option<CurveKey>)> = if repeat {
            trace
                .iter()
                .enumerate()
                .map(|(i, &(p, invalidate))| (i, p, invalidate))
                .collect()
        } else {
            rng.shuffle(&mut order);
            order.iter().map(|&p| (p, p, None)).collect()
        };
        for (key, p, invalidate) in arrivals {
            let pair = &pairs[p];
            if !repeat {
                store = CurveStore::new(DEFAULT_STORE_CAPACITY);
            }
            let decided = ops.timed(key, tr, "decide", |tr, _| {
                if let Some(key) = invalidate {
                    tr.span("store", "invalidate", |_| store.invalidate(&key));
                }
                decider.decide(pair, &mut store, tr, &mut round)
            });
            let Some((quotas, cold)) = decided else {
                continue;
            };
            let label = pair.label();
            if let Some(g) = &golden {
                ops.check(
                    g.matches(&label, &quota_text(&quotas)),
                    &format!("{label}: quotas {quotas:?} differ from golden"),
                );
            }
            if cold {
                cold_quotas.insert(p, quotas);
            } else if let Some(q) = cold_quotas.get(&p) {
                ops.check(
                    *q == quotas,
                    &format!("{label}: warm quotas {quotas:?} differ from cold {q:?}"),
                );
            }
        }
        if r == 0 {
            c = round;
            store_stats = Some(store.stats());
        }
    });
    let mut m = BTreeMap::new();
    if opts.trace {
        let us = |name: &str| median(&tr.durations_ms("store", name)) * 1e3;
        let s = store_stats.unwrap_or_default();
        let jobs = decider.pool.jobs_completed() - jobs0;
        m.insert("exec.jobs".into(), jobs as f64 / l.rounds as f64);
        m.insert(
            "predict.plan_p50_ms".into(),
            median(&tr.durations_ms("predict", "plan")),
        );
        m.insert(
            "predict.samples_saved_frac".into(),
            c.saved_samples as f64 / c.full_samples.max(1) as f64,
        );
        m.insert(
            "sweep.profile_p50_ms".into(),
            median(&tr.durations_ms("sweep", "profile_curves_planned")),
        );
        m.insert("sweep.samples_run".into(), c.samples_run as f64);
        m.insert(
            "sweep.samples_per_decision".into(),
            c.samples_run as f64 / c.cold.max(1) as f64,
        );
        m.insert(
            "sweep.fallback_samples".into(),
            (c.samples_run - c.planned_samples) as f64,
        );
        m.insert(
            "sweep.pruned_accept_frac".into(),
            c.pruned_accepted as f64 / c.pruned_planned.max(1) as f64,
        );
        m.insert(
            "waterfill.p50_us".into(),
            median(&tr.durations_ms("waterfill", "water_fill")) * 1e3,
        );
        m.insert("waterfill.calls".into(), c.waterfill_calls as f64);
        m.insert("store.derive_p50_us".into(), us("derive"));
        m.insert("store.lookup_p50_us".into(), us("lookup"));
        m.insert("store.insert_p50_us".into(), us("insert"));
        m.insert(
            "store.hit_rate".into(),
            s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        );
        m.insert("store.evictions".into(), s.evictions as f64);
        m.insert("store.invalidations".into(), s.invalidations as f64);
    }
    finish(opts, &setup, ops, &l, tr, THREADS, m)
}
