//! # ws-exec
//!
//! A deterministic parallel execution layer for the Warped-Slicer harness.
//!
//! The decision pipeline this repository reproduces is embarrassingly
//! parallel: the online profiling phase evaluates one CTA count per SM as
//! `K x N` *independent* simulations, and the experiment suite multiplies
//! that by pairs, triples, policies and sensitivity variants. [`Pool`] runs
//! that work on **persistent worker threads** while keeping the output
//! *byte-identical* to a serial run:
//!
//! * jobs are numbered on submission and results are collected **by job
//!   index**, so the returned `Vec` never depends on scheduling order;
//! * each job is a pure function of its description — workers share no
//!   mutable state with the jobs;
//! * with one worker everything runs inline on the caller's thread, which
//!   is exactly the pre-pool serial harness.
//!
//! ## Execution model
//!
//! A pool with `threads > 1` spawns its workers once, at construction, and
//! keeps them waiting until work arrives. Every submission goes onto **one
//! shared FIFO queue**; any idle worker takes the job at its front. Each
//! job is a whole simulation (milliseconds long), so the one lock sees no
//! contention worth spreading out, and a job never waits behind a busy
//! worker while another sits idle. Determinism is unaffected: finish order
//! may vary run to run, but results are keyed by submission index and
//! every job is pure.
//!
//! There is one way into the pool, the **stream** ([`Pool::stream`]):
//! submit jobs one at a time with [`Stream::submit`] and drain completions
//! *as they finish*, so downstream work (curve acceptance, fallback
//! resubmission) can overlap with simulation still in flight — see
//! `profile_curves_planned`. [`Stream::submit`] is the only code that
//! queues a task on the workers or runs one inline. [`Pool::run`] is the
//! drain helper over it: submit a slice of jobs, drain every completion,
//! and return the results in submission order.
//!
//! The worker count comes from `WS_EXEC_THREADS` (default: the machine's
//! available parallelism; `1` forces serial execution). A panicking job
//! fails *that job*, not the process: a stream yields `Err(JobPanic)` for
//! it, and [`Pool::run`] drains the whole batch before re-raising the
//! failure with the lowest job index — deterministic whichever worker ran
//! the panicking job and whenever it finished.
//!
//! The crate is deliberately `std`-only and free of simulator types: the
//! job model (`SimJob`) lives in `warped-slicer`'s runner, which depends on
//! this crate, not the other way around.
//!
//! All thread use in this crate binds and joins its worker handles (the
//! pool's `Drop` joins every worker), and no completion channel receive is
//! silently discarded; the `no-unchecked-spawn` rule of `cargo xtask lint`
//! pins both invariants.

// `contain` maps a job's panic to `JobPanic` by unwinding; under
// `panic = "abort"` that panic would end the whole process instead. Test
// builds always unwind, so only this guard catches such a release profile.
#[cfg(panic = "abort")]
compile_error!("ws-exec contains job panics with catch_unwind: build with panic = \"unwind\"");

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable controlling the worker count.
pub const THREADS_ENV: &str = "WS_EXEC_THREADS";

/// Identifies one job within a batch or stream (its submission index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A job that panicked instead of returning a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Which job failed.
    pub id: JobId,
    /// The panic payload rendered as text (when it was a string).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} panicked: {}", self.id, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Per-job result a [`Stream`] yields: the job's value, or its panic.
pub type JobResult<R> = Result<R, JobPanic>;

/// Parses a [`THREADS_ENV`] value: a positive worker count (surrounding
/// whitespace allowed); anything else is `Err`, naming the variable and
/// the accepted values.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{THREADS_ENV}={value:?} is not a worker count; accepted values: a positive \
             integer (1 runs serially; unset uses every core)"
        )),
    }
}

/// Turns a [`THREADS_ENV`] value into a worker count through
/// [`parse_threads`]. `None` or a rejected value (`0`, empty, unparsable)
/// falls back to the machine's available parallelism (itself falling back
/// to 1); the binaries reject such a value at start-up instead.
#[must_use]
pub fn threads_from_env(value: Option<&str>) -> usize {
    value
        .and_then(|v| parse_threads(v).ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A queued unit of work: the job closure plus its result plumbing.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// What the pool handle and its workers share: the queued tasks and the
/// shutdown flag under one lock, and the condvar idle workers wait on.
#[derive(Default)]
struct Core {
    queue: Mutex<Queue>,
    cond: Condvar,
}

/// The state guarded by [`Core`]'s lock.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

impl Core {
    /// Locks the queue. Tasks run outside the lock, so a poisoned lock
    /// still guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a task and wakes one waiting worker.
    fn push(&self, task: Task) {
        self.lock().tasks.push_back(task);
        self.cond.notify_one();
    }

    /// The persistent worker body: take the front task and run it until
    /// shutdown, waiting on the condvar while the queue is empty. Shutdown
    /// wins over queued work, so a pool dropped with jobs still queued
    /// exits promptly; the tasks it strands are discarded by [`Pool`]'s
    /// `Drop` (nothing can be waiting on them — streams borrow the pool).
    fn worker_loop(&self) {
        loop {
            let mut queue = self
                .cond
                .wait_while(self.lock(), |q| !q.shutdown && q.tasks.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            if queue.shutdown {
                return;
            }
            let task = queue.tasks.pop_front();
            drop(queue);
            if let Some(task) = task {
                task();
            }
        }
    }
}

/// A deterministic persistent worker pool over one shared job queue.
///
/// Workers are spawned once at construction and live until the pool is
/// dropped; `Drop` signals shutdown and joins every worker handle. With
/// `threads == 1` no workers exist and every submission runs inline on the
/// caller's thread (the serial harness, bit for bit).
pub struct Pool {
    threads: usize,
    core: Option<Arc<Core>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    completed: Arc<AtomicU64>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("jobs_completed", &self.jobs_completed())
            .finish()
    }
}

impl Pool {
    /// Creates a pool with a fixed worker count (clamped to at least 1).
    /// Counts above 1 spawn that many persistent workers immediately.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let core = (threads > 1).then(|| Arc::new(Core::default()));
        let workers = match &core {
            None => Vec::new(),
            Some(core) => (0..threads)
                .map(|i| {
                    let core = Arc::clone(core);
                    let spawned = std::thread::Builder::new()
                        .name(format!("ws-exec-{i}"))
                        .spawn(move || core.worker_loop());
                    match spawned {
                        Ok(handle) => handle,
                        Err(e) => panic!("ws-exec: could not spawn worker thread {i}: {e}"),
                    }
                })
                .collect(),
        };
        Self {
            threads,
            core,
            workers,
            completed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a pool sized by `WS_EXEC_THREADS` (see [`threads_from_env`]).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(threads_from_env(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total jobs completed over the pool's lifetime (including panicked
    /// ones) — the harness's per-experiment job counter.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Opens a completion stream: submit jobs one at a time with
    /// [`Stream::submit`], drain results in *finish order* with
    /// [`Stream::next`]. Job ids number the stream's submissions from 0.
    #[must_use]
    pub fn stream<R: Send + 'static>(&self) -> Stream<'_, R> {
        let (tx, rx) = mpsc::channel();
        Stream {
            pool: self,
            tx,
            rx,
            submitted: 0,
            delivered: 0,
        }
    }

    /// Runs `f` over every job, returning one result per job **in
    /// submission order** — the drain helper over [`Pool::stream`].
    ///
    /// Every job is submitted, every completion drained into a pre-sized
    /// slot keyed by its [`JobId`] (one writer per slot, on the caller's
    /// thread, no locks), so the output is identical for any worker count.
    /// A panic inside `f` is contained to its job; the batch runs to the
    /// end, and every job counts toward [`Pool::jobs_completed`].
    ///
    /// # Panics
    ///
    /// Once the whole batch has drained, re-raises the failed job with the
    /// lowest index on the caller's thread — deterministic regardless of
    /// worker count, finish order, or which worker ran the panicking job.
    /// Also panics if the executor's delivery invariant breaks (a result
    /// slot filled twice or never filled) — a bug in the executor itself,
    /// never in `f`.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Clone + Send + 'static,
        R: Send + 'static,
        F: Fn(&J) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut stream = self.stream();
        for job in jobs {
            let (f, job) = (Arc::clone(&f), job.clone());
            stream.submit(move || f(&job));
        }
        let mut slots: Vec<Option<JobResult<R>>> = (0..jobs.len()).map(|_| None).collect();
        for (id, r) in stream {
            match slots.get_mut(id.0) {
                Some(slot @ None) => *slot = Some(r),
                Some(Some(_)) => panic!("ws-exec invariant violated: {id} completed twice"),
                None => panic!(
                    "ws-exec invariant violated: unknown {id} in a batch of {}",
                    jobs.len()
                ),
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(Ok(v)) => v,
                Some(Err(p)) => panic!("{p}"),
                None => panic!("ws-exec invariant violated: job#{i} never delivered a result"),
            })
            .collect()
    }
}

impl Drop for Pool {
    /// Signals shutdown, joins every worker, and discards tasks still
    /// queued (no [`Stream`] can outlive the pool — it borrows it — so no
    /// result is ever silently lost to a waiter).
    fn drop(&mut self) {
        let Some(core) = self.core.take() else { return };
        core.lock().shutdown = true;
        core.cond.notify_all();
        let mut worker_panic = None;
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                worker_panic = Some(payload);
            }
        }
        core.lock().tasks.clear();
        if let Some(payload) = worker_panic {
            // Workers contain job panics with catch_unwind, so a panic
            // escaping the worker loop is an executor bug: surface it.
            std::panic::resume_unwind(payload);
        }
    }
}

/// A streaming submission session on a [`Pool`].
///
/// Jobs submitted through one stream are numbered `0, 1, 2, ...` in
/// submission order; [`Stream::next`] yields `(JobId, JobResult)` pairs in
/// **completion order**, which lets callers overlap downstream computation
/// with jobs still in flight. On a serial pool each submission runs inline,
/// so completions arrive in submission order — the degenerate
/// (deterministically ordered) case of the same API.
pub struct Stream<'p, R: Send + 'static> {
    pool: &'p Pool,
    tx: mpsc::Sender<(JobId, JobResult<R>)>,
    rx: mpsc::Receiver<(JobId, JobResult<R>)>,
    submitted: usize,
    delivered: usize,
}

impl<R: Send + 'static> Stream<'_, R> {
    /// Submits one job; returns its stream-local id.
    ///
    /// This is the pool's only way in: on a serial pool the job runs
    /// inline before this returns, otherwise it is queued on the workers.
    /// Either way a panic is contained to that job's [`JobPanic`], the job
    /// counts toward [`Pool::jobs_completed`] once it has run, and its
    /// result goes through the stream's channel.
    pub fn submit<F>(&mut self, f: F) -> JobId
    where
        F: FnOnce() -> R + Send + 'static,
    {
        let id = JobId(self.submitted);
        self.submitted += 1;
        let tx = self.tx.clone();
        let completed = Arc::clone(&self.pool.completed);
        let task = move || {
            let r = contain(id, f);
            completed.fetch_add(1, Ordering::Relaxed);
            // A dropped stream discards in-flight results on purpose;
            // completion accounting already happened.
            let _ = tx.send((id, r));
        };
        match &self.pool.core {
            None => task(),
            Some(core) => core.push(Box::new(task)),
        }
        id
    }
}

impl<R: Send + 'static> Iterator for Stream<'_, R> {
    type Item = (JobId, JobResult<R>);

    /// Blocks for the next completion, in finish order; `None` once every
    /// submitted job has been delivered. More jobs may be submitted after
    /// a `None` — the stream then resumes yielding.
    fn next(&mut self) -> Option<(JobId, JobResult<R>)> {
        if self.delivered == self.submitted {
            return None;
        }
        // The stream holds its own sender clone, so the channel can never
        // disconnect while jobs are outstanding: recv blocks until a
        // worker finishes one.
        match self.rx.recv() {
            Ok(done) => {
                self.delivered += 1;
                Some(done)
            }
            Err(_) => panic!(
                "ws-exec invariant violated: stream channel closed with {} jobs in flight",
                self.submitted - self.delivered
            ),
        }
    }
}

/// Runs one job closure under `catch_unwind`, mapping a panic to
/// [`JobPanic`].
fn contain<R>(id: JobId, f: impl FnOnce() -> R) -> JobResult<R> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| JobPanic {
        id,
        message: panic_message(payload.as_ref()),
    })
}

/// Renders a panic payload: `&str` and `String` payloads verbatim,
/// anything else as a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Deterministic busy-work whose cost scales with `n` — the exec-level
    /// stand-in for a simulation window of `n` cycles.
    fn spin(n: u64) -> u64 {
        let mut acc = n;
        for i in 0..n {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    }

    /// Drains `stream` and places its results by job id, asserting each of
    /// its `n` submissions is delivered exactly once.
    fn drain_by_id<R: Send + 'static>(stream: Stream<'_, R>, n: usize) -> Vec<JobResult<R>> {
        let mut slots: Vec<Option<JobResult<R>>> = (0..n).map(|_| None).collect();
        for (id, r) in stream {
            let slot = slots
                .get_mut(id.0)
                .unwrap_or_else(|| panic!("unknown {id}"));
            assert!(slot.is_none(), "{id} delivered twice");
            *slot = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("job#{i} never delivered")))
            .collect()
    }

    #[test]
    fn results_are_ordered_by_job_id_for_any_worker_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let serial = Pool::new(1).run(&jobs, |&j| j * j);
        for threads in [2, 3, 8, 64] {
            let parallel = Pool::new(threads).run(&jobs, |&j| j * j);
            assert_eq!(serial, parallel, "{threads} workers reorder results");
        }
    }

    #[test]
    fn job_ids_match_submission_indices() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let mut stream = pool.stream::<usize>();
            let ids: Vec<JobId> = (0..40).map(|i| stream.submit(move || i)).collect();
            assert_eq!(ids, (0..40).map(JobId).collect::<Vec<_>>());
            for (id, r) in stream {
                assert_eq!(r, Ok(id.0), "threads={threads}");
            }
        }
    }

    #[test]
    fn skewed_job_sizes_stay_deterministic_in_parallel() {
        // One 40k-unit job among 2k-unit jobs: the other workers drain the
        // queue while one runs the heavy job, so finish order diverges
        // from submission order.
        let jobs: Vec<u64> = (0..48)
            .map(|i| if i == 5 { 40_000 } else { 2_000 })
            .collect();
        let serial = Pool::new(1).run(&jobs, |&j| spin(j));
        let parallel = Pool::new(8).run(&jobs, |&j| spin(j));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn a_blocked_job_holds_back_no_other_job() {
        // Job 0 blocks until every other job of its stream has finished,
        // so the batch completes only if the second worker takes all of
        // them while the first is pinned. The wait is bounded: a job stuck
        // behind job 0 fails the test instead of hanging it.
        const JOBS: usize = 12;
        let pool = Pool::new(2);
        let finished = Arc::new(Mutex::new(Vec::new()));
        let mut stream = pool.stream::<usize>();
        for i in 0..JOBS {
            let finished = Arc::clone(&finished);
            stream.submit(move || {
                let count = || {
                    finished
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .len()
                };
                let start = std::time::Instant::now();
                while i == 0 && count() < JOBS - 1 {
                    assert!(
                        start.elapsed() < std::time::Duration::from_secs(10),
                        "job 0 waited 10 s for the other jobs: {} of {} finished",
                        count(),
                        JOBS - 1
                    );
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                finished
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(i);
                i * 10
            });
        }
        for (i, r) in drain_by_id(stream, JOBS).into_iter().enumerate() {
            assert_eq!(r, Ok(i * 10), "job {i}");
        }
        let order = finished.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(order.len(), JOBS);
        assert_eq!(order.last(), Some(&0), "job 0 finished last: {order:?}");
    }

    #[test]
    fn panicking_job_fails_that_job_not_the_process() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let mut stream = pool.stream::<u32>();
            for j in 0..20u32 {
                stream.submit(move || {
                    assert!(j != 7 && j != 13, "job {j} exploded");
                    j + 100
                });
            }
            let results = drain_by_id(stream, 20);
            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok(v) if i != 7 && i != 13 => assert_eq!(*v, i as u32 + 100),
                    Err(p) if i == 7 || i == 13 => {
                        assert_eq!(p.id, JobId(i));
                        assert!(p.message.contains("exploded"), "{}", p.message);
                    }
                    other => panic!("job {i} ({threads} threads): unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn panicking_job_behind_a_heavy_one_is_contained_and_attributed() {
        // A heavy head job pins one worker, so the trailing jobs —
        // including the panicking one — run on the others; containment
        // and attribution must be identical to the serial run.
        let pool = Pool::new(8);
        let mut stream = pool.stream::<u64>();
        for i in 0..64usize {
            let weight = if i == 0 { 40_000 } else { 200 };
            stream.submit(move || {
                assert!(i != 57, "trailing job exploded");
                spin(weight)
            });
        }
        for (i, r) in drain_by_id(stream, 64).iter().enumerate() {
            match r {
                Err(p) if i == 57 => assert_eq!(p.id, JobId(57)),
                Ok(_) if i != 57 => {}
                other => panic!("job {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "job#3 panicked")]
    fn run_reraises_the_first_failure_deterministically() {
        let jobs: Vec<u32> = (0..32).collect();
        let _ = Pool::new(8).run(&jobs, |&j| {
            assert!(j < 3 || j % 3 != 0, "multiple of three");
            j
        });
    }

    #[test]
    fn run_drains_every_job_before_reraising() {
        // Job 2 panics only after job 9 has panicked (it waits for 9's
        // flag, then lingers), so 9 is the first failure to finish. `run`
        // must still drain the whole batch and re-raise the lowest index.
        let pool = Pool::new(8);
        let light_failed = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<usize> = (0..16).collect();
        let flag = Arc::clone(&light_failed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&jobs, move |&j| {
                if j == 2 {
                    let start = std::time::Instant::now();
                    while flag.load(Ordering::Acquire) == 0
                        && start.elapsed() < std::time::Duration::from_secs(5)
                    {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("heavy job exploded");
                }
                if j == 9 {
                    flag.store(1, Ordering::Release);
                    panic!("light job exploded");
                }
                spin(200)
            })
        }));
        let payload = match outcome {
            Ok(v) => panic!("batch should have failed, got {v:?}"),
            Err(payload) => payload,
        };
        let message = panic_message(payload.as_ref());
        assert!(message.starts_with("job#2 panicked"), "{message}");
        assert_eq!(light_failed.load(Ordering::Acquire), 1);
        assert_eq!(pool.jobs_completed(), 16);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = Pool::new(4).run(&Vec::<u8>::new(), |&j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_completed_counts_across_batches() {
        let pool = Pool::new(2);
        let _ = pool.run(&[(); 5], |()| ());
        let mut stream = pool.stream::<()>();
        for i in 0..3usize {
            stream.submit(move || assert!(i > 0, "zero"));
        }
        let failed = drain_by_id(stream, 3).iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1);
        assert_eq!(pool.jobs_completed(), 8);
    }

    #[test]
    fn thread_count_parsing_falls_back_to_parallelism() {
        assert_eq!(threads_from_env(Some("6")), 6);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
        let default = threads_from_env(None);
        assert!(default >= 1);
        assert_eq!(threads_from_env(Some("0")), default);
        assert_eq!(threads_from_env(Some("")), default);
        assert_eq!(threads_from_env(Some("lots")), default);
        assert_eq!(threads_from_env(Some("-3")), default);
    }

    #[test]
    fn strict_thread_parsing_names_the_variable() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        for bad in ["0", "", "four", "-3", "2.5"] {
            let err = parse_threads(bad).expect_err(bad);
            assert!(err.starts_with("WS_EXEC_THREADS="), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn worker_count_is_clamped_to_at_least_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::from_env().threads() >= 1);
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let pool = Pool::new(1);
        let mut stream = pool.stream::<u8>();
        stream.submit(|| std::panic::panic_any(42u32));
        match drain_by_id(stream, 1).first() {
            Some(Err(p)) => assert!(p.message.contains("non-string")),
            other => panic!("job should have failed, got {other:?}"),
        }
    }

    #[test]
    fn stream_delivers_every_submission_exactly_once() {
        for threads in [1, 8] {
            let pool = Pool::new(threads);
            let mut stream = pool.stream::<u64>();
            for j in 0..40u64 {
                let weight = if j == 3 { 40_000 } else { 2_000 };
                stream.submit(move || spin(weight).wrapping_add(j));
            }
            let got: Vec<u64> = drain_by_id(stream, 40)
                .into_iter()
                .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
                .collect();
            let expect: Vec<u64> = (0..40u64)
                .map(|j| spin(if j == 3 { 40_000 } else { 2_000 }).wrapping_add(j))
                .collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn stream_overlaps_drain_with_in_flight_jobs() {
        let pool = Pool::new(4);
        let mut stream = pool.stream::<u64>();
        for _ in 0..8 {
            stream.submit(|| spin(10_000));
        }
        // Drain one completion while seven are still queued or running,
        // then keep submitting from the drain loop (the pipelined-sweep
        // resubmission pattern).
        let first = stream.next();
        assert!(first.is_some());
        stream.submit(|| spin(100));
        let mut seen = 1;
        for (_, r) in stream {
            assert!(r.is_ok());
            seen += 1;
        }
        assert_eq!(seen, 9);
    }

    #[test]
    fn shutdown_with_jobs_still_queued_is_graceful() {
        // Drop the stream (and then the pool) with most of the batch still
        // queued: the pool must join its workers promptly, discarding the
        // stranded tasks, without hanging or panicking.
        let pool = Pool::new(4);
        let mut stream = pool.stream::<u64>();
        for _ in 0..256 {
            stream.submit(|| spin(20_000));
        }
        let first = stream.next();
        assert!(first.is_some());
        drop(stream);
        drop(pool);
    }

    #[test]
    fn pool_reuse_across_batches_and_streams() {
        let pool = Pool::new(4);
        let a = pool.run(&(0..16u64).collect::<Vec<_>>(), |&j| j + 1);
        assert_eq!(a[15], 16);
        let mut s = pool.stream::<u64>();
        s.submit(|| 7);
        assert!(matches!(s.next(), Some((JobId(0), Ok(7)))));
        let b = pool.run(&(0..16u64).collect::<Vec<_>>(), |&j| j * 2);
        assert_eq!(b[15], 30);
        assert_eq!(pool.jobs_completed(), 33);
    }
}
