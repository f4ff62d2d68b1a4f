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
//! keeps them parked until work arrives. Submissions are distributed
//! round-robin across **per-worker deques**; a worker pops the *front* of
//! its own deque and, when that runs dry, **steals from the back** of its
//! siblings' deques. Stealing is what keeps heavily skewed batches (one
//! 40k-cycle simulation among 2k-cycle ones — the shape prediction-pruned
//! sweeps and fleet traces produce) from head-of-line blocking behind a
//! single dispatch counter. Determinism is unaffected: scheduling order
//! may vary run to run, but results are keyed by submission index and
//! every job is pure.
//!
//! Two submission surfaces share the same workers:
//!
//! * the **batch** API ([`Pool::run`], [`Pool::try_run`],
//!   [`Pool::try_run_observed`]) — submit a slice of jobs, block until all
//!   results are collected in submission order;
//! * the **streaming** API ([`Pool::stream`], [`Pool::submit`]) — submit
//!   jobs one at a time and drain completions *as they finish*, so
//!   downstream work (curve acceptance, fallback resubmission) can overlap
//!   with simulation still in flight. See `profile_curves_planned`.
//!
//! The worker count comes from `WS_EXEC_THREADS` (default: the machine's
//! available parallelism; `1` forces serial execution). A panicking job
//! fails *that job*, not the process: [`Pool::try_run`] returns
//! `Result<R, JobPanic>` per job, and [`Pool::run`] re-raises the first
//! failure (lowest job index) deterministically — even when the panicking
//! job was stolen by another worker.
//!
//! The crate is deliberately `std`-only and free of simulator types: the
//! job model (`SimJob`) lives in `warped-slicer`'s runner, which depends on
//! this crate, not the other way around.
//!
//! All thread use in this crate binds and joins its worker handles (the
//! pool's `Drop` joins every worker), and no completion channel receive is
//! silently discarded; the `no-unchecked-spawn` rule of `cargo xtask lint`
//! pins both invariants.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};

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

/// Per-job result of a fallible batch.
pub type JobResult<R> = Result<R, JobPanic>;

/// Progress report for one completed job of an observed batch.
///
/// Reports are delivered on the **caller's thread**, one per completion,
/// with `seq` counting completions `1..=total` — so observation order is
/// deterministic (strictly increasing `seq`) at any worker count even
/// though `id` reflects the actual (scheduling-dependent) finish order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchProgress {
    /// 1-based completion count (the `seq`-th job to finish).
    pub seq: usize,
    /// Total jobs in the batch.
    pub total: usize,
    /// The job that finished.
    pub id: JobId,
}

/// Parses a `WS_EXEC_THREADS`-style value into a worker count.
///
/// `None`, an empty string, `0`, or an unparsable value fall back to the
/// machine's available parallelism (itself falling back to 1), so a
/// misconfigured environment degrades to the default rather than erroring.
#[must_use]
pub fn threads_from_env(value: Option<&str>) -> usize {
    match value.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// A queued unit of work: the job closure plus its result plumbing.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Predicate state protected by the park mutex: the shutdown flag and the
/// number of queued (not yet claimed) tasks across every deque.
#[derive(Debug, Default)]
struct ParkState {
    shutdown: bool,
    queued: usize,
}

/// Shared state between the pool handle and its persistent workers.
struct Core {
    /// One deque per worker; submissions round-robin, owners pop the
    /// front, thieves steal the back.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin cursor for external submissions.
    rr: AtomicUsize,
    /// Park predicate (queued count + shutdown flag).
    state: Mutex<ParkState>,
    /// Wakes parked workers when work arrives or shutdown begins.
    cond: Condvar,
}

impl Core {
    /// Enqueues a task on the next deque in round-robin order and wakes
    /// the workers.
    fn push(&self, task: Task) {
        let n = self.deques.len().max(1);
        let w = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        if let Some(dq) = self.deques.get(w) {
            dq.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(task);
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.queued += 1;
        drop(state);
        self.cond.notify_all();
    }

    /// Claims one task: the front of `home`'s own deque first, then a
    /// back-steal over the other deques in ring order.
    fn find_task(&self, home: usize) -> Option<Task> {
        let n = self.deques.len();
        for k in 0..n {
            let Some(dq) = self.deques.get((home + k) % n) else {
                continue;
            };
            let mut dq = dq.lock().unwrap_or_else(PoisonError::into_inner);
            let task = if k == 0 {
                dq.pop_front()
            } else {
                dq.pop_back()
            };
            if task.is_some() {
                drop(dq);
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.queued = state.queued.saturating_sub(1);
                return task;
            }
        }
        None
    }

    /// The persistent worker body: claim-and-run until shutdown, parking
    /// on the condvar while no work is queued. Shutdown wins over queued
    /// work, so a pool dropped with jobs still queued exits promptly; the
    /// tasks it strands are discarded by [`Pool`]'s `Drop` (nothing can be
    /// waiting on them — streams and handles borrow the pool).
    fn worker_loop(&self, home: usize) {
        loop {
            if let Some(task) = self.find_task(home) {
                task();
                continue;
            }
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if state.shutdown {
                    return;
                }
                if state.queued > 0 {
                    break;
                }
                state = self
                    .cond
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A deterministic persistent work-stealing worker pool.
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

impl Default for Pool {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Pool {
    /// Creates a pool with a fixed worker count (clamped to at least 1).
    /// Counts above 1 spawn that many persistent workers immediately.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let completed = Arc::new(AtomicU64::new(0));
        if threads == 1 {
            return Self {
                threads,
                core: None,
                workers: Vec::new(),
                completed,
            };
        }
        let core = Arc::new(Core {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            rr: AtomicUsize::new(0),
            state: Mutex::new(ParkState::default()),
            cond: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let core = Arc::clone(&core);
                let spawned = std::thread::Builder::new()
                    .name(format!("ws-exec-{i}"))
                    .spawn(move || core.worker_loop(i));
                match spawned {
                    Ok(handle) => handle,
                    Err(e) => panic!("ws-exec: could not spawn worker thread {i}: {e}"),
                }
            })
            .collect();
        Self {
            threads,
            core: Some(core),
            workers,
            completed,
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
            ready: VecDeque::new(),
            submitted: 0,
            delivered: 0,
        }
    }

    /// Submits one job and returns a handle joined independently of any
    /// batch. On a serial pool the job runs inline before this returns.
    pub fn submit<R, F>(&self, f: F) -> JobHandle<'_, R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let id = JobId(0);
        match &self.core {
            None => {
                let r = contain(id, f);
                self.completed.fetch_add(1, Ordering::Relaxed);
                JobHandle {
                    id,
                    state: HandleState::Ready(r),
                    _pool: PhantomData,
                }
            }
            Some(core) => {
                let (tx, rx) = mpsc::channel();
                let completed = Arc::clone(&self.completed);
                core.push(Box::new(move || {
                    let r = contain(id, f);
                    completed.fetch_add(1, Ordering::Relaxed);
                    // A dropped handle discards the result on purpose.
                    let _ = tx.send(r);
                }));
                JobHandle {
                    id,
                    state: HandleState::Pending(rx),
                    _pool: PhantomData,
                }
            }
        }
    }

    /// Runs `f` over every job in `jobs`, returning one result per job **in
    /// submission order**, with per-job panic containment.
    ///
    /// `f` receives the job's [`JobId`] and a reference to its description.
    /// Results are collected into pre-sized slots keyed by job index — one
    /// writer per slot, on the caller's thread, no locks — so the output is
    /// identical for any worker count. A panic inside `f` is caught and
    /// surfaced as `Err(JobPanic)` for that job only; the batch and the
    /// process continue.
    pub fn try_run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<JobResult<R>>
    where
        J: Clone + Send + 'static,
        R: Send + 'static,
        F: Fn(JobId, &J) -> R + Send + Sync + 'static,
    {
        self.try_run_observed(jobs, f, |_| {})
    }

    /// [`Pool::try_run`] with a per-completion progress observer.
    ///
    /// `observe` runs on the caller's thread once per finished job, in
    /// completion-count order ([`BatchProgress::seq`] goes `1..=total`
    /// strictly increasing), carrying the finishing job's [`JobId`]. That
    /// makes progress reporting deterministic in *shape* at any worker
    /// count; only the `id` field reflects actual scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the executor's delivery invariant breaks (a result slot
    /// filled twice, never filled, or workers gone with jobs outstanding)
    /// — these indicate a bug in the executor itself, never in `f`.
    pub fn try_run_observed<J, R, F, O>(
        &self,
        jobs: &[J],
        f: F,
        mut observe: O,
    ) -> Vec<JobResult<R>>
    where
        J: Clone + Send + 'static,
        R: Send + 'static,
        F: Fn(JobId, &J) -> R + Send + Sync + 'static,
        O: FnMut(BatchProgress),
    {
        let total = jobs.len();
        let Some(core) = &self.core else {
            // Serial fast path: run inline on the caller's thread. This is
            // bit-for-bit the pre-pool behaviour (same thread, same order).
            return jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    let id = JobId(i);
                    let r = contain(id, || f(id, job));
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    observe(BatchProgress {
                        seq: i + 1,
                        total,
                        id,
                    });
                    r
                })
                .collect();
        };
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(JobId, JobResult<R>)>();
        for (i, job) in jobs.iter().enumerate() {
            let id = JobId(i);
            let job = job.clone();
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let completed = Arc::clone(&self.completed);
            core.push(Box::new(move || {
                let r = contain(id, move || f(id, &job));
                completed.fetch_add(1, Ordering::Relaxed);
                // The batch collector below outlives every task it
                // submitted, so this send only fails if the collector
                // already panicked — nothing left to notify either way.
                let _ = tx.send((id, r));
            }));
        }
        drop(tx);
        // Pre-sized result slots, written only by this (caller) thread as
        // completions drain — one writer per index, no locks.
        let mut slots: Vec<Option<JobResult<R>>> = (0..total).map(|_| None).collect();
        for seq in 1..=total {
            let (id, r) = match rx.recv() {
                Ok(msg) => msg,
                Err(_) => panic!(
                    "ws-exec invariant violated: workers disconnected with {} of {total} jobs outstanding",
                    total - (seq - 1)
                ),
            };
            match slots.get_mut(id.0) {
                Some(slot @ None) => *slot = Some(r),
                Some(Some(_)) => panic!("ws-exec invariant violated: {id} completed twice"),
                None => panic!("ws-exec invariant violated: unknown {id} in a batch of {total}"),
            }
            observe(BatchProgress { seq, total, id });
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    panic!("ws-exec invariant violated: job#{i} never delivered a result")
                })
            })
            .collect()
    }

    /// Runs `f` over every job, returning plain results in submission
    /// order.
    ///
    /// # Panics
    ///
    /// Re-raises the first failed job (lowest job index) on the caller's
    /// thread — deterministic regardless of worker count or which worker
    /// stole the panicking job. Use [`Pool::try_run`] to keep going past
    /// failures.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Clone + Send + 'static,
        R: Send + 'static,
        F: Fn(JobId, &J) -> R + Send + Sync + 'static,
    {
        self.try_run(jobs, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => panic!("{p}"),
            })
            .collect()
    }
}

impl Drop for Pool {
    /// Signals shutdown, joins every worker, and discards tasks still
    /// queued (no [`Stream`] or [`JobHandle`] can outlive the pool — they
    /// borrow it — so no result is ever silently lost to a waiter).
    fn drop(&mut self) {
        let Some(core) = self.core.take() else { return };
        {
            let mut state = core.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        core.cond.notify_all();
        let mut worker_panic = None;
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                worker_panic = Some(payload);
            }
        }
        for dq in &core.deques {
            dq.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
        if let Some(payload) = worker_panic {
            // Workers contain job panics with catch_unwind, so a panic
            // escaping the worker loop is an executor bug: surface it.
            std::panic::resume_unwind(payload);
        }
    }
}

/// Result plumbing for a single-job [`JobHandle`].
enum HandleState<R> {
    /// Serial pool: the job already ran inline.
    Ready(JobResult<R>),
    /// Parallel pool: the result arrives on this channel.
    Pending(mpsc::Receiver<JobResult<R>>),
}

/// A handle to one job submitted with [`Pool::submit`]; join it to get the
/// result. Borrows the pool, so the pool cannot shut down underneath it.
pub struct JobHandle<'p, R> {
    id: JobId,
    state: HandleState<R>,
    _pool: PhantomData<&'p Pool>,
}

impl<R> JobHandle<'_, R> {
    /// The submitted job's id (always `job#0` for single submissions).
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks until the job finishes, with panic containment.
    ///
    /// # Panics
    ///
    /// Panics only on an executor invariant violation (the worker dropped
    /// the result channel without sending) — a job panic comes back as
    /// `Err(JobPanic)`.
    pub fn try_join(self) -> JobResult<R> {
        match self.state {
            HandleState::Ready(r) => r,
            HandleState::Pending(rx) => match rx.recv() {
                Ok(r) => r,
                Err(_) => panic!(
                    "ws-exec invariant violated: result channel for {} closed without a result",
                    self.id
                ),
            },
        }
    }

    /// Blocks until the job finishes, re-raising its panic if it failed.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic on the caller's thread.
    pub fn join(self) -> R {
        match self.try_join() {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        }
    }
}

/// A streaming submission session on a [`Pool`].
///
/// Jobs submitted through one stream are numbered `0, 1, 2, ...` in
/// submission order; [`Stream::next`] yields `(JobId, JobResult)` pairs in
/// **completion order**, which lets callers overlap downstream computation
/// with jobs still in flight. On a serial pool each submission runs inline
/// and completions are queued in submission order — the degenerate
/// (deterministically ordered) case of the same API.
pub struct Stream<'p, R: Send + 'static> {
    pool: &'p Pool,
    tx: mpsc::Sender<(JobId, JobResult<R>)>,
    rx: mpsc::Receiver<(JobId, JobResult<R>)>,
    /// Completions from inline (serial) execution, in submission order.
    ready: VecDeque<(JobId, JobResult<R>)>,
    submitted: usize,
    delivered: usize,
}

impl<R: Send + 'static> Stream<'_, R> {
    /// Submits one job; returns its stream-local id.
    pub fn submit<F>(&mut self, f: F) -> JobId
    where
        F: FnOnce() -> R + Send + 'static,
    {
        let id = JobId(self.submitted);
        self.submitted += 1;
        match &self.pool.core {
            None => {
                let r = contain(id, f);
                self.pool.completed.fetch_add(1, Ordering::Relaxed);
                self.ready.push_back((id, r));
            }
            Some(core) => {
                let tx = self.tx.clone();
                let completed = Arc::clone(&self.pool.completed);
                core.push(Box::new(move || {
                    let r = contain(id, f);
                    completed.fetch_add(1, Ordering::Relaxed);
                    // A dropped stream discards in-flight results on
                    // purpose; completion accounting already happened.
                    let _ = tx.send((id, r));
                }));
            }
        }
        id
    }

    /// Jobs submitted so far.
    #[must_use]
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Jobs submitted but not yet delivered via [`Stream::next`].
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.submitted - self.delivered - self.ready.len()
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
        if let Some(done) = self.ready.pop_front() {
            self.delivered += 1;
            return Some(done);
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
                self.in_flight()
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

    /// Deterministic busy-work whose cost scales with `n` — the exec-level
    /// stand-in for a simulation window of `n` cycles.
    fn spin(n: u64) -> u64 {
        let mut acc = n;
        for i in 0..n {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn results_are_ordered_by_job_id_for_any_worker_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let serial = Pool::new(1).run(&jobs, |_, &j| j * j);
        for threads in [2, 3, 8, 64] {
            let parallel = Pool::new(threads).run(&jobs, |_, &j| j * j);
            assert_eq!(serial, parallel, "{threads} workers reorder results");
        }
    }

    #[test]
    fn job_ids_match_submission_indices() {
        let jobs = vec![(); 40];
        let ids = Pool::new(4).run(&jobs, |id, ()| id.0);
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_job_sizes_stay_deterministic_under_stealing() {
        // One 40k-unit job among 2k-unit jobs: the shape that head-of-line
        // blocks a counter-dispatch pool and exercises back-stealing here.
        let jobs: Vec<u64> = (0..48)
            .map(|i| if i == 5 { 40_000 } else { 2_000 })
            .collect();
        let serial = Pool::new(1).run(&jobs, |_, &j| spin(j));
        let stolen = Pool::new(8).run(&jobs, |_, &j| spin(j));
        assert_eq!(serial, stolen);
    }

    #[test]
    fn panicking_job_fails_that_job_not_the_process() {
        let jobs: Vec<u32> = (0..20).collect();
        for threads in [1, 4] {
            let results = Pool::new(threads).try_run(&jobs, |_, &j| {
                assert!(j != 7 && j != 13, "job {j} exploded");
                j + 100
            });
            assert_eq!(results.len(), 20);
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
    fn stolen_panicking_job_is_contained_and_attributed() {
        // A heavy head job pins its owner, so trailing jobs — including
        // the panicking one — get claimed by stealing workers; containment
        // and attribution must be identical to the serial run.
        let jobs: Vec<u64> = (0..64).map(|i| if i == 0 { 40_000 } else { 200 }).collect();
        let results = Pool::new(8).try_run(&jobs, |id, &j| {
            assert!(id.0 != 57, "stolen job exploded");
            spin(j)
        });
        for (i, r) in results.iter().enumerate() {
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
        let _ = Pool::new(8).run(&jobs, |_, &j| {
            assert!(j < 3 || j % 3 != 0, "multiple of three");
            j
        });
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = Pool::new(4).run(&Vec::<u8>::new(), |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_completed_counts_across_batches() {
        let pool = Pool::new(2);
        let _ = pool.run(&[(); 5], |_, ()| ());
        let _ = pool.try_run(&[(); 3], |id, ()| assert!(id.0 > 0, "zero"));
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
    fn worker_count_is_clamped_to_at_least_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::default().threads() >= 1);
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let results = Pool::new(1).try_run(&[0u8], |_, _| -> u8 { std::panic::panic_any(42u32) });
        match &results[0] {
            Err(p) => assert!(p.message.contains("non-string")),
            Ok(v) => panic!("job should have failed, got {v}"),
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
            assert_eq!(stream.submitted(), 40);
            let mut by_id: Vec<Option<u64>> = vec![None; 40];
            for (id, r) in stream.by_ref() {
                let slot = by_id
                    .get_mut(id.0)
                    .unwrap_or_else(|| panic!("unknown {id}"));
                assert!(slot.is_none(), "{id} delivered twice");
                *slot = Some(match r {
                    Ok(v) => v,
                    Err(p) => panic!("{p}"),
                });
            }
            assert_eq!(stream.in_flight(), 0);
            let expect: Vec<u64> = (0..40u64)
                .map(|j| spin(if j == 3 { 40_000 } else { 2_000 }).wrapping_add(j))
                .collect();
            let got: Vec<u64> = by_id.into_iter().map(|v| v.unwrap_or(0)).collect();
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
    fn single_submit_handle_joins_inline_and_parallel() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let handle = pool.submit(|| spin(2_000));
            assert_eq!(handle.id(), JobId(0));
            assert_eq!(handle.join(), spin(2_000));
        }
        let pool = Pool::new(4);
        let failing = pool.submit(|| -> u8 { panic!("handle job exploded") });
        match failing.try_join() {
            Err(p) => assert!(p.message.contains("exploded")),
            Ok(v) => panic!("expected a contained panic, got {v}"),
        }
    }

    #[test]
    fn progress_is_observed_in_completion_count_order() {
        // Satellite pin: at 1 and at 8 workers the observer sees seq ==
        // 1..=n; at 1 worker ids arrive in submission order; at 8 workers
        // the id multiset matches the submissions even under heavy skew.
        let jobs: Vec<u64> = (0..32)
            .map(|i| if i == 2 { 40_000 } else { 2_000 })
            .collect();
        for threads in [1usize, 8] {
            let pool = Pool::new(threads);
            let mut seen: Vec<BatchProgress> = Vec::new();
            let results = pool.try_run_observed(&jobs, |_, &j| spin(j), |p| seen.push(p));
            assert_eq!(results.len(), jobs.len());
            let seqs: Vec<usize> = seen.iter().map(|p| p.seq).collect();
            assert_eq!(
                seqs,
                (1..=jobs.len()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert!(seen.iter().all(|p| p.total == jobs.len()));
            let mut ids: Vec<usize> = seen.iter().map(|p| p.id.0).collect();
            if threads == 1 {
                assert_eq!(ids, (0..jobs.len()).collect::<Vec<_>>());
            }
            ids.sort_unstable();
            assert_eq!(ids, (0..jobs.len()).collect::<Vec<_>>());
        }
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
        let a = pool.run(&(0..16u64).collect::<Vec<_>>(), |_, &j| j + 1);
        assert_eq!(a[15], 16);
        let mut s = pool.stream::<u64>();
        s.submit(|| 7);
        assert!(matches!(s.next(), Some((JobId(0), Ok(7)))));
        let b = pool.run(&(0..16u64).collect::<Vec<_>>(), |_, &j| j * 2);
        assert_eq!(b[15], 30);
        assert_eq!(pool.jobs_completed(), 33);
    }
}
