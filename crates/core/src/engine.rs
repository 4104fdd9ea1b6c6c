//! The batch job engine: many concurrent loop-modeling jobs over shared
//! resources.
//!
//! The paper's premise is throughput — populations of conformations scored
//! in parallel — and a production deployment faces the same shape one level
//! up: many *jobs* (different loops, configs, seeds) competing for one
//! machine.  [`LoopModelingEngine`] owns what jobs share — the
//! [`KnowledgeBase`], the [`Executor`], and a [`ScratchPool`] of warm
//! scoring workspaces — and schedules submitted [`Job`]s across worker
//! threads, splitting the executor's thread budget so a batch saturates the
//! machine instead of oversubscribing it (and so small jobs no longer leave
//! cores idle while one job's population kernel winds down).
//!
//! Lifecycle: **build → submit → stream → harvest**.
//!
//! ```text
//! let engine = LoopModelingEngine::builder(kb).build()?;   // build
//! let batch  = engine.submit(jobs);                        // submit
//! for result in batch { … }                                // stream
//! ```
//!
//! Results stream back in completion order through the [`BatchHandle`]
//! iterator; each job can be observed ([`BatchHandle::progress`]) and
//! cancelled ([`BatchHandle::cancel`]) while the rest of the batch keeps
//! running.  Because every trajectory derives all randomness from its own
//! seed (never from scheduling), an N-job batch is **bit-identical** to N
//! sequential [`MoscemSampler::run_with_seed`] calls — property-tested in
//! `tests/batch_engine.rs`.

use crate::config::SamplerConfig;
use crate::error::{ConfigError, Error};
use crate::sampler::{MoscemSampler, RunControls, TrajectoryResult};
use lms_protein::LoopTarget;
use lms_scoring::{KnowledgeBase, ScratchPool};
use lms_simt::{Capabilities, Executor, ExecutorConfig};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The supervisor's bounded-retry policy for failures the
/// [failure taxonomy](Error) classifies as retryable (panics, stalls,
/// numerical faults).  Because every trajectory derives all randomness from
/// its seed, a retry re-runs the job with the **same seed**: a transient
/// fault (an injected one, a scheduling hiccup) yields a result
/// bit-identical to an unfaulted run, while a deterministic fault fails the
/// same way until the attempt budget is spent.
///
/// The default policy performs no retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (minimum 1).
    pub max_attempts: usize,
    /// Backoff slept before the first retry; doubled per further retry.
    pub base_backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::no_retries()
    }
}

impl RetryPolicy {
    /// No retries: every failure is final (the default).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Retry retryable failures up to `max_attempts` total attempts with a
    /// small default backoff (10 ms doubling, capped at 250 ms).
    pub fn with_max_attempts(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
        }
    }

    /// Override the backoff schedule: `base` before the first retry,
    /// doubling per further retry, capped at `max`.
    #[must_use]
    pub fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self
    }

    /// The backoff slept after the `attempt`-th failed attempt (1-based):
    /// `base_backoff × 2^(attempt-1)`, capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: usize) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16) as u32;
        self.base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff)
    }
}

/// One failed attempt in a job's supervisor trace (see
/// [`JobResult::attempts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFailure {
    /// Which attempt failed (1-based; attempt 1 is the initial run).
    pub attempt: usize,
    /// The typed error that ended the attempt.
    pub error: Error,
    /// Backoff slept before the retry that followed, or zero when no
    /// retry followed (the failure was terminal or the budget was spent).
    pub backoff: Duration,
}

/// Engine-unique identifier of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One unit of work for the engine: a target, a sampling configuration and
/// a seed.  Build with [`Job::builder`], which validates the configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Job {
    /// Human-readable label carried through to the [`JobResult`] (defaults
    /// to the target's `name(start:end)` label).
    pub label: String,
    /// The loop to model.
    pub target: LoopTarget,
    /// The trajectory configuration.
    pub config: SamplerConfig,
    /// The trajectory seed (defaults to `config.seed`).
    pub seed: u64,
    /// Deterministic fault plan injected into this job's kernel launches
    /// (robustness testing only).  One session spans the whole job,
    /// **including retries**: launch counters keep advancing across
    /// attempts, so a fault keyed to an early launch index behaves like a
    /// transient and a same-seed retry runs past it cleanly.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<lms_simt::FaultPlan>,
}

impl Job {
    /// Start building a job for `target` with the default configuration.
    pub fn builder(target: LoopTarget) -> JobBuilder {
        JobBuilder {
            label: None,
            seed: None,
            config: SamplerConfig::default(),
            target,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

/// Builder for [`Job`]; validates the configuration on
/// [`JobBuilder::build`].
#[derive(Debug, Clone)]
#[must_use = "a job builder does nothing until .build() is called"]
pub struct JobBuilder {
    label: Option<String>,
    seed: Option<u64>,
    config: SamplerConfig,
    target: LoopTarget,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<lms_simt::FaultPlan>,
}

impl JobBuilder {
    /// Set the sampling configuration (defaults to
    /// `SamplerConfig::default()`).
    pub fn config(mut self, config: SamplerConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the trajectory seed (defaults to the configuration's seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Set the job label (defaults to the target's label).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Arm a deterministic fault plan on this job's kernel launches (see
    /// [`Job::fault_plan`]).
    #[cfg(feature = "fault-injection")]
    pub fn fault_plan(mut self, plan: lms_simt::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validate the configuration and return the finished job.
    pub fn build(self) -> Result<Job, ConfigError> {
        self.config.validate()?;
        Ok(Job {
            label: self.label.unwrap_or_else(|| self.target.label()),
            seed: self.seed.unwrap_or(self.config.seed),
            config: self.config,
            target: self.target,
            #[cfg(feature = "fault-injection")]
            fault_plan: self.fault_plan,
        })
    }
}

/// Lifecycle state of one job in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is running its trajectory.
    Running,
    /// Finished with a [`TrajectoryResult`].
    Completed,
    /// Finished with an error other than cancellation.
    Failed,
    /// Stopped by [`BatchHandle::cancel`] (before or during its run).
    Cancelled,
}

impl JobStatus {
    fn as_u8(self) -> u8 {
        match self {
            JobStatus::Queued => 0,
            JobStatus::Running => 1,
            JobStatus::Completed => 2,
            JobStatus::Failed => 3,
            JobStatus::Cancelled => 4,
        }
    }

    fn from_u8(v: u8) -> JobStatus {
        match v {
            0 => JobStatus::Queued,
            1 => JobStatus::Running,
            2 => JobStatus::Completed,
            3 => JobStatus::Failed,
            _ => JobStatus::Cancelled,
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// Point-in-time view of one job's progress (from
/// [`BatchHandle::progress`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobProgress {
    /// The job's id.
    pub id: JobId,
    /// The job's label.
    pub label: String,
    /// Lifecycle state at snapshot time.
    pub status: JobStatus,
    /// MCMC iterations fully completed so far.
    pub iterations_done: usize,
    /// Total MCMC iterations the job was configured for.
    pub total_iterations: usize,
}

/// The terminal outcome of one job, delivered through the batch's stream.
#[derive(Debug)]
#[must_use]
pub struct JobResult {
    /// The job's id (ids follow submission order, results arrive in
    /// completion order).
    pub id: JobId,
    /// The job's label.
    pub label: String,
    /// The seed the trajectory ran with.
    pub seed: u64,
    /// The trajectory, or the typed error that ended the job.
    pub outcome: Result<TrajectoryResult, Error>,
    /// The supervisor's attempt trace: one entry per **failed** attempt,
    /// in order.  Empty when the job succeeded first try; when the job
    /// succeeded after retries, these are the transient failures the
    /// same-seed reruns recovered from; when `outcome` is an error, the
    /// last entry is that final failure (with zero backoff).
    pub attempts: Vec<AttemptFailure>,
    /// Capabilities of the (split) executor this job's kernels ran on —
    /// backend, lane width, thread budget, CCD block width — so every
    /// result is attributable to a backend.
    pub capabilities: Capabilities,
}

impl JobResult {
    /// Whether the job ended via cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.outcome, Err(Error::Cancelled { .. }))
    }
}

/// The scheduler's shared work queue: jobs paired with their tickets,
/// popped by worker threads in submission order.
type JobQueue = Arc<Mutex<VecDeque<(Arc<Ticket>, Job)>>>;

/// Shared per-job state between the scheduler, its worker, and the handle.
#[derive(Debug)]
struct Ticket {
    id: JobId,
    label: String,
    total_iterations: usize,
    iterations_done: AtomicUsize,
    status: AtomicU8,
    cancel: AtomicBool,
}

impl Ticket {
    fn set_status(&self, status: JobStatus) {
        self.status.store(status.as_u8(), Ordering::Relaxed);
    }

    fn status(&self) -> JobStatus {
        JobStatus::from_u8(self.status.load(Ordering::Relaxed))
    }
}

/// What every job shares: the knowledge base, the executor and the warm
/// scratch pool.
#[derive(Debug)]
struct EngineInner {
    kb: Arc<KnowledgeBase>,
    executor: Executor,
    scratch: ScratchPool,
    concurrency: usize,
    retry: RetryPolicy,
    next_id: AtomicU64,
}

/// Builder for [`LoopModelingEngine`].
#[derive(Debug)]
#[must_use = "an engine builder does nothing until .build() is called"]
pub struct EngineBuilder {
    kb: Arc<KnowledgeBase>,
    executor: ExecutorConfig,
    concurrency: usize,
    retry: RetryPolicy,
}

impl EngineBuilder {
    /// Set the executor configuration jobs run their population kernels on
    /// (default: [`ExecutorConfig::parallel`]).  Accepts an
    /// [`ExecutorConfig`] directly or an already-built [`Executor`] (whose
    /// configuration is re-captured), and validates it in
    /// [`EngineBuilder::build`].  Concurrent jobs split the built
    /// executor's thread budget via [`Executor::split`].
    ///
    /// ```
    /// # use lms_core::LoopModelingEngine;
    /// # use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig};
    /// # use lms_simt::ExecutorConfig;
    /// # fn main() -> Result<(), lms_core::ConfigError> {
    /// let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    /// let engine = LoopModelingEngine::builder(kb)
    ///     .executor(ExecutorConfig::parallel().threads(4).ccd_block_width(16))
    ///     .build()?;
    /// assert_eq!(engine.executor().ccd_block_width(), 16);
    /// # Ok(())
    /// # }
    /// ```
    pub fn executor(mut self, executor: impl Into<ExecutorConfig>) -> Self {
        self.executor = executor.into();
        self
    }

    /// Set the maximum number of jobs running at once (default: one per
    /// available core).  Must be at least 1.
    pub fn concurrency(mut self, jobs: usize) -> Self {
        self.concurrency = jobs;
        self
    }

    /// Set the supervisor's [`RetryPolicy`] for retryable failures
    /// (default: no retries).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Validate and build the engine.  The executor configuration is
    /// validated here; a rejected one (zero/oversized CCD block width)
    /// surfaces as [`ConfigError::InvalidExecutor`].
    pub fn build(self) -> Result<LoopModelingEngine, ConfigError> {
        if self.concurrency == 0 {
            return Err(ConfigError::ZeroConcurrency);
        }
        let executor = self.executor.build()?;
        Ok(LoopModelingEngine {
            inner: Arc::new(EngineInner {
                kb: self.kb,
                executor,
                scratch: ScratchPool::new(),
                concurrency: self.concurrency,
                retry: self.retry,
                next_id: AtomicU64::new(0),
            }),
        })
    }
}

/// The batch loop-modeling engine.
///
/// Cheap to clone (clones share the knowledge base, executor and scratch
/// pool).  See the [module docs](self) for the lifecycle and an example.
#[derive(Debug, Clone)]
pub struct LoopModelingEngine {
    inner: Arc<EngineInner>,
}

impl LoopModelingEngine {
    /// Start building an engine over a pre-built knowledge base.
    pub fn builder(kb: Arc<KnowledgeBase>) -> EngineBuilder {
        EngineBuilder {
            kb,
            executor: ExecutorConfig::parallel(),
            concurrency: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            retry: RetryPolicy::no_retries(),
        }
    }

    /// The knowledge base every job scores against.
    pub fn knowledge_base(&self) -> &Arc<KnowledgeBase> {
        &self.inner.kb
    }

    /// The executor jobs run on (before per-batch splitting).
    pub fn executor(&self) -> &Executor {
        &self.inner.executor
    }

    /// Maximum number of jobs running at once.
    pub fn concurrency(&self) -> usize {
        self.inner.concurrency
    }

    /// The supervisor's retry policy for retryable failures.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry
    }

    /// The engine-owned pool of scoring workspaces jobs lease from.
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.inner.scratch
    }

    /// Run one job to completion on the calling thread, using the engine's
    /// full executor and shared scratch pool.
    pub fn run(&self, job: Job) -> Result<TrajectoryResult, Error> {
        let sampler = MoscemSampler::try_new(job.target, Arc::clone(&self.inner.kb), job.config)?;
        let controls = RunControls::new().scratch_pool(&self.inner.scratch);
        sampler.run_controlled(&self.inner.executor, job.seed, &controls)
    }

    /// Submit a batch of jobs and return immediately with a streaming
    /// handle.  Up to [`concurrency`](LoopModelingEngine::concurrency)
    /// worker threads pull jobs from the queue, each running its population
    /// kernels on a `1/workers` split of the engine's executor; results are
    /// delivered through the handle in completion order.
    ///
    /// **Drain semantics**: dropping the handle cancels jobs still queued
    /// (workers skip them) while jobs already running finish undisturbed —
    /// their results are discarded.  Use [`BatchHandle::cancel_all`] first
    /// to also stop running jobs at their next iteration boundary, or
    /// [`BatchHandle::join`] to wait for everything.
    pub fn submit(&self, jobs: impl IntoIterator<Item = Job>) -> BatchHandle {
        let jobs: Vec<Job> = jobs.into_iter().collect();
        let tickets: Vec<Arc<Ticket>> = jobs
            .iter()
            .map(|job| {
                Arc::new(Ticket {
                    id: JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed)),
                    label: job.label.clone(),
                    total_iterations: job.config.iterations,
                    iterations_done: AtomicUsize::new(0),
                    status: AtomicU8::new(JobStatus::Queued.as_u8()),
                    cancel: AtomicBool::new(false),
                })
            })
            .collect();

        let (tx, rx) = mpsc::channel();
        let pending = jobs.len();
        let workers = self.inner.concurrency.min(pending);
        let queue: JobQueue = Arc::new(Mutex::new(
            tickets.iter().map(Arc::clone).zip(jobs).collect(),
        ));

        for _ in 0..workers {
            let inner = Arc::clone(&self.inner);
            let queue = Arc::clone(&queue);
            // Each worker launches on its share of the executor's threads,
            // so concurrent jobs together use the budget once.
            let executor = self.inner.executor.split(workers);
            let tx: Sender<JobResult> = tx.clone();
            std::thread::spawn(move || loop {
                let next = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                let Some((ticket, job)) = next else { break };
                let result = run_one(&inner, &executor, &ticket, job);
                // A dropped handle discards results (its `Drop` cancelled
                // the still-queued jobs, which workers observe through the
                // tickets before starting them).
                let _ = tx.send(result);
            });
        }

        BatchHandle {
            rx,
            tickets,
            pending,
        }
    }
}

/// Run one job on a worker under the engine's supervisor: honour
/// cancellation, report progress through the ticket, classify failures via
/// the [failure taxonomy](Error) and re-run retryable ones with the **same
/// seed** under the engine's bounded [`RetryPolicy`], recording an attempt
/// trace in the [`JobResult`].
fn run_one(
    inner: &Arc<EngineInner>,
    executor: &Executor,
    ticket: &Arc<Ticket>,
    job: Job,
) -> JobResult {
    let seed = job.seed;
    if ticket.cancel.load(Ordering::Relaxed) {
        ticket.set_status(JobStatus::Cancelled);
        return JobResult {
            id: ticket.id,
            label: ticket.label.clone(),
            seed,
            outcome: Err(Error::Cancelled {
                completed_iterations: 0,
            }),
            attempts: Vec::new(),
            capabilities: executor.capabilities(),
        };
    }
    ticket.set_status(JobStatus::Running);

    // One fault session spans the whole job *including retries*: launch
    // counters keep advancing across attempts, so an injected fault at an
    // early launch index behaves like a transient.
    #[cfg(feature = "fault-injection")]
    let _fault_guard = job
        .fault_plan
        .clone()
        .map(|plan| lms_simt::fault::install(lms_simt::fault::FaultSession::begin(plan)));

    let policy = inner.retry;
    let mut attempts: Vec<AttemptFailure> = Vec::new();
    let outcome = loop {
        let attempt_outcome = match MoscemSampler::try_new(
            job.target.clone(),
            Arc::clone(&inner.kb),
            job.config.clone(),
        ) {
            Err(e) => Err(Error::Config(e)),
            Ok(sampler) => {
                let report = |done: usize, _total: usize| {
                    ticket.iterations_done.store(done, Ordering::Relaxed);
                };
                let controls = RunControls::new()
                    .cancel_flag(&ticket.cancel)
                    .progress(&report)
                    .scratch_pool(&inner.scratch);
                // A panicking job must not take the whole batch down; its
                // leased scratches are lost, which the pool absorbs.
                match catch_unwind(AssertUnwindSafe(|| {
                    sampler.run_controlled(executor, seed, &controls)
                })) {
                    Ok(res) => res,
                    Err(payload) => Err(Error::JobPanicked {
                        label: ticket.label.clone(),
                        detail: panic_detail(payload),
                    }),
                }
            }
        };
        match attempt_outcome {
            Ok(res) => break Ok(res),
            Err(e) => {
                let attempt = attempts.len() + 1;
                let retry = e.is_retryable()
                    && attempt < policy.max_attempts.max(1)
                    && !ticket.cancel.load(Ordering::Relaxed);
                if !retry {
                    attempts.push(AttemptFailure {
                        attempt,
                        error: e.clone(),
                        backoff: Duration::ZERO,
                    });
                    break Err(e);
                }
                let backoff = policy.backoff_for(attempt);
                attempts.push(AttemptFailure {
                    attempt,
                    error: e,
                    backoff,
                });
                ticket.iterations_done.store(0, Ordering::Relaxed);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    };

    ticket.set_status(match &outcome {
        Ok(_) => JobStatus::Completed,
        Err(Error::Cancelled { .. }) => JobStatus::Cancelled,
        Err(_) => JobStatus::Failed,
    });
    JobResult {
        id: ticket.id,
        label: ticket.label.clone(),
        seed,
        outcome,
        attempts,
        capabilities: executor.capabilities(),
    }
}

/// Render a panic payload as text.  `panic!` carries `&str` or `String`;
/// `std::panic::panic_any` callers sometimes box, so `Box<String>` is
/// unwrapped too before giving up on the payload.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<Box<String>>() {
        (**s).clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Streaming handle to a submitted batch.
///
/// Iterate it (or call [`BatchHandle::next_result`]) to receive
/// [`JobResult`]s in completion order; [`BatchHandle::join`] drains
/// everything and restores submission order.
///
/// Dropping the handle performs a **graceful drain**: jobs still queued
/// are cancelled (their workers skip them), jobs already running finish
/// their trajectories undisturbed and their results are discarded.  Use
/// [`BatchHandle::cancel_all`] before dropping to also stop running jobs
/// at their next iteration boundary.
#[derive(Debug)]
#[must_use = "dropping the handle discards the batch's results"]
pub struct BatchHandle {
    rx: Receiver<JobResult>,
    tickets: Vec<Arc<Ticket>>,
    pending: usize,
}

impl BatchHandle {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Whether the batch was empty at submission.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Ids of the batch's jobs, in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.tickets.iter().map(|t| t.id).collect()
    }

    /// Request cancellation of one job.  Its worker observes the flag at
    /// the next iteration boundary (or before starting, if still queued)
    /// and delivers an [`Error::Cancelled`] result; the rest of the batch
    /// is unaffected.  Returns `false` when the id is not in this batch or
    /// the job already reached a terminal state.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.tickets.iter().find(|t| t.id == id) {
            Some(ticket) if !ticket.status().is_terminal() => {
                ticket.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Request cancellation of every job still queued or running.
    pub fn cancel_all(&self) {
        for ticket in &self.tickets {
            if !ticket.status().is_terminal() {
                ticket.cancel.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of every job's progress, in submission order.
    pub fn progress(&self) -> Vec<JobProgress> {
        self.tickets
            .iter()
            .map(|t| JobProgress {
                id: t.id,
                label: t.label.clone(),
                status: t.status(),
                iterations_done: t.iterations_done.load(Ordering::Relaxed),
                total_iterations: t.total_iterations,
            })
            .collect()
    }

    /// Block for the next finished job; `None` once every result has been
    /// delivered.
    pub fn next_result(&mut self) -> Option<JobResult> {
        if self.pending == 0 {
            return None;
        }
        match self.rx.recv() {
            Ok(result) => {
                self.pending -= 1;
                Some(result)
            }
            Err(_) => {
                self.pending = 0;
                None
            }
        }
    }

    /// Drain the whole batch and return its results in submission order.
    pub fn join(mut self) -> Vec<JobResult> {
        let mut results = Vec::with_capacity(self.pending);
        while let Some(r) = self.next_result() {
            results.push(r);
        }
        results.sort_by_key(|r| r.id);
        results
    }
}

impl Iterator for BatchHandle {
    type Item = JobResult;

    /// Streams results in completion order.
    fn next(&mut self) -> Option<JobResult> {
        self.next_result()
    }
}

impl Drop for BatchHandle {
    /// Graceful drain: nobody will look at this batch's results any more,
    /// so jobs still queued are cancelled and their workers skip them.
    /// Jobs already running are left to finish undisturbed (cancelling
    /// them mid-flight is [`BatchHandle::cancel_all`]'s job, an explicit
    /// decision).  After [`BatchHandle::join`] this is a no-op — every
    /// ticket is terminal by then.
    fn drop(&mut self) {
        for ticket in &self.tickets {
            if ticket.status() == JobStatus::Queued {
                ticket.cancel.store(true, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_protein::BenchmarkLibrary;
    use lms_scoring::KnowledgeBaseConfig;

    fn fast_kb() -> Arc<KnowledgeBase> {
        KnowledgeBase::build(KnowledgeBaseConfig::fast())
    }

    fn tiny_config(seed: u64) -> SamplerConfig {
        SamplerConfig::test_scale()
            .to_builder()
            .population_size(12)
            .n_complexes(2)
            .iterations(2)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn job_for(name: &str, seed: u64) -> Job {
        let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
        Job::builder(target)
            .config(tiny_config(seed))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn job_builder_defaults_label_and_seed() {
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        let job = Job::builder(target.clone()).build().unwrap();
        assert_eq!(job.label, target.label());
        assert_eq!(job.seed, SamplerConfig::default().seed);
        let named = Job::builder(target)
            .label("my-loop")
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(named.label, "my-loop");
        assert_eq!(named.seed, 9);
    }

    #[test]
    fn job_builder_rejects_invalid_configs() {
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        let err = Job::builder(target)
            .config(SamplerConfig {
                population_size: 0,
                ..SamplerConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPopulation);
    }

    #[test]
    fn engine_builder_rejects_zero_concurrency() {
        let err = LoopModelingEngine::builder(fast_kb())
            .concurrency(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroConcurrency);
    }

    #[test]
    fn batch_results_match_sequential_runs_and_stream_through() {
        let kb = fast_kb();
        let engine = LoopModelingEngine::builder(Arc::clone(&kb))
            .concurrency(2)
            .build()
            .unwrap();
        let names = ["1cex", "5pti", "3pte"];
        let jobs: Vec<Job> = names
            .iter()
            .enumerate()
            .map(|(i, name)| job_for(name, 100 + i as u64))
            .collect();
        let handle = engine.submit(jobs);
        assert_eq!(handle.len(), 3);
        let results = handle.join();
        assert_eq!(results.len(), 3);
        for (i, (result, name)) in results.iter().zip(names.iter()).enumerate() {
            let trajectory = result.outcome.as_ref().expect("job should succeed");
            let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
            let sampler = MoscemSampler::new(target, Arc::clone(&kb), tiny_config(100 + i as u64));
            let reference =
                sampler.run_with_seed(&ExecutorConfig::scalar().build().unwrap(), 100 + i as u64);
            for (a, b) in trajectory
                .population
                .iter()
                .zip(reference.population.iter())
            {
                assert_eq!(a.torsions, b.torsions);
                assert_eq!(a.scores, b.scores);
            }
        }
        // The engine's pool now holds the populations' scratches.
        assert!(engine.scratch_pool().idle_count() > 0);
    }

    #[test]
    fn progress_reaches_terminal_states() {
        let engine = LoopModelingEngine::builder(fast_kb()).build().unwrap();
        let handle = engine.submit(vec![job_for("1cex", 1), job_for("5pti", 2)]);
        let ids = handle.job_ids();
        assert_eq!(ids.len(), 2);
        assert!(ids[0] < ids[1]);
        let results: Vec<JobResult> = handle.collect();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        // A clean first-try success carries an empty attempt trace.
        assert!(results.iter().all(|r| r.attempts.is_empty()));
    }

    #[test]
    fn retry_policy_backoff_is_exponential_and_capped() {
        let p = RetryPolicy::with_max_attempts(5)
            .backoff(Duration::from_millis(10), Duration::from_millis(60));
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
        assert_eq!(p.backoff_for(4), Duration::from_millis(60));
        assert_eq!(p.backoff_for(60), Duration::from_millis(60));
        let none = RetryPolicy::no_retries();
        assert_eq!(none.max_attempts, 1);
        assert_eq!(none.backoff_for(1), Duration::ZERO);
        assert_eq!(RetryPolicy::default(), none);
        // `backoff` keeps the cap at least the base.
        let swapped =
            RetryPolicy::with_max_attempts(2).backoff(Duration::from_millis(50), Duration::ZERO);
        assert_eq!(swapped.max_backoff, Duration::from_millis(50));
    }

    #[test]
    fn dropping_the_handle_cancels_queued_jobs_but_not_running_ones() {
        let engine = LoopModelingEngine::builder(fast_kb())
            .concurrency(1)
            .build()
            .unwrap();
        // A first job heavy enough that the worker is still inside it when
        // the handle is dropped below — a tiny job can finish (and let the
        // worker dequeue the second) before this thread reaches the drop.
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        let slow = Job::builder(target)
            .config(
                SamplerConfig::test_scale()
                    .to_builder()
                    .population_size(16)
                    .n_complexes(2)
                    .iterations(40)
                    .seed(1)
                    .build()
                    .unwrap(),
            )
            .seed(1)
            .build()
            .unwrap();
        let handle = engine.submit(vec![slow, job_for("5pti", 2)]);
        let first = Arc::clone(&handle.tickets[0]);
        let second = Arc::clone(&handle.tickets[1]);
        // Wait for the single worker to pick the first job up — the second
        // is then necessarily still queued behind it — and drop the handle
        // while the first is running.
        while first.status() == JobStatus::Queued {
            std::thread::yield_now();
        }
        drop(handle);
        // The worker drains the queue: the first job runs to completion
        // (drop does not shoot down running jobs), the second is skipped.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !(first.status().is_terminal() && second.status().is_terminal()) {
            assert!(
                std::time::Instant::now() < deadline,
                "workers did not drain the batch"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(first.status(), JobStatus::Completed);
        assert_eq!(second.status(), JobStatus::Cancelled);
    }

    #[test]
    fn cancelling_a_queued_job_skips_it() {
        let engine = LoopModelingEngine::builder(fast_kb())
            .concurrency(1)
            .build()
            .unwrap();
        // With one worker, the second job is still queued while the first
        // runs; cancel it before submission even reaches it by cancelling
        // immediately.
        let handle = engine.submit(vec![job_for("1cex", 1), job_for("5pti", 2)]);
        let second = handle.job_ids()[1];
        assert!(handle.cancel(second));
        let results = handle.join();
        assert!(results[0].outcome.is_ok());
        assert!(results[1].is_cancelled());
    }

    #[test]
    fn empty_batch_terminates_without_spawning_workers() {
        let engine = LoopModelingEngine::builder(fast_kb()).build().unwrap();
        let mut handle = engine.submit(Vec::new());
        assert!(handle.is_empty());
        assert!(handle.progress().is_empty());
        assert!(handle.next_result().is_none());
        assert!(handle.join().is_empty());
    }

    #[test]
    fn engine_builder_rejects_invalid_executor_configs() {
        let err = LoopModelingEngine::builder(fast_kb())
            .executor(ExecutorConfig::parallel().ccd_block_width(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidExecutor(_)));
    }

    #[test]
    fn job_results_report_executor_capabilities() {
        let engine = LoopModelingEngine::builder(fast_kb())
            .executor(ExecutorConfig::scalar().ccd_block_width(4))
            .build()
            .unwrap();
        assert_eq!(engine.executor().ccd_block_width(), 4);
        let results = engine.submit(vec![job_for("1cex", 5)]).join();
        let caps = results[0].capabilities;
        assert_eq!(caps.backend, lms_simt::Backend::Scalar);
        assert_eq!(caps.ccd_block_width, 4);
    }

    #[test]
    fn engine_run_matches_sampler_run() {
        let kb = fast_kb();
        let engine = LoopModelingEngine::builder(Arc::clone(&kb))
            .build()
            .unwrap();
        let job = job_for("1dim", 7);
        let target = job.target.clone();
        let config = job.config.clone();
        let via_engine = engine.run(job).unwrap();
        let reference = MoscemSampler::new(target, kb, config)
            .run_with_seed(&ExecutorConfig::scalar().build().unwrap(), 7);
        for (a, b) in via_engine
            .population
            .iter()
            .zip(reference.population.iter())
        {
            assert_eq!(a.torsions, b.torsions);
            assert_eq!(a.scores, b.scores);
        }
    }
}
