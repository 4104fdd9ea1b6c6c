//! Population executors: who actually runs the per-conformation work.
//!
//! The sampling pipeline expresses its heavy stages (CCD closure, the
//! scoring functions, fitness assignment, Metropolis) as *kernels over the
//! population*: the same routine applied independently to every
//! conformation, exactly the SIMT pattern the paper exploits.  The
//! [`Executor`] is the pluggable seam between that kernel structure and the
//! hardware: every backend sits behind the same
//! [`launch(KernelKind, threads, f)`](Executor::launch) entry point, so the
//! sampler's stage loop never changes when the backend does.
//!
//! Two backends realise the pattern on the host today (a GPU backend is
//! the designed-for third):
//!
//! * [`Backend::Scalar`] — one conformation after another on the calling
//!   thread: the "CPU implementation" baseline of the paper.
//! * [`Backend::Parallel`] — a work-stealing data-parallel map over the
//!   population (rayon), playing the role of the GPU in the heterogeneous
//!   CPU–GPU platform.
//!
//! Executors are built through the validated [`ExecutorConfig`] builder:
//!
//! ```
//! use lms_simt::{Backend, ExecutorConfig};
//!
//! # fn main() -> Result<(), lms_simt::ExecutorConfigError> {
//! let exec = ExecutorConfig::new()
//!     .backend(Backend::Parallel)
//!     .threads(2)
//!     .ccd_block_width(16)
//!     .build()?;
//! assert_eq!(exec.capabilities().threads, 2);
//! assert_eq!(exec.ccd_block_width(), 16);
//! # Ok(())
//! # }
//! ```
//!
//! All backends produce *identical results for identical seeds*, because
//! all per-conformation randomness comes from counter-derived streams
//! rather than from shared mutable RNG state (the paper makes the weaker
//! statement that its CPU and GPU versions are "functionally equivalent";
//! determinism here is strictly stronger and is verified by property
//! tests).

use crate::kernel::KernelKind;
use rayon::prelude::*;
use rayon::ThreadPool;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Default lockstep CCD block width (population members per batched CCD
/// call) reported by every backend unless overridden through
/// [`ExecutorConfig::ccd_block_width`].
pub const DEFAULT_CCD_BLOCK_WIDTH: usize = 8;

/// Upper bound on the configurable CCD block width.  The sampler stages
/// lane descriptors for one block on the stack, so the width is capped to
/// keep that staging area small and fixed-size.
pub const MAX_CCD_BLOCK_WIDTH: usize = 64;

/// The record of one staged population-kernel launch through
/// [`Executor::launch`]: which kernel ran, over how many device threads
/// (population members), and the measured host wall-clock time of the
/// launch.  The sampler adds each launch's `host` time to its per-stage
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct KernelLaunch {
    /// The kernel that was launched.
    pub kind: KernelKind,
    /// Number of logical device threads (one per population member).
    pub threads: usize,
    /// Measured host wall-clock duration of the launch.
    pub host: Duration,
}

impl KernelLaunch {
    /// Measured host time in microseconds.
    pub fn host_us(&self) -> f64 {
        self.host.as_secs_f64() * 1e6
    }
}

/// Which execution strategy an [`Executor`] uses for population kernels.
///
/// `#[non_exhaustive]`: future backends (a GPU device, for one) will add
/// variants without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backend {
    /// Sequential execution on the calling thread (the CPU baseline).
    Scalar,
    /// Data-parallel execution across a rayon thread pool (the device role).
    Parallel,
}

impl Backend {
    /// Short display name ("scalar" / "parallel").
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Parallel => "parallel",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an [`Executor`] reports about itself: the backend, its
/// worker-thread budget and the lockstep CCD block width it
/// wants the sampler to batch with.  Reported through
/// [`Executor::capabilities`] and recorded on perf artifacts
/// (the Table II report, `BENCH_*.json`) and job results so every
/// measurement is attributable to a backend.
///
/// `#[non_exhaustive]`: future backends will report more (device memory,
/// occupancy limits) without breaking construction sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Capabilities {
    /// The execution backend.
    pub backend: Backend,
    /// Short backend name (same as `backend.name()`), kept as a field so
    /// reports can embed it without matching on the enum.
    pub name: &'static str,
    /// Always 1; kept only because the frozen `loopbench/` package still
    /// reads it.  Remove with that package's next change.
    #[doc(hidden)]
    pub lane_width: usize,
    /// Number of worker threads the executor will use.
    pub threads: usize,
    /// Lockstep CCD block width the sampler should batch closure with.
    pub ccd_block_width: usize,
    /// The host's best-detected wide-`f64` instruction set (`"avx2"`,
    /// `"sse2"`, `"neon"` or `"portable"`), so a measurement is
    /// attributable to the machine it ran on.
    pub isa: &'static str,
}

impl fmt::Display for Capabilities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (threads={}, ccd_block_width={}, isa={})",
            self.name, self.threads, self.ccd_block_width, self.isa
        )
    }
}

/// The host CPU's best-detected ISA for wide-`f64` work, independent of
/// what any crate was compiled for.  Used to attribute measurements to the
/// machine they ran on.
fn detected_host_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "portable"
    }
}

/// Why an [`ExecutorConfig`] failed to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutorConfigError {
    /// `ccd_block_width(0)` — the lockstep CCD batcher needs at least one
    /// lane per block.
    ZeroCcdBlockWidth,
    /// `ccd_block_width` above [`MAX_CCD_BLOCK_WIDTH`].
    CcdBlockWidthTooLarge {
        /// The rejected width.
        got: usize,
        /// The maximum ([`MAX_CCD_BLOCK_WIDTH`]).
        max: usize,
    },
}

impl fmt::Display for ExecutorConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorConfigError::ZeroCcdBlockWidth => {
                write!(f, "ccd_block_width must be at least 1")
            }
            ExecutorConfigError::CcdBlockWidthTooLarge { got, max } => {
                write!(f, "ccd_block_width {got} exceeds the maximum of {max}")
            }
        }
    }
}

impl std::error::Error for ExecutorConfigError {}

/// Validated builder for [`Executor`]s — the one construction surface for
/// every backend.
///
/// Defaults: [`Backend::Parallel`] with rayon's default thread budget (one
/// worker per core) and [`DEFAULT_CCD_BLOCK_WIDTH`].
///
/// ```
/// use lms_simt::{Backend, ExecutorConfig};
///
/// let scalar = ExecutorConfig::scalar().build().unwrap();
/// assert_eq!(scalar.capabilities().backend, Backend::Scalar);
///
/// let sized = ExecutorConfig::parallel().threads(4).build().unwrap();
/// assert_eq!(sized.thread_count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct ExecutorConfig {
    backend: Backend,
    threads: usize,
    ccd_block_width: usize,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            backend: Backend::Parallel,
            threads: 0,
            ccd_block_width: DEFAULT_CCD_BLOCK_WIDTH,
        }
    }
}

impl ExecutorConfig {
    /// The default configuration (parallel backend, default thread budget,
    /// default CCD block width).
    pub fn new() -> ExecutorConfig {
        ExecutorConfig::default()
    }

    /// Shorthand for `new().backend(Backend::Scalar)`.
    pub fn scalar() -> ExecutorConfig {
        ExecutorConfig::new().backend(Backend::Scalar)
    }

    /// Shorthand for `new().backend(Backend::Parallel)`.
    pub fn parallel() -> ExecutorConfig {
        ExecutorConfig::new().backend(Backend::Parallel)
    }

    /// The same as [`parallel`](Self::parallel); kept only because the
    /// frozen `loopbench/` package still calls it.  Remove with that
    /// package's next change.
    #[doc(hidden)]
    pub fn simd() -> ExecutorConfig {
        ExecutorConfig::parallel()
    }

    /// Select the execution backend.
    pub fn backend(mut self, backend: Backend) -> ExecutorConfig {
        self.backend = backend;
        self
    }

    /// Set the worker-thread budget (0 = rayon's default, one per core).
    /// Ignored by the scalar backend, which always runs on the calling
    /// thread.
    pub fn threads(mut self, threads: usize) -> ExecutorConfig {
        self.threads = threads;
        self
    }

    /// Set the lockstep CCD block width the executor reports to the
    /// sampler (validated against `1..=`[`MAX_CCD_BLOCK_WIDTH`] at
    /// [`build`](Self::build) time).
    pub fn ccd_block_width(mut self, width: usize) -> ExecutorConfig {
        self.ccd_block_width = width;
        self
    }

    /// Validate and build the executor.
    pub fn build(self) -> Result<Executor, ExecutorConfigError> {
        if self.ccd_block_width == 0 {
            return Err(ExecutorConfigError::ZeroCcdBlockWidth);
        }
        if self.ccd_block_width > MAX_CCD_BLOCK_WIDTH {
            return Err(ExecutorConfigError::CcdBlockWidthTooLarge {
                got: self.ccd_block_width,
                max: MAX_CCD_BLOCK_WIDTH,
            });
        }
        let backend = match self.backend {
            Backend::Scalar => BackendImpl::Scalar,
            Backend::Parallel => BackendImpl::Parallel {
                threads: self.threads,
                pool: Arc::new(OnceLock::new()),
            },
        };
        Ok(Executor {
            backend,
            ccd_block_width: self.ccd_block_width,
        })
    }
}

impl From<Executor> for ExecutorConfig {
    /// Recover the configuration an executor was built from, so an
    /// already-built `Executor` can be handed anywhere an
    /// `impl Into<ExecutorConfig>` is expected (the engine builder).
    fn from(exec: Executor) -> ExecutorConfig {
        ExecutorConfig {
            backend: exec.backend.kind(),
            threads: exec.backend.raw_threads(),
            ccd_block_width: exec.ccd_block_width,
        }
    }
}

impl From<&Executor> for ExecutorConfig {
    fn from(exec: &Executor) -> ExecutorConfig {
        ExecutorConfig::from(exec.clone())
    }
}

/// The private backend realisation behind [`Executor`].  Public code sees
/// only [`Backend`] and [`Capabilities`]; keeping the rayon pool handles
/// out of the public type is what lets future backends (GPU queues, device
/// contexts) slot in without an API break.
#[derive(Debug, Clone)]
enum BackendImpl {
    Scalar,
    Parallel {
        /// Number of worker threads (0 = rayon's default, one per core).
        threads: usize,
        /// The explicitly-sized thread pool, built lazily on the first
        /// launch and reused for every subsequent one (building a pool per
        /// kernel launch was measurable overhead at sampler iteration
        /// rates).  Shared across clones of this executor; unused (and
        /// never built) when `threads == 0`, where rayon's global pool
        /// serves instead.
        pool: Arc<OnceLock<ThreadPool>>,
    },
}

impl BackendImpl {
    fn kind(&self) -> Backend {
        match self {
            BackendImpl::Scalar => Backend::Scalar,
            BackendImpl::Parallel { .. } => Backend::Parallel,
        }
    }

    /// The configured thread count as written (0 = rayon default), as
    /// opposed to the resolved budget `Executor::thread_count` reports.
    fn raw_threads(&self) -> usize {
        match self {
            BackendImpl::Scalar => 0,
            BackendImpl::Parallel { threads, .. } => *threads,
        }
    }

    /// The pooled-dispatch parameters of the parallel backend.
    fn pool_parts(&self) -> Option<(usize, &Arc<OnceLock<ThreadPool>>)> {
        match self {
            BackendImpl::Scalar => None,
            BackendImpl::Parallel { threads, pool } => Some((*threads, pool)),
        }
    }
}

/// How the per-conformation kernels are executed on the host.
///
/// Construct through [`ExecutorConfig`]; inspect through
/// [`capabilities`](Executor::capabilities).  The concrete backend state
/// (thread-pool handles) is private so new backends never change this
/// type's public surface.
#[derive(Debug, Clone)]
pub struct Executor {
    backend: BackendImpl,
    ccd_block_width: usize,
}

impl Executor {
    /// The lazily-built pool of an explicitly-sized pooled executor.
    fn sized_pool(pool: &OnceLock<ThreadPool>, threads: usize) -> &ThreadPool {
        pool.get_or_init(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build rayon pool")
        })
    }

    /// An executor with this executor's thread budget divided across `ways`
    /// concurrent consumers — the scheduling primitive behind the batch job
    /// engine: when `ways` jobs run at once, each gets `1/ways` of the
    /// worker threads (at least one), so the jobs together saturate the
    /// machine instead of oversubscribing it `ways`-fold.
    ///
    /// Scalar stays scalar; a pooled executor's budget is its explicit
    /// thread count, or one thread per core when unsized.  The split keeps
    /// the backend and the CCD block width; each split executor gets its
    /// own (lazily-built) pool.  Because executor choice never changes
    /// sampled trajectories (per-stream RNG discipline), running a job on a
    /// split executor is bit-identical to running it on the original.
    pub fn split(&self, ways: usize) -> Executor {
        let config = ExecutorConfig::from(self);
        match self.backend {
            BackendImpl::Scalar => self.clone(),
            _ => {
                let share = (self.thread_count() / ways.max(1)).max(1);
                config
                    .threads(share)
                    .build()
                    .expect("splitting a valid executor keeps it valid")
            }
        }
    }

    /// What this executor reports about itself: backend, thread budget,
    /// CCD block width and host ISA.
    pub fn capabilities(&self) -> Capabilities {
        let backend = self.backend.kind();
        Capabilities {
            backend,
            name: backend.name(),
            lane_width: 1,
            threads: self.thread_count(),
            ccd_block_width: self.ccd_block_width,
            isa: detected_host_isa(),
        }
    }

    /// The lockstep CCD block width this backend wants the sampler to
    /// batch closure with.
    pub fn ccd_block_width(&self) -> usize {
        self.ccd_block_width
    }

    /// Short display name of the backend.
    pub fn name(&self) -> &'static str {
        self.backend.kind().name()
    }

    /// Whether this executor runs work concurrently.
    pub fn is_parallel(&self) -> bool {
        self.backend.pool_parts().is_some()
    }

    /// Whether `self` and `other` dispatch onto the *same* lazily-built
    /// thread pool (i.e. one is a clone of the other).  Diagnostic for
    /// tests and schedulers that care about pool sharing; always `false`
    /// when either side is scalar or uses rayon's global pool.
    pub fn shares_pool_with(&self, other: &Executor) -> bool {
        match (self.backend.pool_parts(), other.backend.pool_parts()) {
            (Some((ta, pa)), Some((tb, pb))) if ta != 0 && tb != 0 => Arc::ptr_eq(pa, pb),
            _ => false,
        }
    }

    /// Apply `f` to every element, in index order semantics (the function
    /// receives the element index so it can derive per-element random
    /// streams).  Returns the wall-clock time the map took.
    pub fn for_each_indexed<T, F>(&self, items: &mut [T], f: F) -> Duration
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync + Send,
    {
        let start = Instant::now();
        match self.backend.pool_parts() {
            None => {
                for (i, item) in items.iter_mut().enumerate() {
                    f(i, item);
                }
            }
            Some((threads, pool)) => {
                if threads == 0 {
                    items
                        .par_iter_mut()
                        .enumerate()
                        .for_each(|(i, item)| f(i, item));
                } else {
                    Self::sized_pool(pool, threads).install(|| {
                        items
                            .par_iter_mut()
                            .enumerate()
                            .for_each(|(i, item)| f(i, item));
                    });
                }
            }
        }
        start.elapsed()
    }

    /// Map every element to a new value (used for read-only kernels such as
    /// fitness evaluation).  Returns the results and the wall-clock time.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, Duration)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync + Send,
    {
        let start = Instant::now();
        let out = match self.backend.pool_parts() {
            None => items.iter().enumerate().map(|(i, t)| f(i, t)).collect(),
            Some((threads, pool)) => {
                if threads == 0 {
                    items.par_iter().enumerate().map(|(i, t)| f(i, t)).collect()
                } else {
                    Self::sized_pool(pool, threads)
                        .install(|| items.par_iter().enumerate().map(|(i, t)| f(i, t)).collect())
                }
            }
        };
        (out, start.elapsed())
    }

    /// Launch one population-wide kernel: apply `kernel` to every logical
    /// thread index in `0..threads`, exactly once each, under this
    /// executor's execution strategy.  This is the staged-pipeline entry
    /// point: the evolution loop issues one `launch` per stage per
    /// iteration (`mutate`, `close`, `rebuild`, `score`, `metropolis`,
    /// `select`), with all member state living in population-wide SoA
    /// buffers (see [`crate::SharedLanes`]) rather than per-member structs.
    ///
    /// The kernel body receives only the thread index — the SIMT contract —
    /// so all randomness must come from counter-derived streams and all
    /// member state from disjoint lanes, which is what makes the backends
    /// bit-identical.
    ///
    /// Under the `fault-injection` feature, the fault session installed on
    /// the *launching* thread (see `crate::fault::install`) is consulted
    /// before every lane: this is the single choke point where a
    /// `crate::fault::FaultPlan` keyed by `(kind, launch_index, lane)`
    /// injects panics, NaN poisoning, or stalls.  Because the keying sees
    /// only logical lane indices, it is backend-independent: the same plan
    /// fires at the same sites on every backend.  With the feature off (the
    /// default) no fault code is compiled and the launch path is identical
    /// to previous releases.
    ///
    /// Returns the [`KernelLaunch`] record with the measured host wall time.
    pub fn launch<F>(&self, kind: KernelKind, threads: usize, kernel: F) -> KernelLaunch
    where
        F: Fn(usize) + Sync + Send,
    {
        #[cfg(feature = "fault-injection")]
        let session = crate::fault::active().map(|s| {
            let launch_index = s.next_launch_index(kind);
            (s, launch_index)
        });
        // One zero-sized lane per logical thread drives the existing
        // data-parallel dispatch without ever touching the heap (a `Vec` of
        // a ZST never allocates), so both entry points share one
        // scalar/parallel/sized-pool implementation.
        let mut lanes = vec![(); threads];
        let host = self.for_each_indexed(&mut lanes, |i, _| {
            #[cfg(feature = "fault-injection")]
            if let Some((session, launch_index)) = &session {
                session.fire(kind, *launch_index, i);
            }
            kernel(i);
            #[cfg(feature = "fault-injection")]
            crate::fault::clear_nan();
        });
        KernelLaunch {
            kind,
            threads,
            host,
        }
    }

    /// Number of worker threads this executor will use.
    pub fn thread_count(&self) -> usize {
        match self.backend.pool_parts() {
            None => 1,
            Some((threads, _)) => {
                if threads == 0 {
                    rayon::current_num_threads()
                } else {
                    threads
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scalar() -> Executor {
        ExecutorConfig::scalar().build().unwrap()
    }

    fn parallel() -> Executor {
        ExecutorConfig::parallel().build().unwrap()
    }

    fn parallel_with_threads(n: usize) -> Executor {
        ExecutorConfig::parallel().threads(n).build().unwrap()
    }

    #[test]
    fn scalar_and_parallel_produce_identical_results() {
        let mut a: Vec<u64> = (0..10_000).collect();
        let mut b = a.clone();
        let work = |i: usize, x: &mut u64| {
            // Derive the update purely from the index and value: this is the
            // discipline the sampler follows with its per-stream RNGs.
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        };
        scalar().for_each_indexed(&mut a, work);
        parallel().for_each_indexed(&mut b, work);
        assert_eq!(a, b);
    }

    #[test]
    fn map_indexed_matches_across_executors() {
        let items: Vec<u32> = (0..5_000).collect();
        let f = |i: usize, x: &u32| (*x as u64) * 3 + i as u64;
        let (s, _) = scalar().map_indexed(&items, f);
        let (p, _) = parallel().map_indexed(&items, f);
        let (p2, _) = parallel_with_threads(2).map_indexed(&items, f);
        assert_eq!(s, p);
        assert_eq!(s, p2);
    }

    #[test]
    fn every_element_is_visited_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut items = vec![0u8; 4096];
        parallel().for_each_indexed(&mut items, |_, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            *x += 1;
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4096);
        assert!(items.iter().all(|&x| x == 1));
    }

    #[test]
    fn executor_metadata() {
        assert_eq!(scalar().name(), "scalar");
        assert_eq!(parallel().name(), "parallel");
        assert!(!scalar().is_parallel());
        assert!(parallel().is_parallel());
        assert_eq!(scalar().thread_count(), 1);
        assert_eq!(parallel_with_threads(3).thread_count(), 3);
        assert!(parallel().thread_count() >= 1);
    }

    #[test]
    fn capabilities_report_the_backend() {
        let caps = parallel_with_threads(3).capabilities();
        assert_eq!(caps.backend, Backend::Parallel);
        assert_eq!(caps.name, "parallel");
        assert_eq!(caps.threads, 3);
        assert_eq!(caps.ccd_block_width, DEFAULT_CCD_BLOCK_WIDTH);
        let shown = caps.to_string();
        assert!(shown.contains("parallel") && shown.contains("ccd_block_width=8"));

        let caps = scalar().capabilities();
        assert_eq!(caps.backend, Backend::Scalar);
        assert_eq!(caps.threads, 1);
    }

    #[test]
    fn config_validates_ccd_block_width() {
        assert_eq!(
            ExecutorConfig::new()
                .ccd_block_width(0)
                .build()
                .unwrap_err(),
            ExecutorConfigError::ZeroCcdBlockWidth
        );
        assert_eq!(
            ExecutorConfig::new()
                .ccd_block_width(MAX_CCD_BLOCK_WIDTH + 1)
                .build()
                .unwrap_err(),
            ExecutorConfigError::CcdBlockWidthTooLarge {
                got: MAX_CCD_BLOCK_WIDTH + 1,
                max: MAX_CCD_BLOCK_WIDTH
            }
        );
        let exec = ExecutorConfig::new().ccd_block_width(16).build().unwrap();
        assert_eq!(exec.ccd_block_width(), 16);
        // Errors display something actionable.
        assert!(ExecutorConfigError::ZeroCcdBlockWidth
            .to_string()
            .contains("1"));
    }

    #[test]
    fn config_round_trips_through_an_executor() {
        let config = ExecutorConfig::parallel().threads(5).ccd_block_width(32);
        let exec = config.build().unwrap();
        assert_eq!(ExecutorConfig::from(&exec), config);
        assert_eq!(ExecutorConfig::from(exec), config);
    }

    #[test]
    fn empty_population_is_a_noop() {
        let mut empty: Vec<u32> = Vec::new();
        let d = parallel().for_each_indexed(&mut empty, |_, _| panic!("must not run"));
        assert!(d.as_secs() < 1);
        let (out, _) = scalar().map_indexed(&empty, |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_pool_is_lazy_built_once_and_shared_with_clones() {
        let exec = parallel_with_threads(2);
        let BackendImpl::Parallel { pool, .. } = &exec.backend else {
            unreachable!()
        };
        assert!(pool.get().is_none(), "pool must not be built before use");
        let mut items = vec![0u8; 256];
        exec.for_each_indexed(&mut items, |_, x| *x += 1);
        let first = pool.get().expect("first launch builds the pool") as *const ThreadPool;
        exec.for_each_indexed(&mut items, |_, x| *x += 1);
        let (_, _) = exec.map_indexed(&items, |_, x| *x);
        let second = pool.get().unwrap() as *const ThreadPool;
        assert_eq!(first, second, "subsequent launches must reuse the pool");
        // Clones share the same lazily-built pool; fresh builds do not.
        let clone = exec.clone();
        assert!(exec.shares_pool_with(&clone));
        assert!(!exec.shares_pool_with(&parallel_with_threads(2)));
        assert!(!exec.shares_pool_with(&scalar()));
        assert!(!parallel().shares_pool_with(&parallel()));
    }

    #[test]
    fn split_divides_the_thread_budget() {
        // Scalar splits to scalar.
        assert!(!scalar().split(4).is_parallel());
        // An explicitly-sized pool divides evenly, never below one thread.
        let exec = parallel_with_threads(8);
        assert_eq!(exec.split(2).thread_count(), 4);
        assert_eq!(exec.split(3).thread_count(), 2);
        assert_eq!(exec.split(100).thread_count(), 1);
        assert_eq!(exec.split(0).thread_count(), 8);
        // Splits get their own pool but keep backend and block width.
        let wide_cfg = ExecutorConfig::parallel().threads(8).ccd_block_width(32);
        let wide = wide_cfg.build().unwrap();
        let half = wide.split(2);
        assert_eq!(half.capabilities().backend, Backend::Parallel);
        assert_eq!(half.ccd_block_width(), 32);
        assert!(!wide.shares_pool_with(&half));
        // Splitting preserves results.
        let mut a = vec![0u64; 999];
        let mut b = vec![0u64; 999];
        let work = |i: usize, x: &mut u64| *x = (i as u64).wrapping_mul(31);
        exec.for_each_indexed(&mut a, work);
        exec.split(3).for_each_indexed(&mut b, work);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_thread_count_still_visits_everything() {
        let mut items = vec![1u64; 1000];
        parallel_with_threads(2).for_each_indexed(&mut items, |i, x| *x = i as u64);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }
}
