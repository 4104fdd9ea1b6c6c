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
//! * [`Backend::Parallel`] — the population split into one contiguous
//!   chunk of lanes per worker thread, playing the role of the GPU in the
//!   heterogeneous CPU–GPU platform.
//!
//! Executors are built through the validated [`ExecutorConfig`] builder:
//!
//! ```
//! use lms_simt::{Backend, ExecutorConfig};
//!
//! # fn main() -> Result<(), lms_simt::ExecutorConfigError> {
//! let exec = ExecutorConfig::parallel()
//!     .threads(2)
//!     .ccd_block_width(16)
//!     .build()?;
//! assert_eq!(exec.capabilities().backend, Backend::Parallel);
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
use std::fmt;
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

/// Which execution strategy an [`Executor`] uses for population kernels.
///
/// `#[non_exhaustive]`: future backends (a GPU device, for one) will add
/// variants without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backend {
    /// Sequential execution on the calling thread (the CPU baseline).
    Scalar,
    /// Data-parallel execution across worker threads (the device role).
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
/// Defaults: [`Backend::Parallel`] with one worker thread per core and
/// [`DEFAULT_CCD_BLOCK_WIDTH`].
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
    /// The sequential backend ([`Backend::Scalar`]) at the default CCD
    /// block width.
    pub fn scalar() -> ExecutorConfig {
        ExecutorConfig {
            backend: Backend::Scalar,
            ..ExecutorConfig::default()
        }
    }

    /// The parallel backend ([`Backend::Parallel`]) with the default
    /// thread budget and CCD block width — the same as `default()`.
    pub fn parallel() -> ExecutorConfig {
        ExecutorConfig::default()
    }

    /// The same as [`parallel`](Self::parallel); kept only because the
    /// frozen `loopbench/` package still calls it.  Remove with that
    /// package's next change.
    #[doc(hidden)]
    pub fn simd() -> ExecutorConfig {
        ExecutorConfig::parallel()
    }

    /// Set the worker-thread budget (0 = one per core, resolved at
    /// [`build`](Self::build) time).
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
        let threads = match (self.backend, self.threads) {
            (Backend::Scalar, _) => 1,
            (Backend::Parallel, 0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
            (Backend::Parallel, n) => n,
        };
        Ok(Executor {
            backend: self.backend,
            threads,
            ccd_block_width: self.ccd_block_width,
        })
    }
}

impl From<Executor> for ExecutorConfig {
    /// Recover a configuration that builds an equivalent executor (its
    /// thread budget as resolved), so an already-built `Executor` can be
    /// handed anywhere an `impl Into<ExecutorConfig>` is expected (the
    /// engine builder).
    fn from(exec: Executor) -> ExecutorConfig {
        ExecutorConfig {
            backend: exec.backend,
            threads: exec.threads,
            ccd_block_width: exec.ccd_block_width,
        }
    }
}

impl From<&Executor> for ExecutorConfig {
    fn from(exec: &Executor) -> ExecutorConfig {
        ExecutorConfig::from(exec.clone())
    }
}

/// How the per-conformation kernels are executed on the host.
///
/// Construct through [`ExecutorConfig`]; inspect through
/// [`capabilities`](Executor::capabilities).
#[derive(Debug, Clone)]
pub struct Executor {
    backend: Backend,
    /// Worker threads per launch, resolved once at build time: 1 for
    /// scalar, one per core for an unsized parallel executor.
    threads: usize,
    ccd_block_width: usize,
}

impl Executor {
    /// An executor with this executor's thread budget divided across `ways`
    /// concurrent consumers — the scheduling primitive behind the batch job
    /// engine: when `ways` jobs run at once, each gets `1/ways` of the
    /// worker threads (at least one), so the jobs together saturate the
    /// machine instead of oversubscribing it `ways`-fold.
    ///
    /// Scalar stays scalar; a parallel executor's budget is its explicit
    /// thread count, or one thread per core when unsized.  The split keeps
    /// the backend and the CCD block width.  Because executor choice never
    /// changes sampled trajectories (per-stream RNG discipline), running a
    /// job on a split executor is bit-identical to running it on the
    /// original.
    pub fn split(&self, ways: usize) -> Executor {
        match self.backend {
            Backend::Scalar => self.clone(),
            Backend::Parallel => Executor {
                threads: (self.threads / ways.max(1)).max(1),
                ..self.clone()
            },
        }
    }

    /// What this executor reports about itself: backend, thread budget,
    /// CCD block width and host ISA.
    pub fn capabilities(&self) -> Capabilities {
        Capabilities {
            backend: self.backend,
            name: self.backend.name(),
            lane_width: 1,
            threads: self.threads,
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
        self.backend.name()
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
        let lane = |i: usize| {
            #[cfg(feature = "fault-injection")]
            if let Some((session, launch_index)) = &session {
                session.fire(kind, *launch_index, i);
            }
            kernel(i);
            #[cfg(feature = "fault-injection")]
            crate::fault::clear_nan();
        };
        let start = Instant::now();
        run_chunks(threads, self.threads, &lane);
        KernelLaunch {
            kind,
            threads,
            host: start.elapsed(),
        }
    }

    /// Number of worker threads this executor will use.
    pub fn thread_count(&self) -> usize {
        self.threads
    }
}

/// Run `lane(i)` exactly once for every `i` in `0..len` on up to `workers`
/// threads.  The lanes split into contiguous chunks of
/// `len.div_ceil(workers)`: the calling thread runs the first chunk and one
/// scoped thread runs each of the others, so a panicking lane reaches the
/// caller once every chunk has finished.  At one worker the lanes run
/// inline, in order, on the calling thread.
fn run_chunks(len: usize, workers: usize, lane: &(impl Fn(usize) + Sync)) {
    if len == 0 {
        return;
    }
    let workers = workers.clamp(1, len);
    if workers == 1 {
        (0..len).for_each(lane);
        return;
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|scope| {
        for start in (chunk..len).step_by(chunk) {
            scope.spawn(move || (start..(start + chunk).min(len)).for_each(lane));
        }
        (0..chunk).for_each(lane);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedLanes;
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

    /// One launch applying `work` to every element of `items`, each kernel
    /// touching only its own element.
    fn launch_over<T: Send>(
        exec: &Executor,
        items: &mut [T],
        work: impl Fn(usize, &mut T) + Sync + Send,
    ) {
        let n = items.len();
        let lanes = SharedLanes::new(items);
        // SAFETY: kernel i touches only element i.
        let _ = exec.launch(KernelKind::Reproduction, n, |i| {
            work(i, unsafe { lanes.item_mut(i) })
        });
    }

    #[test]
    fn scalar_and_parallel_produce_identical_results() {
        let mut a: Vec<u64> = (0..10_000).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        let work = |i: usize, x: &mut u64| {
            // Derive the update purely from the index and value: this is the
            // discipline the sampler follows with its per-stream RNGs.
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        };
        launch_over(&scalar(), &mut a, work);
        launch_over(&parallel(), &mut b, work);
        launch_over(&parallel_with_threads(2), &mut c, work);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn every_element_is_visited_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut items = vec![0u8; 4096];
        launch_over(&parallel(), &mut items, |_, x| {
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
            ExecutorConfig::parallel()
                .ccd_block_width(0)
                .build()
                .unwrap_err(),
            ExecutorConfigError::ZeroCcdBlockWidth
        );
        assert_eq!(
            ExecutorConfig::parallel()
                .ccd_block_width(MAX_CCD_BLOCK_WIDTH + 1)
                .build()
                .unwrap_err(),
            ExecutorConfigError::CcdBlockWidthTooLarge {
                got: MAX_CCD_BLOCK_WIDTH + 1,
                max: MAX_CCD_BLOCK_WIDTH
            }
        );
        let exec = ExecutorConfig::parallel()
            .ccd_block_width(16)
            .build()
            .unwrap();
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
        for exec in [scalar(), parallel(), parallel_with_threads(2)] {
            let launch = exec.launch(KernelKind::Ccd, 0, |_| panic!("must not run"));
            assert_eq!(launch.threads, 0);
            assert!(launch.host.as_secs() < 1);
        }
    }

    #[test]
    fn default_parallel_resolves_one_thread_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let exec = parallel();
        assert_eq!(exec.thread_count(), cores);
        assert_eq!(exec.capabilities().threads, cores);
    }

    #[test]
    fn split_divides_the_thread_budget() {
        // Scalar splits to scalar.
        assert_eq!(scalar().split(4).capabilities().backend, Backend::Scalar);
        // An explicitly-sized executor divides evenly, never below one thread.
        let exec = parallel_with_threads(8);
        assert_eq!(exec.split(2).thread_count(), 4);
        assert_eq!(exec.split(3).thread_count(), 2);
        assert_eq!(exec.split(100).thread_count(), 1);
        assert_eq!(exec.split(0).thread_count(), 8);
        // Splits keep backend and block width.
        let wide_cfg = ExecutorConfig::parallel().threads(8).ccd_block_width(32);
        let half = wide_cfg.build().unwrap().split(2);
        assert_eq!(half.capabilities().backend, Backend::Parallel);
        assert_eq!(half.ccd_block_width(), 32);
        // Splitting preserves results.
        let mut a = vec![0u64; 999];
        let mut b = vec![0u64; 999];
        let work = |i: usize, x: &mut u64| *x = (i as u64).wrapping_mul(31);
        launch_over(&exec, &mut a, work);
        launch_over(&exec.split(3), &mut b, work);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_thread_count_still_visits_everything() {
        // Fewer lanes than threads, a remainder chunk, and empty launches.
        for (lanes, threads) in [(1000, 2), (0, 2), (1, 4), (3, 4), (1000, 3), (1001, 7)] {
            let visits = AtomicUsize::new(0);
            let mut items = vec![usize::MAX; lanes];
            launch_over(&parallel_with_threads(threads), &mut items, |i, x| {
                visits.fetch_add(1, Ordering::Relaxed);
                *x = i;
            });
            assert_eq!(
                visits.load(Ordering::Relaxed),
                lanes,
                "{lanes} lanes / {threads}"
            );
            assert!(items.iter().enumerate().all(|(i, &x)| x == i));
        }
    }

    #[test]
    fn a_panicking_lane_reaches_the_caller() {
        // The last lane runs on a spawned thread, not the caller's chunk.
        let exec = parallel_with_threads(2);
        let caught = std::panic::catch_unwind(|| {
            let _ = exec.launch(KernelKind::Ccd, 64, |i| assert!(i != 63, "lane 63"));
        });
        assert!(caught.is_err());
    }
}
