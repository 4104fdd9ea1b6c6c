//! # lms-simt
//!
//! The host-side stand-in for the paper's GPU: executors that run the
//! per-conformation kernels of the sampling pipeline — sequentially (the
//! paper's CPU baseline) or data-parallel across cores (the device role) —
//! over flat population lanes, one logical thread per conformation.
//!
//! The executors measure each launch's wall time; the sampler keeps those
//! measurements in its stage record.  The modeled GTX 280 numbers of the
//! paper's tables are derived from that record after a run, outside this
//! crate (`lms-bench`'s `gtx280` and `profiler` modules).
//!
//! ## Quick example
//!
//! ```
//! use lms_simt::{ExecutorConfig, KernelKind, SharedLanes};
//!
//! // Launch a kernel over a population on all cores: thread i writes lane i.
//! let executor = ExecutorConfig::parallel().build().expect("valid config");
//! let mut population = vec![0u64; 1024];
//! let lanes = SharedLanes::new(&mut population);
//! let record = executor.launch(KernelKind::Ccd, 1024, |i| {
//!     // SAFETY: kernel i touches only lane i.
//!     *unsafe { lanes.item_mut(i) } = i as u64;
//! });
//! assert_eq!(record.threads, 1024);
//! assert_eq!(population[1023], 1023);
//! ```

#![warn(missing_docs)]

pub mod executor;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod kernel;
pub mod lanes;

pub use executor::{
    Backend, Capabilities, Executor, ExecutorConfig, ExecutorConfigError, KernelLaunch,
    DEFAULT_CCD_BLOCK_WIDTH, MAX_CCD_BLOCK_WIDTH,
};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultKind, FaultPlan, FaultSession, FaultSite};
pub use kernel::KernelKind;
pub use lanes::SharedLanes;
