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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_visits_every_index_once() {
        // 4097 lanes leave a remainder chunk at every thread count tried.
        for threads in [1, 2, 3, 8] {
            let executor = ExecutorConfig::parallel().threads(threads).build().unwrap();
            let mut items = vec![0usize; 4097];
            let visits = AtomicUsize::new(0);
            let lanes = SharedLanes::new(&mut items);
            let record = executor.launch(KernelKind::Reproduction, 4097, |i| {
                visits.fetch_add(1, Ordering::Relaxed);
                // SAFETY: kernel i touches only lane i.
                *unsafe { lanes.item_mut(i) } = i * 2;
            });
            assert_eq!(record.threads, 4097);
            assert_eq!(visits.load(Ordering::Relaxed), 4097, "{threads} threads");
            assert!(items.iter().enumerate().all(|(i, &x)| x == i * 2));
        }
    }

    #[test]
    fn empty_slices_are_noops() {
        for config in [
            ExecutorConfig::scalar(),
            ExecutorConfig::parallel(),
            ExecutorConfig::parallel().threads(4),
        ] {
            let executor = config.build().unwrap();
            let mut empty: Vec<u8> = Vec::new();
            let lanes = SharedLanes::new(&mut empty);
            assert!(lanes.is_empty());
            let record = executor.launch(KernelKind::Reproduction, lanes.len(), |_| {
                panic!("must not run")
            });
            assert_eq!(record.threads, 0);
        }
    }
}
