//! # lms-simt
//!
//! The heterogeneous CPU–GPU platform substitute: a software model of the
//! paper's NVIDIA GTX 280 (resource limits, occupancy, kernel/memcpy timing)
//! plus host-side executors that actually run the per-conformation kernels
//! — sequentially (the CPU baseline) or data-parallel across cores (the
//! device role).
//!
//! The numerical work is always performed for real on the host; only the
//! *device timings* are modeled.  The executors measure each launch's wall
//! time; the pure model modules here are evaluated after a run, by the
//! benchmark harness (`lms-bench`'s `profiler` module), over the sampler's
//! measured stage counts to regenerate the paper's Figure 4 and Tables I–III
//! without CUDA hardware.
//!
//! ## Quick example
//!
//! ```
//! use lms_simt::{DeviceSpec, ExecutorConfig, KernelKind, LaunchConfig, SharedLanes, TimingModel};
//!
//! // Occupancy of the CCD kernel at the paper's 128-thread blocks.
//! let spec = DeviceSpec::gtx280();
//! let launch = LaunchConfig::for_population(15_360);
//! let occ = launch.occupancy(&spec, KernelKind::Ccd);
//! assert_eq!(occ.blocks_per_sm, 4);
//! assert!((occ.occupancy - 0.5).abs() < 1e-9);
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
//!
//! // Modeled device time for that launch.
//! let model = TimingModel::default();
//! let us = model.kernel_time_us(KernelKind::Ccd, launch, 1000.0);
//! assert!(us > 0.0);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod executor;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod kernel;
pub mod lanes;
pub mod memory;
pub mod occupancy;
pub mod timing;

pub use device::{DeviceSpec, HostSpec};
pub use executor::{
    Backend, Capabilities, Executor, ExecutorConfig, ExecutorConfigError, KernelLaunch,
    DEFAULT_CCD_BLOCK_WIDTH, MAX_CCD_BLOCK_WIDTH,
};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultKind, FaultPlan, FaultSession, FaultSite};
pub use kernel::{KernelKind, LaunchConfig};
pub use lanes::SharedLanes;
pub use memory::{transfer_time_us, DataPlacement, MemorySpace, TransferKind};
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use timing::TimingModel;
