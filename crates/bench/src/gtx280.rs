//! The modeled NVIDIA GeForce GTX 280 and the Intel host it is compared
//! against: the analytic model behind the paper's modeled Tables I–III and
//! Figure 4.
//!
//! The paper ran on a GTX 280 — 30 streaming multiprocessors (SMs) × 8
//! scalar cores, 16 K registers per SM, blocks of up to 512 threads — next
//! to a 2.0 GHz Intel quad-core.  Neither is available here, so both are
//! modeled from the same abstract per-thread work counts
//! ([`DeviceProfile`](crate::profiler::DeviceProfile) derives them from a
//! finished trajectory's measured stage record):
//!
//! * **occupancy** (Table III) — resident warps over the SM's maximum,
//!   limited by whichever of registers, block slots or resident threads
//!   runs out first;
//! * **device time** of a kernel launch — a wave model: blocks run in waves
//!   of `SM_COUNT × blocks_per_sm`, and each wave's cycle count is the
//!   per-thread work over the SM's scalar cores, at a latency-hiding
//!   efficiency that grows with occupancy;
//! * **host time** — the same work at the modeled CPU's sustained
//!   operation rate, one core;
//! * **memcpy time** (Table II) — a fixed latency plus the bytes at the
//!   PCIe or device-memory bandwidth.
//!
//! Both sides are driven by the same measured work counts, so the *shape*
//! of the paper's results (which kernel dominates, how the speedup grows
//! with population) is reproduced even though the absolute microseconds
//! are synthetic.  They are never a performance claim.

use lms_simt::KernelKind;

/// Streaming multiprocessors on the device.
const SM_COUNT: usize = 30;
/// Scalar cores per SM.
const CORES_PER_SM: usize = 8;
/// 32-bit registers per SM.
const REGISTERS_PER_SM: usize = 16 * 1024;
/// Largest block the device launches.
const MAX_THREADS_PER_BLOCK: usize = 512;
/// Resident threads per SM.
const MAX_THREADS_PER_SM: usize = 1024;
/// Resident blocks per SM.
const MAX_BLOCKS_PER_SM: usize = 8;
/// Threads issued in lockstep.
const WARP_SIZE: usize = 32;
/// Resident warps per SM.
const MAX_WARPS_PER_SM: usize = MAX_THREADS_PER_SM / WARP_SIZE;
/// Shader clock (MHz).
const CLOCK_MHZ: f64 = 1296.0;
/// Device-memory bandwidth (GB/s).
const MEMORY_BANDWIDTH_GB_S: f64 = 141.7;
/// Host–device (PCIe) bandwidth (GB/s).
const TRANSFER_BANDWIDTH_GB_S: f64 = 5.0;
/// Fixed cost of one kernel launch (µs).
const LAUNCH_OVERHEAD_US: f64 = 6.0;
/// Fixed latency of one memory copy (µs).
const TRANSFER_LATENCY_US: f64 = 8.0;
/// Core clock of the modeled host CPU (MHz).
const HOST_CLOCK_MHZ: f64 = 2000.0;
/// Scalar operations the host retires per cycle on this workload.
const HOST_OPS_PER_CYCLE: f64 = 2.6;

/// Registers per thread after compilation (paper Table III; estimates for
/// the kernels the paper does not list).
pub(crate) fn registers_per_thread(kind: KernelKind) -> usize {
    match kind {
        KernelKind::Ccd | KernelKind::EvalDist | KernelKind::EvalVdw => 32,
        KernelKind::EvalTrip => 20,
        KernelKind::FitAssgPopulation => 8,
        KernelKind::FitAssgComplex => 5,
        KernelKind::Reproduction => 16,
        KernelKind::Metropolis => 10,
        KernelKind::Rebuild => 24,
        KernelKind::Select => 8,
        KernelKind::HealthSweep => 6,
    }
}

/// Device cycles charged per abstract work unit of a kernel.  The work
/// units are atom placements for CCD, scored pairs for DIST/VDW, table
/// lookups for TRIPLET and comparisons for the fitness kernels; a CCD atom
/// placement (trigonometry and a local frame) costs far more cycles than a
/// fitness comparison.
fn cycles_per_work_unit(kind: KernelKind) -> f64 {
    match kind {
        KernelKind::Ccd => 90.0,
        // A DIST pair costs a distance, a bin index and an un-coalesced
        // texture fetch from the large pairwise table; a VDW contact is a
        // distance plus a branch and a multiply on in-register radii.
        KernelKind::EvalDist => 70.0,
        KernelKind::EvalVdw => 12.0,
        KernelKind::EvalTrip => 30.0,
        KernelKind::FitAssgPopulation | KernelKind::FitAssgComplex => 3.0,
        KernelKind::Reproduction => 40.0,
        KernelKind::Metropolis => 12.0,
        // A Rebuild work unit is one superimposed atom of the RMSD
        // observable (Kabsch accumulation); a Select work unit is one
        // copied torsion lane element.
        KernelKind::Rebuild => 30.0,
        KernelKind::Select => 4.0,
        // A HealthSweep work unit is one finite-classification of an
        // in-register double.
        KernelKind::HealthSweep => 2.0,
    }
}

/// The occupancy of one kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Occupancy {
    /// Blocks that fit concurrently on one SM.
    pub(crate) blocks_per_sm: usize,
    /// Resident warps as a fraction of the SM's maximum, in `[0, 1]`.
    pub(crate) occupancy: f64,
}

/// The occupancy of a kernel using `registers_per_thread` registers at
/// `threads_per_block` threads per block (clamped to the device's largest
/// block).
pub(crate) fn occupancy(registers_per_thread: usize, threads_per_block: usize) -> Occupancy {
    if threads_per_block == 0 {
        return Occupancy {
            blocks_per_sm: 0,
            occupancy: 0.0,
        };
    }
    let threads_per_block = threads_per_block.min(MAX_THREADS_PER_BLOCK);
    let reg_limit = REGISTERS_PER_SM
        .checked_div(registers_per_thread * threads_per_block)
        .unwrap_or(usize::MAX);
    let blocks_per_sm = reg_limit
        .min(MAX_BLOCKS_PER_SM)
        .min(MAX_THREADS_PER_SM / threads_per_block);
    let warps_per_sm = blocks_per_sm * threads_per_block / WARP_SIZE;
    Occupancy {
        blocks_per_sm,
        occupancy: warps_per_sm as f64 / MAX_WARPS_PER_SM as f64,
    }
}

/// How a population maps onto thread blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
}

impl LaunchConfig {
    /// The paper's configuration: 128 threads per block, one thread per
    /// conformation, the block count rounded up.
    pub fn for_population(population: usize) -> LaunchConfig {
        LaunchConfig {
            blocks: population.div_ceil(128),
            threads_per_block: 128,
        }
    }

    /// Total threads launched (may exceed the population in the last block).
    pub(crate) fn total_threads(&self) -> usize {
        self.blocks * self.threads_per_block
    }

    /// The occupancy this launch achieves for `kind`.
    pub(crate) fn occupancy(&self, kind: KernelKind) -> Occupancy {
        occupancy(registers_per_thread(kind), self.threads_per_block)
    }
}

/// Latency-hiding efficiency as a function of occupancy: even one resident
/// warp keeps a fraction of the pipeline busy, and efficiency approaches 1
/// as the SM fills.
fn latency_hiding_efficiency(occupancy: f64) -> f64 {
    0.30 + 0.70 * occupancy.clamp(0.0, 1.0)
}

/// Modeled device time (µs) of one launch of `kind` in which every thread
/// performs `work_units_per_thread` work units.
pub(crate) fn kernel_time_us(
    kind: KernelKind,
    launch: LaunchConfig,
    work_units_per_thread: f64,
) -> f64 {
    if launch.blocks == 0 || launch.threads_per_block == 0 {
        return LAUNCH_OVERHEAD_US;
    }
    let occ = launch.occupancy(kind);
    let blocks_per_sm = occ.blocks_per_sm.max(1);
    // How many waves of resident blocks the grid needs.
    let waves = launch.blocks.div_ceil(SM_COUNT * blocks_per_sm).max(1);
    let cycles_per_thread = work_units_per_thread * cycles_per_work_unit(kind);
    let threads_per_sm_per_wave = (blocks_per_sm * launch.threads_per_block).min(
        launch
            .total_threads()
            .div_ceil(SM_COUNT)
            .max(launch.threads_per_block),
    );
    let efficiency = latency_hiding_efficiency(occ.occupancy);
    let wave_cycles =
        (threads_per_sm_per_wave as f64 * cycles_per_thread) / (CORES_PER_SM as f64 * efficiency);
    LAUNCH_OVERHEAD_US + waves as f64 * wave_cycles / CLOCK_MHZ
}

/// Modeled single-core host time (µs) of the same work over `population`
/// conformations, processed one after another: the same cycle count per
/// work unit at the host's superscalar throughput.
pub(crate) fn cpu_time_us(kind: KernelKind, population: usize, work_units_per_thread: f64) -> f64 {
    let cycles = population as f64 * work_units_per_thread * cycles_per_work_unit(kind);
    cycles / (HOST_CLOCK_MHZ * HOST_OPS_PER_CYCLE)
}

/// Host/device copy directions, named as the CUDA profiler names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransferKind {
    /// Host to device array (texture-bound).
    HtoA,
    /// Host to device global memory.
    HtoD,
    /// Device global memory to device array (texture-bound).
    DtoA,
    /// Device to host.
    DtoH,
    /// Device to device.
    DtoD,
}

impl TransferKind {
    /// All directions in the order the paper's Table II lists them.
    pub const ALL: [TransferKind; 5] = [
        TransferKind::HtoA,
        TransferKind::HtoD,
        TransferKind::DtoA,
        TransferKind::DtoH,
        TransferKind::DtoD,
    ];

    /// The CUDA profiler's method name for this direction.
    pub fn name(&self) -> &'static str {
        match self {
            TransferKind::HtoA => "memcpyHtoA",
            TransferKind::HtoD => "memcpyHtoD",
            TransferKind::DtoA => "memcpyDtoA",
            TransferKind::DtoH => "memcpyDtoH",
            TransferKind::DtoD => "memcpyDtoD",
        }
    }
}

/// Modeled time (µs) of one `bytes`-sized copy: copies with the host on one
/// side cross PCIe, the others run at device-memory bandwidth.
pub(crate) fn transfer_time_us(kind: TransferKind, bytes: usize) -> f64 {
    let bandwidth_gb_s = match kind {
        TransferKind::HtoA | TransferKind::HtoD | TransferKind::DtoH => TRANSFER_BANDWIDTH_GB_S,
        TransferKind::DtoA | TransferKind::DtoD => MEMORY_BANDWIDTH_GB_S,
    };
    // GB/s is bytes per ns; bytes / (GB/s · 1e3) is µs.
    TRANSFER_LATENCY_US + bytes as f64 / (bandwidth_gb_s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx280_matches_published_resources() {
        assert_eq!(SM_COUNT, 30);
        assert_eq!(CORES_PER_SM, 8);
        assert_eq!(SM_COUNT * CORES_PER_SM, 240);
        assert_eq!(REGISTERS_PER_SM, 16384);
        assert_eq!(MAX_THREADS_PER_BLOCK, 512);
        assert_eq!(WARP_SIZE, 32);
        assert_eq!(MAX_WARPS_PER_SM, 32);
    }

    #[test]
    fn paper_register_counts() {
        assert_eq!(registers_per_thread(KernelKind::Ccd), 32);
        assert_eq!(registers_per_thread(KernelKind::EvalDist), 32);
        assert_eq!(registers_per_thread(KernelKind::EvalVdw), 32);
        assert_eq!(registers_per_thread(KernelKind::EvalTrip), 20);
        assert_eq!(registers_per_thread(KernelKind::FitAssgPopulation), 8);
        assert_eq!(registers_per_thread(KernelKind::FitAssgComplex), 5);
    }

    #[test]
    fn ccd_is_the_most_expensive_per_work_unit_scoring_kernel() {
        assert!(cycles_per_work_unit(KernelKind::Ccd) > cycles_per_work_unit(KernelKind::EvalDist));
        assert!(
            cycles_per_work_unit(KernelKind::EvalDist)
                > cycles_per_work_unit(KernelKind::FitAssgPopulation)
        );
    }

    #[test]
    fn paper_table3_register_counts_reproduce_reported_occupancy() {
        // Table III of the paper, at the paper's 128 threads per block.
        let cases = [
            (32usize, 0.50), // CCD, EvalDIST, EvalVDW
            (20, 0.75),      // EvalTRIP
            (8, 1.00),       // FitAssg within population
            (5, 1.00),       // FitAssg within complex
        ];
        for (regs, expected) in cases {
            let occ = occupancy(regs, 128);
            assert!(
                (occ.occupancy - expected).abs() < 1e-9,
                "{regs} registers: expected {expected}, got {}",
                occ.occupancy
            );
        }
    }

    #[test]
    fn register_limited_case_identifies_limiter() {
        // 32 registers × 128 threads: the register file holds 4 blocks,
        // below the 8 block slots and the 1024-thread limit.
        let occ = occupancy(32, 128);
        assert_eq!(occ.blocks_per_sm, 4);
        assert!((occ.occupancy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn slot_limited_case() {
        // Tiny register footprint and tiny blocks: the 8-block slot limit binds.
        let occ = occupancy(4, 64);
        assert_eq!(occ.blocks_per_sm, 8);
        assert!((occ.occupancy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thread_limited_case() {
        // 512-thread blocks with few registers: two blocks exhaust 1024 threads.
        let occ = occupancy(8, 512);
        assert_eq!(occ.blocks_per_sm, 2);
        assert!((occ.occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_threads_is_degenerate() {
        let occ = occupancy(32, 0);
        assert_eq!(occ.blocks_per_sm, 0);
        assert_eq!(occ.occupancy, 0.0);
    }

    #[test]
    fn oversized_blocks_are_clamped_to_device_limit() {
        // Clamped to 512-thread blocks.
        assert_eq!(occupancy(8, 4096), occupancy(8, 512));
        assert!(occupancy(8, 4096).blocks_per_sm >= 1);
    }

    #[test]
    fn occupancy_is_monotone_in_register_pressure() {
        let mut last = 2.0;
        for regs in [4, 8, 16, 20, 24, 32, 48, 64, 96, 128] {
            let occ = occupancy(regs, 128).occupancy;
            assert!(
                occ <= last + 1e-12,
                "occupancy must not increase with more registers"
            );
            last = occ;
        }
    }

    #[test]
    fn launch_config_covers_population() {
        let lc = LaunchConfig::for_population(15_360);
        assert_eq!(lc.threads_per_block, 128);
        assert_eq!(lc.blocks, 120);
        assert_eq!(lc.total_threads(), 15_360);

        // Non-divisible populations round the block count up.
        let lc2 = LaunchConfig::for_population(1000);
        assert_eq!(lc2.blocks, 8);
        assert!(lc2.total_threads() >= 1000);

        assert_eq!(LaunchConfig::for_population(512).blocks, 4);
    }

    #[test]
    fn occupancy_through_launch_config() {
        let lc = LaunchConfig::for_population(15_360);
        assert!((lc.occupancy(KernelKind::Ccd).occupancy - 0.5).abs() < 1e-9);
        assert!((lc.occupancy(KernelKind::FitAssgComplex).occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn device_time_grows_with_work() {
        let lc = LaunchConfig::for_population(15_360);
        let t1 = kernel_time_us(KernelKind::Ccd, lc, 100.0);
        let t2 = kernel_time_us(KernelKind::Ccd, lc, 1_000.0);
        assert!(t2 > t1);
    }

    #[test]
    fn device_time_is_nearly_flat_below_saturation() {
        // The device has capacity for 30 SMs x 4 blocks x 128 threads =
        // 15,360 resident CCD threads; going from 512 to 7,680 threads
        // should barely change the modeled time (one wave either way),
        // while the CPU baseline scales linearly.  This is the Figure 4
        // behaviour.
        let work = 2_000.0;
        let small = kernel_time_us(KernelKind::Ccd, LaunchConfig::for_population(512), work);
        let large = kernel_time_us(KernelKind::Ccd, LaunchConfig::for_population(7_680), work);
        assert!(
            large < small * 2.0,
            "device should not scale linearly below saturation"
        );
        let cpu_small = cpu_time_us(KernelKind::Ccd, 512, work);
        let cpu_large = cpu_time_us(KernelKind::Ccd, 7_680, work);
        assert!(
            (cpu_large / cpu_small - 15.0).abs() < 1e-9,
            "CPU scales linearly"
        );
    }

    /// Modeled speedup of one launch of `kind` over `population`
    /// conformations.
    fn speedup(kind: KernelKind, population: usize, work: f64) -> f64 {
        let launch = LaunchConfig::for_population(population);
        cpu_time_us(kind, population, work) / kernel_time_us(kind, launch, work)
    }

    #[test]
    fn full_population_speedup_is_in_the_papers_range() {
        // At the paper's operating point (15,360 threads, 128 per block,
        // register-limited 50% occupancy) the modeled speedup for the
        // dominant kernels should land in the tens — the paper reports ~40.
        for kernel in [KernelKind::Ccd, KernelKind::EvalDist, KernelKind::EvalVdw] {
            let s = speedup(kernel, 15_360, 3_000.0);
            assert!(
                s > 20.0 && s < 80.0,
                "{kernel:?} speedup {s} outside plausible band"
            );
        }
    }

    #[test]
    fn tiny_populations_underutilize_the_device() {
        let s_small = speedup(KernelKind::Ccd, 256, 3_000.0);
        let s_large = speedup(KernelKind::Ccd, 15_360, 3_000.0);
        assert!(
            s_small < s_large,
            "small populations must not reach full speedup"
        );
    }

    #[test]
    fn zero_block_launch_costs_only_overhead() {
        let lc = LaunchConfig {
            blocks: 0,
            threads_per_block: 128,
        };
        assert_eq!(
            kernel_time_us(KernelKind::Ccd, lc, 100.0),
            LAUNCH_OVERHEAD_US
        );
    }

    #[test]
    fn higher_occupancy_kernels_run_relatively_faster() {
        // Same work, same launch: the 100%-occupancy fitness kernel hides
        // latency better than the register-bound CCD kernel, so its time per
        // cycle-of-work is smaller.
        let lc = LaunchConfig::for_population(15_360);
        let work = 1_000.0;
        let t_ccd =
            kernel_time_us(KernelKind::Ccd, lc, work) / cycles_per_work_unit(KernelKind::Ccd);
        let t_fit = kernel_time_us(KernelKind::FitAssgPopulation, lc, work)
            / cycles_per_work_unit(KernelKind::FitAssgPopulation);
        assert!(t_fit < t_ccd);
    }

    #[test]
    fn transfer_names_match_cuda_profiler() {
        assert_eq!(TransferKind::HtoD.name(), "memcpyHtoD");
        assert_eq!(TransferKind::DtoA.name(), "memcpyDtoA");
        assert_eq!(TransferKind::ALL.len(), 5);
    }

    #[test]
    fn host_crossing_transfers_are_slower() {
        let bytes = 4 * 1024 * 1024;
        let across = transfer_time_us(TransferKind::HtoD, bytes);
        let on_device = transfer_time_us(TransferKind::DtoD, bytes);
        assert!(across > on_device);
    }

    #[test]
    fn transfer_time_scales_with_size_plus_latency() {
        let small = transfer_time_us(TransferKind::DtoH, 1024);
        let large = transfer_time_us(TransferKind::DtoH, 1024 * 1024);
        assert!(large > small);
        // Latency floor dominates tiny copies.
        assert!(small >= TRANSFER_LATENCY_US);
        assert!(small < TRANSFER_LATENCY_US + 1.0);
    }
}
