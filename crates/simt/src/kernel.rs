//! Kernel descriptions and launch configurations.
//!
//! The sampling pipeline is decomposed into the same GPU kernels as the
//! paper's implementation (its Table II): loop closure ([`KernelKind::Ccd`]),
//! the three scoring-function evaluations, fitness assignment at population
//! and complex scope, plus conformation reproduction and the Metropolis
//! acceptance step.  Each kernel carries the per-thread register footprint
//! reported in the paper's Table III (or a comparable estimate for the
//! kernels the paper folds into others), which drives the occupancy model.

use crate::device::DeviceSpec;
use crate::occupancy::{occupancy, Occupancy};

/// The GPU kernels of the multi-scoring sampling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// Cyclic Coordinate Descent loop closure.
    Ccd,
    /// Atom pair-wise distance scoring function evaluation.
    EvalDist,
    /// Soft-sphere van der Waals scoring function evaluation.
    EvalVdw,
    /// Triplet torsion-angle scoring function evaluation.
    EvalTrip,
    /// Pareto-strength fitness assignment across the whole population.
    FitAssgPopulation,
    /// Fitness assignment within one complex: per sorted population
    /// position, the member's Eq. 1 strength and front flag within its
    /// complex, the table the Metropolis test reads.  Launched once per
    /// iteration under multi-scoring.
    FitAssgComplex,
    /// Generation of a new conformation by torsion mutation.
    Reproduction,
    /// Metropolis acceptance test.
    Metropolis,
    /// Candidate-structure finalisation after closure: closure-deviation
    /// readback and the RMSD-to-native observable (a staged-pipeline kernel
    /// the paper folds into its evaluation tasks).
    Rebuild,
    /// Population selection: accepted candidates overwrite their members'
    /// conformation lanes in the SoA arena.
    Select,
    /// Numerical health guard: a post-score sweep classifying every
    /// member's candidate lanes (scores, torsions, closure deviation,
    /// observables) as finite or poisoned.  A robustness kernel of this
    /// implementation, not a paper task.
    HealthSweep,
}

impl KernelKind {
    /// All kernels in the order the paper's Table II lists them (the
    /// kernels the paper does not list separately come last).
    pub const ALL: [KernelKind; 11] = [
        KernelKind::Ccd,
        KernelKind::EvalDist,
        KernelKind::EvalVdw,
        KernelKind::EvalTrip,
        KernelKind::FitAssgPopulation,
        KernelKind::FitAssgComplex,
        KernelKind::Reproduction,
        KernelKind::Metropolis,
        KernelKind::Rebuild,
        KernelKind::Select,
        KernelKind::HealthSweep,
    ];

    /// Display name matching the paper's bracketed task labels.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Ccd => "[CCD]",
            KernelKind::EvalDist => "[EvalDIST]",
            KernelKind::EvalVdw => "[EvalVDW]",
            KernelKind::EvalTrip => "[EvalTRIP]",
            KernelKind::FitAssgPopulation => "[FitAssg] within Population",
            KernelKind::FitAssgComplex => "[FitAssg] within Complex",
            KernelKind::Reproduction => "[Reproduction]",
            KernelKind::Metropolis => "[Metropolis]",
            KernelKind::Rebuild => "[Rebuild]",
            KernelKind::Select => "[Select]",
            KernelKind::HealthSweep => "[HealthSweep]",
        }
    }

    /// Registers per thread after compilation (paper Table III; estimates
    /// for the kernels the paper does not list).
    pub fn registers_per_thread(&self) -> usize {
        match self {
            KernelKind::Ccd => 32,
            KernelKind::EvalDist => 32,
            KernelKind::EvalVdw => 32,
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

    /// Device cycles charged per abstract work unit of this kernel.  Work
    /// units are counted by the pipeline (atom placements for CCD, scored
    /// pairs for DIST/VDW, table lookups for TRIPLET, comparisons for the
    /// fitness kernels); the factors reflect that, e.g., a CCD atom
    /// placement (trigonometry + a local frame) costs far more cycles than
    /// a fitness comparison.
    pub fn cycles_per_work_unit(&self) -> f64 {
        match self {
            KernelKind::Ccd => 90.0,
            // A DIST pair costs a distance, a bin index and an un-coalesced
            // texture fetch from the large pairwise table; a VDW contact is
            // a distance plus a branch and a multiply on in-register radii.
            KernelKind::EvalDist => 70.0,
            KernelKind::EvalVdw => 12.0,
            KernelKind::EvalTrip => 30.0,
            KernelKind::FitAssgPopulation => 3.0,
            KernelKind::FitAssgComplex => 3.0,
            KernelKind::Reproduction => 40.0,
            KernelKind::Metropolis => 12.0,
            // A Rebuild work unit is one superimposed atom of the RMSD
            // observable (Kabsch accumulation); a Select work unit is one
            // copied torsion lane element.
            KernelKind::Rebuild => 30.0,
            KernelKind::Select => 4.0,
            // A HealthSweep work unit is one finite-classification of an
            // in-register double — about as cheap as a kernel gets.
            KernelKind::HealthSweep => 2.0,
        }
    }

    /// Whether the paper's Table II lists this kernel as its own row.
    pub fn in_paper_table(&self) -> bool {
        !matches!(
            self,
            KernelKind::Reproduction
                | KernelKind::Metropolis
                | KernelKind::Rebuild
                | KernelKind::Select
                | KernelKind::HealthSweep
        )
    }
}

/// A kernel launch configuration: how the population maps onto blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
}

impl LaunchConfig {
    /// The paper's canonical configuration: 128 threads per block, one
    /// thread per conformation.
    pub fn for_population(population: usize) -> LaunchConfig {
        Self::with_block_size(population, 128)
    }

    /// A launch with an explicit block size, rounding the block count up so
    /// that every conformation gets a thread.
    pub fn with_block_size(population: usize, threads_per_block: usize) -> LaunchConfig {
        let tpb = threads_per_block.max(1);
        LaunchConfig {
            blocks: population.div_ceil(tpb),
            threads_per_block: tpb,
        }
    }

    /// Total threads launched (may exceed the population in the last block).
    pub fn total_threads(&self) -> usize {
        self.blocks * self.threads_per_block
    }

    /// The occupancy this launch achieves for a given kernel on a device.
    pub fn occupancy(&self, spec: &DeviceSpec, kernel: KernelKind) -> Occupancy {
        occupancy(
            spec,
            kernel.registers_per_thread(),
            self.threads_per_block,
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_register_counts() {
        assert_eq!(KernelKind::Ccd.registers_per_thread(), 32);
        assert_eq!(KernelKind::EvalDist.registers_per_thread(), 32);
        assert_eq!(KernelKind::EvalVdw.registers_per_thread(), 32);
        assert_eq!(KernelKind::EvalTrip.registers_per_thread(), 20);
        assert_eq!(KernelKind::FitAssgPopulation.registers_per_thread(), 8);
        assert_eq!(KernelKind::FitAssgComplex.registers_per_thread(), 5);
    }

    #[test]
    fn kernel_names_match_paper_labels() {
        assert_eq!(KernelKind::Ccd.name(), "[CCD]");
        assert_eq!(KernelKind::EvalDist.name(), "[EvalDIST]");
        assert_eq!(
            KernelKind::FitAssgComplex.name(),
            "[FitAssg] within Complex"
        );
        // Exactly the six Table II kernel rows are flagged as such.
        let in_table = KernelKind::ALL
            .iter()
            .filter(|k| k.in_paper_table())
            .count();
        assert_eq!(in_table, 6);
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

        let lc3 = LaunchConfig::with_block_size(512, 128);
        assert_eq!(lc3.blocks, 4);
    }

    #[test]
    fn occupancy_through_launch_config() {
        let spec = DeviceSpec::gtx280();
        let lc = LaunchConfig::for_population(15_360);
        assert!((lc.occupancy(&spec, KernelKind::Ccd).occupancy - 0.5).abs() < 1e-9);
        assert!((lc.occupancy(&spec, KernelKind::FitAssgComplex).occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ccd_is_the_most_expensive_per_work_unit_scoring_kernel() {
        assert!(
            KernelKind::Ccd.cycles_per_work_unit() > KernelKind::EvalDist.cycles_per_work_unit()
        );
        assert!(
            KernelKind::EvalDist.cycles_per_work_unit()
                > KernelKind::FitAssgPopulation.cycles_per_work_unit()
        );
    }
}
