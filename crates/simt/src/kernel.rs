//! The stages of the sampling pipeline, named after the paper's GPU kernels.
//!
//! The pipeline is decomposed into the same kernels as the paper's
//! implementation (its Table II): loop closure ([`KernelKind::Ccd`]), the
//! three scoring-function evaluations, fitness assignment at population and
//! complex scope, conformation reproduction and the Metropolis acceptance
//! step, plus three stages of this implementation the paper folds into
//! others or does not have.  Every [`Executor::launch`](crate::Executor::launch)
//! names its kind, and the sampler's stage record keeps one row per kind.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_match_paper_labels() {
        assert_eq!(KernelKind::Ccd.name(), "[CCD]");
        assert_eq!(KernelKind::EvalDist.name(), "[EvalDIST]");
        assert_eq!(
            KernelKind::FitAssgComplex.name(),
            "[FitAssg] within Complex"
        );
    }
}
