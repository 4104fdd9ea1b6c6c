//! The per-member state of the sampling population.

use lms_protein::Torsions;
use lms_scoring::ScoreVector;

/// One member of the MOSCEM population: a loop conformation in torsion
/// space together with its three objective scores and bookkeeping used by
/// the sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct Conformation {
    /// The torsion-angle vector (φ1, ψ1, …, φn, ψn).
    pub torsions: Torsions,
    /// The (VDW, DIST, TRIPLET) scores of the built, closed structure.
    pub scores: ScoreVector,
    /// Loop-closure deviation of the built structure (Å).
    pub closure_deviation: f64,
    /// Fitness from the latest population-wide assignment (Eq. 1); lower is
    /// better, `< 1` means on the Pareto front.
    pub fitness: f64,
    /// Backbone RMSD to the native loop (Å).  Available because the
    /// benchmark is synthetic; the sampler never uses it for decisions —
    /// it is recorded purely for evaluation.
    pub rmsd_to_native: f64,
    /// Number of proposal moves this slot has accepted.
    pub accepted_moves: usize,
    /// Number of proposal moves this slot has seen.
    pub proposed_moves: usize,
}

impl Conformation {
    /// Create a new member with unset scores.
    pub fn new(torsions: Torsions) -> Self {
        Conformation {
            torsions,
            scores: ScoreVector::default(),
            closure_deviation: f64::INFINITY,
            fitness: f64::INFINITY,
            rmsd_to_native: f64::INFINITY,
            accepted_moves: 0,
            proposed_moves: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_conformation_has_unset_state() {
        let c = Conformation::new(Torsions::zeros(5));
        assert_eq!(c.torsions.n_residues(), 5);
        assert!(c.fitness.is_infinite());
        assert!(c.closure_deviation.is_infinite());
        assert_eq!((c.accepted_moves, c.proposed_moves), (0, 0));
    }
}
