//! The BURIAL (solvation/contact-number) scoring function.
//!
//! Knowledge-based decoy discrimination consistently leans on burial-depth
//! terms: compact decoys can satisfy clash and pairwise-distance potentials
//! while still burying polar residues or exposing hydrophobic ones.  The
//! BURIAL objective measures, per loop residue, the number of fixed
//! environment atoms within [`BurialScore::radius`] of the residue's Cα and
//! scores that contact number against the residue type's reference
//! distribution from the [`KnowledgeBase`]'s
//! [`BurialTable`](crate::library::BurialTable) (hydrophobic types are
//! centred on deeper burial than polar ones).
//!
//! ## Sharing the environment lists with VDW
//!
//! Counting environment contacts needs exactly the candidate list the VDW
//! environment term already reads for each Cα site.  The production path
//! therefore does **not** run this kernel standalone: when the objective is
//! enabled, [`MultiScorer::evaluate_with`](crate::MultiScorer::evaluate_with)
//! runs the combined VDW pass
//! ([`VdwScore::score_target_with_burial`](crate::VdwScore::score_target_with_burial)),
//! which filters each residue's contact count from its Cα site's list
//! ([`EnvCandidates::near`](lms_protein::EnvCandidates::near)), the *same*
//! slice the VDW sum consumes.  A list holds every candidate within
//! [`ENV_LIST_RADIUS`] of its point and the probe radius is no larger, and
//! a contact count is an integer filtered by an exact distance cutoff, so
//! the shared path, the standalone path here, and the exhaustive linear
//! scan ([`BurialScore::score_target_linear`]) all agree bit for bit
//! (property-tested in `tests/burial_equivalence.rs`).

use crate::library::KnowledgeBase;
use crate::traits::ScoringFunction;
use crate::workspace::ScoreScratch;
use lms_protein::{LoopStructure, LoopTarget, Torsions, ENV_LIST_RADIUS};
use std::sync::Arc;

/// Default burial probe radius (Å) around each residue's Cα: the
/// environment list radius, the largest contact distance the per-cell
/// candidate lists answer for.
pub const BURIAL_RADIUS: f64 = ENV_LIST_RADIUS;

/// Solvation/burial contact-number statistical potential.
#[derive(Debug, Clone)]
pub struct BurialScore {
    kb: Arc<KnowledgeBase>,
    radius: f64,
}

impl BurialScore {
    /// Create the scoring function over a pre-built knowledge base with the
    /// default probe radius.
    pub fn new(kb: Arc<KnowledgeBase>) -> Self {
        BurialScore {
            kb,
            radius: BURIAL_RADIUS,
        }
    }

    /// The burial probe radius (Å).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Score a structure from per-residue contact counts that were already
    /// computed (by the shared VDW/BURIAL environment pass or by one of the
    /// counting paths below): the mean reference energy of each residue
    /// type at its observed burial.
    pub fn score_from_counts(&self, target: &LoopTarget, counts: &[u32]) -> f64 {
        debug_assert_eq!(counts.len(), target.n_residues());
        let n = counts.len();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (aa, &count) in target.sequence.iter().zip(counts.iter()) {
            total += self.kb.burial.energy(*aa, count as usize);
        }
        total / n as f64
    }

    /// Fill `scratch.burial_counts` with each residue's environment contact
    /// count, filtered from the candidate list of its Cα.  Standalone path:
    /// the production pipeline gets the counts for free from the shared VDW
    /// pass instead.
    pub fn counts_with(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) {
        assert!(
            self.radius <= ENV_LIST_RADIUS,
            "burial radius {} Å exceeds the environment list radius {ENV_LIST_RADIUS} Å",
            self.radius
        );
        let env = target.env_candidates();
        scratch.burial_counts.clear();
        for res in &structure.residues {
            let count = env.count_within(res.ca, self.radius, env.near(res.ca));
            scratch.burial_counts.push(count);
        }
    }

    /// Score a structure through the standalone list counting path.
    pub fn score_target_with(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.counts_with(target, structure, scratch);
        let counts = std::mem::take(&mut scratch.burial_counts);
        let score = self.score_from_counts(target, &counts);
        scratch.burial_counts = counts;
        score
    }

    /// Score a structure through the exhaustive linear-scan reference the
    /// list paths must match bit for bit.
    pub fn score_target_linear(&self, target: &LoopTarget, structure: &LoopStructure) -> f64 {
        let env = target.env_candidates();
        let n = structure.n_residues();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (aa, res) in target.sequence.iter().zip(structure.residues.iter()) {
            let count = env.count_within_linear(res.ca, self.radius);
            total += self.kb.burial.energy(*aa, count as usize);
        }
        total / n as f64
    }
}

impl ScoringFunction for BurialScore {
    fn name(&self) -> &'static str {
        "BURIAL"
    }

    fn score_with(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        _torsions: &Torsions,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.score_target_with(target, structure, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KnowledgeBaseConfig;
    use lms_protein::{BenchmarkLibrary, LoopBuilder};

    fn scorer() -> BurialScore {
        BurialScore::new(KnowledgeBase::build(KnowledgeBaseConfig::fast()))
    }

    #[test]
    fn name_and_radius() {
        let s = scorer();
        assert_eq!(s.name(), "BURIAL");
        assert_eq!(s.radius(), BURIAL_RADIUS);
        assert!(s.radius() <= ENV_LIST_RADIUS);
    }

    #[test]
    fn cell_list_matches_linear_reference_on_benchmark_targets() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        for name in ["1cex", "1xyz", "5pti"] {
            let target = lib.target_by_name(name).unwrap();
            let native = target.build(&builder, &target.native_torsions);
            let mut scratch = ScoreScratch::new();
            let cells = s.score_target_with(&target, &native, &mut scratch);
            let linear = s.score_target_linear(&target, &native);
            assert_eq!(cells.to_bits(), linear.to_bits(), "{name}");
            assert!(cells.is_finite());
        }
    }

    #[test]
    fn buried_target_counts_exceed_surface_counts() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        let count_sum = |name: &str| -> u32 {
            let target = lib.target_by_name(name).unwrap();
            let native = target.build(&builder, &target.native_torsions);
            let mut scratch = ScoreScratch::new();
            s.counts_with(&target, &native, &mut scratch);
            scratch.burial_counts().iter().sum()
        };
        assert!(
            count_sum("1xyz") > count_sum("1cex"),
            "the buried 1xyz loop should see more environment contacts"
        );
    }

    #[test]
    fn score_is_deterministic_and_trait_path_agrees() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1dim").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        let a = s.score(&target, &native, &target.native_torsions);
        let b = s.score(&target, &native, &target.native_torsions);
        assert_eq!(a, b);
        let mut scratch = ScoreScratch::new();
        assert_eq!(
            a,
            s.score_with(&target, &native, &target.native_torsions, &mut scratch)
        );
    }

    #[test]
    fn empty_environment_scores_full_exposure() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let donor = lib.target_by_name("1cex").unwrap();
        let target = lms_protein::LoopTarget {
            environment: std::sync::Arc::new(lms_protein::Environment::empty()),
            env_cache: Default::default(),
            ..donor.clone()
        };
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        let mut scratch = ScoreScratch::new();
        s.counts_with(&target, &native, &mut scratch);
        assert!(scratch.burial_counts().iter().all(|&c| c == 0));
        let score = s.score_target_with(&target, &native, &mut scratch);
        assert_eq!(score, s.score_target_linear(&target, &native));
    }
}
