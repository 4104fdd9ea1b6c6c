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
//! environment term already reads for each Cα site, so BURIAL has no pass
//! of its own.  With the objective enabled,
//! [`MultiScorer::vdw_pass_from`](crate::MultiScorer::vdw_pass_from)
//! filters each residue's contact count from its Cα site's list
//! ([`EnvCandidates::near`](lms_protein::EnvCandidates::near)), the *same*
//! slice the VDW sum consumes, and scores the counts with
//! [`BurialScore::score_from_counts`].  A list holds every candidate within
//! [`ENV_LIST_RADIUS`] of its point and the probe radius is no larger, and
//! a contact count is an integer filtered by an exact distance cutoff, so
//! the shared pass and the exhaustive linear scan
//! ([`BurialScore::score_target_linear`], the oracle) agree bit for bit
//! (property-tested below and in `tests/burial_equivalence.rs`).

use crate::library::KnowledgeBase;
use lms_protein::{LoopStructure, LoopTarget, ENV_LIST_RADIUS};
use std::sync::Arc;

/// Default burial probe radius (Å) around each residue's Cα: the
/// environment list radius, the largest contact distance the per-cell
/// candidate lists answer for.
pub const BURIAL_RADIUS: f64 = ENV_LIST_RADIUS;

/// Solvation/burial contact-number statistical potential.
#[derive(Debug, Clone)]
pub struct BurialScore {
    kb: Arc<KnowledgeBase>,
}

impl BurialScore {
    /// Create the scoring function over a pre-built knowledge base.
    pub fn new(kb: Arc<KnowledgeBase>) -> Self {
        BurialScore { kb }
    }

    /// The burial probe radius (Å), [`BURIAL_RADIUS`].
    pub fn radius(&self) -> f64 {
        BURIAL_RADIUS
    }

    /// Score a structure from the per-residue contact counts the shared
    /// VDW/BURIAL environment pass computed: the mean reference energy of
    /// each residue type at its observed burial.
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

    /// Score a structure through the exhaustive linear scan: the oracle the
    /// shared VDW/BURIAL pass must match bit for bit.
    pub fn score_target_linear(&self, target: &LoopTarget, structure: &LoopStructure) -> f64 {
        let env = target.env_candidates();
        let n = structure.n_residues();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (aa, res) in target.sequence.iter().zip(structure.residues.iter()) {
            let count = env.count_within_linear(res.ca, BURIAL_RADIUS);
            total += self.kb.burial.energy(*aa, count as usize);
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KnowledgeBaseConfig;
    use crate::{EnvResume, MultiScorer, ScoreScratch};
    use lms_protein::{BenchmarkLibrary, LoopBuilder, Torsions};

    fn kb() -> Arc<KnowledgeBase> {
        KnowledgeBase::build(KnowledgeBaseConfig::fast())
    }

    /// The production BURIAL path: the VDW pass with burial on, which
    /// returns the score and leaves the counts in the scratch.
    fn scorer() -> MultiScorer {
        MultiScorer::new(kb()).with_burial(true)
    }

    #[test]
    fn name_and_radius() {
        let s = BurialScore::new(kb());
        assert_eq!(s.radius(), BURIAL_RADIUS);
        assert!(s.radius() <= ENV_LIST_RADIUS);
    }

    /// Both production entry points against the linear oracle: the full
    /// pass, and the pass resumed at residue 0 from another conformation's
    /// checkpoint (which must read nothing of it but the zero total).
    #[test]
    fn cell_list_matches_linear_reference_on_benchmark_targets() {
        let kb = kb();
        let scorer = MultiScorer::new(Arc::clone(&kb)).with_burial(true);
        let s = BurialScore::new(kb);
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        for name in ["1cex", "1xyz", "5pti"] {
            let target = lib.target_by_name(name).unwrap();
            let native = target.build(&builder, &target.native_torsions);
            let linear = s.score_target_linear(&target, &native);
            let mut scratch = ScoreScratch::new();
            let (_, full) = scorer.vdw_pass(&target, &native, &mut scratch);
            assert_eq!(full.to_bits(), linear.to_bits(), "{name}");
            assert!(full.is_finite());

            let other = target.build(&builder, &Torsions::zeros(target.n_residues()));
            let mut checkpoint = ScoreScratch::new();
            scorer.vdw_pass(&target, &other, &mut checkpoint);
            let resume = EnvResume::new(0, checkpoint.env_totals(), checkpoint.burial_counts());
            let (_, resumed) = scorer.vdw_pass_from(&target, &native, &mut scratch, resume);
            assert_eq!(resumed.to_bits(), linear.to_bits(), "{name} resumed at 0");
        }
    }

    #[test]
    fn buried_target_counts_exceed_surface_counts() {
        let scorer = scorer();
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        let count_sum = |name: &str| -> u32 {
            let target = lib.target_by_name(name).unwrap();
            let native = target.build(&builder, &target.native_torsions);
            let mut scratch = ScoreScratch::new();
            scorer.vdw_pass(&target, &native, &mut scratch);
            scratch.burial_counts().iter().sum()
        };
        assert!(
            count_sum("1xyz") > count_sum("1cex"),
            "the buried 1xyz loop should see more environment contacts"
        );
    }

    #[test]
    fn score_is_deterministic_and_trait_path_agrees() {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1dim").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        let scorer = scorer();
        let mut scratch = ScoreScratch::new();
        let (_, a) = scorer.vdw_pass(&target, &native, &mut scratch);
        let (_, b) = scorer.vdw_pass(&target, &native, &mut scratch);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn empty_environment_scores_full_exposure() {
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
        let (_, score) = scorer().vdw_pass(&target, &native, &mut scratch);
        assert_eq!(scratch.burial_counts().len(), target.n_residues());
        assert!(scratch.burial_counts().iter().all(|&c| c == 0));
        let linear = BurialScore::new(kb()).score_target_linear(&target, &native);
        assert_eq!(score.to_bits(), linear.to_bits());
    }
}
