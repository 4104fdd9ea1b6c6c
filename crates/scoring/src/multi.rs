//! The multi-scoring evaluator: the one place that decides how a
//! conformation is scored.
//!
//! Each objective has one production pass, launched by the staged sampler
//! as its own population-wide kernel in canonical order:
//!
//! * [`MultiScorer::vdw_pass_from`] — the VDW clash score.  A candidate
//!   agrees with its member on every residue below the one holding the
//!   first mutated torsion, so the environment term (and the burial counts)
//!   resume from the member's checkpoint row there; the intra-loop term is
//!   summed in full.  With the BURIAL objective enabled
//!   ([`MultiScorer::with_burial`]) the same environment pass filters each
//!   residue's contact count from the candidate list of its Cα site, so the
//!   fourth objective costs one extra distance filter per residue rather
//!   than a second sweep over the environment.  [`MultiScorer::vdw_pass`]
//!   is the full pass.
//! * [`MultiScorer::dist_pass`] — the atom pair-wise DIST score.
//! * [`MultiScorer::triplet_pass`] — the TRIPLET torsion score.
//!
//! [`MultiScorer::evaluate_with`] runs the three full passes in the same
//! order on one conformation: the per-member oracle, the numerical-health
//! tests and the allocation proofs call it.  With BURIAL off, its slot
//! stays at exactly `0.0` and every pass is the three-objective kernel,
//! bit for bit.
//!
//! Each pass is checked against one reference: the VDW environment term
//! against [`VdwScore::environment_term_linear`], the BURIAL score against
//! [`BurialScore::score_target_linear`], DIST and TRIPLET against naive
//! re-implementations in their tests.

use crate::burial::BurialScore;
use crate::dist::DistScore;
use crate::library::KnowledgeBase;
use crate::traits::ScoreVector;
use crate::triplet::TripletScore;
use crate::vdw::{EnvResume, VdwScore};
use crate::workspace::ScoreScratch;
use lms_protein::{LoopStructure, LoopTarget, Torsions};
use std::sync::Arc;

/// Bundles the scoring functions and evaluates them on a conformation,
/// producing a [`ScoreVector`].
///
/// `MultiScorer` is cheap to clone (the knowledge base is shared through an
/// `Arc`), so every worker thread of the parallel executor can own one.
#[derive(Debug, Clone)]
pub struct MultiScorer {
    vdw: VdwScore,
    dist: DistScore,
    triplet: TripletScore,
    burial: BurialScore,
    burial_objective: bool,
}

impl MultiScorer {
    /// Create the evaluator over a pre-built knowledge base, with default
    /// VDW parameters and the burial objective disabled (the paper's
    /// three-objective configuration).
    pub fn new(kb: Arc<KnowledgeBase>) -> Self {
        MultiScorer {
            vdw: VdwScore::default(),
            dist: DistScore::new(Arc::clone(&kb)),
            triplet: TripletScore::new(Arc::clone(&kb)),
            burial: BurialScore::new(kb),
            burial_objective: false,
        }
    }

    /// Enable or disable the BURIAL objective.  Disabled (the default), the
    /// evaluation is bit-identical to the three-objective pipeline.
    #[must_use]
    pub fn with_burial(mut self, enabled: bool) -> Self {
        self.burial_objective = enabled;
        self
    }

    /// Ignored; kept only because the frozen `loopbench/` replay still
    /// calls it.  Remove with that package's next change.
    #[doc(hidden)]
    #[must_use]
    pub fn with_wide_lanes(self, _wide: bool) -> Self {
        self
    }

    /// Evaluate the enabled objectives on a built conformation into a
    /// throwaway scratch: [`MultiScorer::evaluate_with`] for call sites
    /// that score rarely.
    pub fn evaluate(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        torsions: &Torsions,
    ) -> ScoreVector {
        let mut scratch = ScoreScratch::new();
        self.evaluate_with(target, structure, torsions, &mut scratch)
    }

    /// Evaluate the enabled objectives on one conformation in caller-owned
    /// scratch buffers: [`MultiScorer::vdw_pass`], then
    /// [`MultiScorer::dist_pass`], then [`MultiScorer::triplet_pass`].
    ///
    /// The staged sampler launches those passes itself, one population-wide
    /// kernel each; this fused form is what the per-member oracle, the
    /// numerical-health tests and the allocation proofs run.  Stage order
    /// and scratch state are the same either way, so the two call patterns
    /// are bit-identical, and after one warm-up call per loop length it
    /// allocates nothing.
    pub fn evaluate_with(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        torsions: &Torsions,
        scratch: &mut ScoreScratch,
    ) -> ScoreVector {
        let (vdw, burial) = self.vdw_pass(target, structure, scratch);
        let dist = self.dist_pass(target, structure, scratch);
        let triplet = self.triplet_pass(target, structure, torsions, scratch);
        let v = ScoreVector::new(vdw, dist, triplet);
        if self.burial_objective {
            v.with_burial(burial)
        } else {
            v
        }
    }

    /// Staged VDW kernel: stages the interaction sites and runs the
    /// intra-loop and environment clash sums.  With the burial objective
    /// enabled, the environment pass filters the per-residue contact counts
    /// from the same candidate lists (VDW owns the burial counts) and the
    /// second returned value is the BURIAL score; otherwise it is `0.0`.
    /// This is the full pass, [`MultiScorer::vdw_pass_from`] at
    /// [`EnvResume::FULL`].
    pub fn vdw_pass(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> (f64, f64) {
        self.vdw_pass_from(target, structure, scratch, EnvResume::FULL)
    }

    /// [`MultiScorer::vdw_pass`] with the environment term and the burial
    /// counts resumed from an earlier pass's checkpoint (see [`EnvResume`]
    /// and the [`vdw`](crate::vdw) module docs): only the sites of residues
    /// from `resume.residue()` on are summed against the environment.  The
    /// returned scores, `scratch.burial_counts()` and the checkpoint row
    /// left in `scratch.env_totals()` are bit-identical to a full pass
    /// whenever `structure` agrees with the checkpoint's conformation on
    /// every residue below the resume residue.
    pub fn vdw_pass_from(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
        resume: EnvResume<'_>,
    ) -> (f64, f64) {
        let radius = self.burial_objective.then(|| self.burial.radius());
        let vdw = self
            .vdw
            .score_target_from(target, structure, scratch, radius, resume);
        if self.burial_objective {
            let burial = self
                .burial
                .score_from_counts(target, scratch.burial_counts());
            (vdw, burial)
        } else {
            (vdw, 0.0)
        }
    }

    /// Staged DIST kernel: the atom pair-wise distance score.  It reads
    /// the backbone atoms in place, so it neither uses the scratch nor
    /// depends on the other passes.
    pub fn dist_pass(
        &self,
        _target: &LoopTarget,
        structure: &LoopStructure,
        _scratch: &mut ScoreScratch,
    ) -> f64 {
        self.dist.score_structure(structure)
    }

    /// Staged TRIPLET kernel: the torsion-triplet score (it reads only the
    /// torsion vector and the residue classes).
    pub fn triplet_pass(
        &self,
        target: &LoopTarget,
        _structure: &LoopStructure,
        torsions: &Torsions,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.triplet.score(target, torsions, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KnowledgeBaseConfig;
    use lms_protein::{BenchmarkLibrary, LoopBuilder};

    fn scorer() -> MultiScorer {
        MultiScorer::new(KnowledgeBase::build(KnowledgeBaseConfig::fast()))
    }

    #[test]
    fn evaluate_matches_individual_components() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1cex").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        let v = s.evaluate(&target, &native, &target.native_torsions);
        // Each pass on a scratch of its own gives the fused slot.
        let fresh = ScoreScratch::new;
        let (vdw, burial) = s.vdw_pass(&target, &native, &mut fresh());
        assert_eq!(v.vdw().to_bits(), vdw.to_bits());
        assert_eq!(burial, 0.0);
        let dist = s.dist_pass(&target, &native, &mut fresh());
        assert_eq!(v.dist().to_bits(), dist.to_bits());
        let triplet = s.triplet_pass(&target, &native, &target.native_torsions, &mut fresh());
        assert_eq!(v.triplet().to_bits(), triplet.to_bits());
        assert_eq!(v.burial(), 0.0, "disabled burial slot stays zero");
        assert!(v.is_finite());
    }

    #[test]
    fn burial_enabled_evaluation_matches_components_and_keeps_core_scores() {
        let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
        let s3 = MultiScorer::new(Arc::clone(&kb));
        let s4 = s3.clone().with_burial(true);
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1xyz").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);

        let v3 = s3.evaluate(&target, &native, &target.native_torsions);
        let v4 = s4.evaluate(&target, &native, &target.native_torsions);
        // The shared pass leaves the three core objectives bit-identical.
        assert_eq!(v3.vdw().to_bits(), v4.vdw().to_bits());
        assert_eq!(v3.dist().to_bits(), v4.dist().to_bits());
        assert_eq!(v3.triplet().to_bits(), v4.triplet().to_bits());
        assert_eq!(v3.burial(), 0.0);
        assert!(v4.burial() != 0.0, "buried target has non-trivial burial");

        // The fourth component agrees with the linear BURIAL oracle.
        let linear = BurialScore::new(kb).score_target_linear(&target, &native);
        assert_eq!(v4.burial().to_bits(), linear.to_bits());
    }

    #[test]
    fn clone_shares_knowledge_base_and_scores_identically() {
        let s1 = scorer().with_burial(true);
        let s2 = s1.clone();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("3pte").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        assert_eq!(
            s1.evaluate(&target, &native, &target.native_torsions),
            s2.evaluate(&target, &native, &target.native_torsions)
        );
    }
}
