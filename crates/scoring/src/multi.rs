//! The multi-scoring evaluator: the enabled objective set evaluated
//! together on one conformation.
//!
//! The three core objectives (VDW, DIST, TRIPLET) are always evaluated; the
//! BURIAL solvation term is an opt-in fourth objective
//! ([`MultiScorer::with_burial`]).  When it is off, the BURIAL slot of every
//! [`ScoreVector`] stays at exactly `0.0` and the evaluation runs the
//! identical kernels as the three-objective pipeline — bit-identical
//! behaviour, so enabling the objective is a pure extension.  When it is on,
//! the VDW environment pass filters the per-residue contact counts from the
//! candidate lists it already reads ([`VdwScore::score_target_with_burial`]),
//! so the fourth objective costs one extra distance filter per Cα site
//! rather than a second sweep over the environment.

use crate::burial::BurialScore;
use crate::dist::DistScore;
use crate::library::KnowledgeBase;
use crate::traits::{ScoreVector, ScoringFunction};
use crate::triplet::TripletScore;
use crate::vdw::VdwScore;
use crate::workspace::ScoreScratch;
use lms_protein::{LoopStructure, LoopTarget, Torsions};
use std::sync::Arc;

/// Bundles the scoring functions and evaluates them on a conformation in
/// one call, producing a [`ScoreVector`].
///
/// `MultiScorer` is cheap to clone (the knowledge base is shared through an
/// `Arc`), so every worker thread of the parallel executor can own one.
#[derive(Debug, Clone)]
pub struct MultiScorer {
    vdw: VdwScore,
    dist: DistScore,
    triplet: TripletScore,
    burial: BurialScore,
    burial_enabled: bool,
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
            burial_enabled: false,
        }
    }

    /// Replace the VDW component (used by ablation benches).
    pub fn with_vdw(mut self, vdw: VdwScore) -> Self {
        self.vdw = vdw;
        self
    }

    /// Enable or disable the BURIAL objective.  Disabled (the default), the
    /// evaluation is bit-identical to the three-objective pipeline.
    #[must_use]
    pub fn with_burial(mut self, enabled: bool) -> Self {
        self.burial_enabled = enabled;
        self
    }

    /// Ignored; kept only because the frozen `loopbench/` replay still
    /// calls it.  Remove with that package's next change.
    #[doc(hidden)]
    #[must_use]
    pub fn with_wide_lanes(self, _wide: bool) -> Self {
        self
    }

    /// Whether the BURIAL objective is evaluated.
    pub fn burial_enabled(&self) -> bool {
        self.burial_enabled
    }

    /// Evaluate the enabled scoring functions on a built conformation.
    /// Allocating wrapper over [`MultiScorer::evaluate_with`].
    pub fn evaluate(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        torsions: &Torsions,
    ) -> ScoreVector {
        let mut scratch = ScoreScratch::new();
        self.evaluate_with(target, structure, torsions, &mut scratch)
    }

    /// Evaluate the enabled scoring functions using caller-owned scratch
    /// buffers: the zero-allocation path the sampler's evolution kernel
    /// runs once per conformation per iteration.  Returns exactly the same
    /// vector as [`MultiScorer::evaluate`].
    ///
    /// This is the fused composition of the staged per-objective passes
    /// ([`MultiScorer::vdw_pass`] → [`MultiScorer::dist_pass`] →
    /// [`MultiScorer::triplet_pass`]), which the population-batched sampler
    /// pipeline instead launches as separate population-wide kernels —
    /// stage order and scratch state are identical either way, so the two
    /// call patterns are bit-identical.
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
        if self.burial_enabled {
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
    pub fn vdw_pass(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> (f64, f64) {
        if self.burial_enabled {
            let vdw =
                self.vdw
                    .score_target_with_burial(target, structure, scratch, self.burial.radius());
            let counts = std::mem::take(&mut scratch.burial_counts);
            let burial = self.burial.score_from_counts(target, &counts);
            scratch.burial_counts = counts;
            (vdw, burial)
        } else {
            (self.vdw.score_target_with(target, structure, scratch), 0.0)
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
        structure: &LoopStructure,
        torsions: &Torsions,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.triplet
            .score_with(target, structure, torsions, scratch)
    }

    /// Access the enabled scoring functions in canonical objective order,
    /// used by the component-timing profile of Figure 1 / Table II.
    pub fn components(&self) -> Vec<&dyn ScoringFunction> {
        let mut c: Vec<&dyn ScoringFunction> = vec![&self.vdw, &self.dist, &self.triplet];
        if self.burial_enabled {
            c.push(&self.burial);
        }
        c
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
        let comps = s.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].name(), "VDW");
        assert_eq!(comps[1].name(), "DIST");
        assert_eq!(comps[2].name(), "TRIPLET");
        assert_eq!(
            v.vdw(),
            comps[0].score(&target, &native, &target.native_torsions)
        );
        assert_eq!(
            v.dist(),
            comps[1].score(&target, &native, &target.native_torsions)
        );
        assert_eq!(
            v.triplet(),
            comps[2].score(&target, &native, &target.native_torsions)
        );
        assert_eq!(v.burial(), 0.0, "disabled burial slot stays zero");
        assert!(v.is_finite());
    }

    #[test]
    fn burial_enabled_evaluation_matches_components_and_keeps_core_scores() {
        let s3 = scorer();
        let s4 = s3.clone().with_burial(true);
        assert!(s4.burial_enabled());
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

        // The fourth component agrees with the standalone scoring function.
        let comps = s4.components();
        assert_eq!(comps.len(), 4);
        assert_eq!(comps[3].name(), "BURIAL");
        assert_eq!(
            v4.burial(),
            comps[3].score(&target, &native, &target.native_torsions)
        );
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
