//! # lms-scoring
//!
//! The backbone scoring functions: the paper's three objectives —
//! soft-sphere van der Waals (VDW), atom pair-wise distance (DIST) and
//! triplet torsion-angle statistics (TRIPLET) — plus the opt-in
//! solvation/burial contact-number objective (BURIAL), together with the
//! synthetic knowledge base the knowledge-based potentials are derived
//! from, a combined [`MultiScorer`], and score-normalisation utilities.
//!
//! The objective set is sized by [`NUM_OBJECTIVES`] and enumerated by
//! [`Objective`]; a [`ScoreVector`] carries one slot per objective.  With
//! the BURIAL objective disabled (the default), its slot stays at exactly
//! `0.0` and every kernel, comparison and normalisation reduces
//! bit-identically to the three-objective pipeline.  Enabled (see
//! [`MultiScorer::with_burial`]), the VDW environment pass filters the
//! per-residue contact counts from the candidate lists it already reads, so
//! the fourth objective costs one extra distance filter per Cα site instead
//! of a second environment sweep (property-tested in
//! `tests/burial_equivalence.rs`).
//!
//! ## One pass per objective, one oracle per pass
//!
//! [`MultiScorer`] owns how a conformation is scored.  Each objective has
//! one production pass — [`MultiScorer::vdw_pass_from`] (with
//! [`MultiScorer::vdw_pass`] its full form, and the BURIAL counts filtered
//! in the same environment pass), [`MultiScorer::dist_pass`] and
//! [`MultiScorer::triplet_pass`] — which the staged sampler launches as
//! population-wide kernels.  [`MultiScorer::evaluate_with`] runs the three
//! full passes on one conformation for the per-member oracle and the
//! health tests; [`MultiScorer::evaluate`] wraps it with a throwaway
//! scratch.  Each pass is checked against one reference: the linear VDW
//! environment scan ([`VdwScore::environment_term_linear`]), the linear
//! BURIAL count ([`BurialScore::score_target_linear`]), and naive DIST and
//! TRIPLET sums in the tests.
//!
//! Scoring runs once per conformation per iteration — millions of times per
//! trajectory — so the hot path must not touch the allocator.  The caller
//! owns a [`ScoreScratch`] whose structure-of-arrays buffers (split x/y/z
//! coordinates, radii, atom kinds, residue classes) are `clear()`ed and
//! refilled per evaluation.  After one warm-up call per loop length, **no
//! pass allocates** — this invariant is enforced by a counting-allocator
//! test in `lms-core` (`tests/zero_alloc.rs`).
//!
//! The environment half of the VDW kernel additionally relies on the
//! per-target environment-neighbour cache (`LoopTarget::env_candidates`),
//! built once per target: the fixed-environment atoms reachable from the
//! loop region as a flat SoA candidate set, plus, for every cell of a 4 Å
//! grid, the ascending list of candidates within the list radius
//! (`lms_protein::ENV_LIST_RADIUS`, 7 Å) of that cell.  Per evaluation each
//! site reads its cell's list — no gather, no sort, no scratch index buffer,
//! O(local density) per site instead of O(all candidates) — and sums in the
//! linear scan's order, so the term is bit-identical to the exhaustive
//! linear scan (kept as [`VdwScore::environment_term_linear`] and
//! property-tested in `tests/cell_list_equivalence.rs`).

//! ## Quick example
//!
//! ```
//! use lms_protein::{BenchmarkLibrary, LoopBuilder};
//! use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, MultiScorer};
//!
//! let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
//! let scorer = MultiScorer::new(kb);
//! let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
//! let builder = LoopBuilder::default();
//! let native = target.build(&builder, &target.native_torsions);
//! let scores = scorer.evaluate(&target, &native, &target.native_torsions);
//! assert!(scores.is_finite());
//! ```

#![warn(missing_docs)]

pub mod burial;
pub mod dist;
pub mod library;
pub mod multi;
pub mod normalize;
pub mod pool;
pub mod traits;
pub mod triplet;
pub mod vdw;
pub mod workspace;

pub use burial::{BurialScore, BURIAL_RADIUS};
pub use dist::DistScore;
pub use library::{
    burial_bin, distance_bin, torsion_bin, BackboneAtomKind, BurialTable, DistTable, KnowledgeBase,
    KnowledgeBaseConfig, SeparationClass, TripletTable, BURIAL_BINS, BURIAL_BIN_WIDTH, DIST_BINS,
    DIST_BIN_WIDTH, DIST_MAX, TRIPLET_BINS,
};
pub use multi::MultiScorer;
pub use normalize::{normalize_population, ScoreRange};
pub use pool::ScratchPool;
pub use traits::{Objective, ScoreVector, NUM_OBJECTIVES};
pub use triplet::TripletScore;
pub use vdw::{ContactWeights, EnvResume, VdwRadii, VdwScore};
pub use workspace::ScoreScratch;
