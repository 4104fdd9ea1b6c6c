//! The TRIPLET scoring function.
//!
//! "The triplet torsion angle scoring function measures the favorability of
//! torsion angle configurations based on the distribution of adjacent
//! phi-psi backbone torsion angle pairs in the context of all possible
//! triplet residue conformations derived from structural data in a large
//! loop library."  (Paper, §III.B.)
//!
//! Here the "structural data" is the synthetic [`KnowledgeBase`]; the
//! evaluation is a pure table lookup per residue, which is why it is by far
//! the cheapest of the three objectives (0.04 % of device time in the
//! paper's Table II).
//!
//! ## Why there is no wide (SIMD) variant of this kernel
//!
//! This kernel has no wide-f64 arithmetic to exploit: per residue it is
//! two angle wraps and truncating bin computations
//! ([`torsion_bin`](crate::library::torsion_bin)), one context index and
//! one table load — gather-dominated, with the only
//! floating-point reduction being the sequential `total +=` whose
//! association is part of the bit-identity contract.  Widening the sum
//! would reassociate it; widening the lookups would serialise on the
//! gathers anyway.

use crate::library::KnowledgeBase;
use lms_protein::{AminoAcid, RamaClass, Torsions};
use std::sync::Arc;

/// Triplet torsion-angle statistical potential.
#[derive(Debug, Clone)]
pub struct TripletScore {
    kb: Arc<KnowledgeBase>,
}

impl TripletScore {
    /// Create the scoring function over a pre-built knowledge base.
    pub fn new(kb: Arc<KnowledgeBase>) -> Self {
        TripletScore { kb }
    }

    /// Score a torsion vector on a loop `sequence`, lower is better: one
    /// table lookup per residue, each residue's Ramachandran class read
    /// off its type in place.
    pub fn score(&self, sequence: &[AminoAcid], torsions: &Torsions) -> f64 {
        let n = sequence.len();
        debug_assert_eq!(torsions.n_residues(), n);
        let class = |i: usize| sequence[i].rama_class();
        // Terminal residues take the loop anchor (general class) as their
        // missing neighbour.
        let mut total = 0.0;
        let mut prev = RamaClass::General;
        let mut center = if n == 0 { RamaClass::General } else { class(0) };
        for i in 0..n {
            let next = if i + 1 == n {
                RamaClass::General
            } else {
                class(i + 1)
            };
            total += self
                .kb
                .triplet
                .energy(prev, center, next, torsions.phi(i), torsions.psi(i));
            (prev, center) = (center, next);
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KnowledgeBaseConfig;
    use lms_geometry::deg_to_rad;
    use lms_protein::BenchmarkLibrary;

    fn scorer() -> TripletScore {
        TripletScore::new(KnowledgeBase::build(KnowledgeBaseConfig::fast()))
    }

    #[test]
    fn alpha_torsions_beat_disallowed_torsions() {
        let s = scorer();
        let classes = vec![AminoAcid::Ala; 8];
        let good = Torsions::from_pairs(&[(deg_to_rad(-63.0), deg_to_rad(-43.0)); 8]);
        let bad = Torsions::from_pairs(&[(deg_to_rad(75.0), deg_to_rad(-100.0)); 8]);
        assert!(s.score(&classes, &good) < s.score(&classes, &bad) - 1.0);
    }

    #[test]
    fn native_scores_better_than_random_on_benchmark_target() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1cex").unwrap();
        let native_score = s.score(&target.sequence, &target.native_torsions);

        // A torsion vector drawn uniformly at random is overwhelmingly
        // likely to fall outside the allowed basins somewhere.
        let n = target.n_residues();
        let uniform = Torsions::from_pairs(
            &(0..n)
                .map(|i| {
                    (
                        deg_to_rad(160.0 - 40.0 * i as f64),
                        deg_to_rad(-170.0 + 37.0 * i as f64),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let uniform_score = s.score(&target.sequence, &uniform);
        assert!(
            native_score < uniform_score,
            "native {native_score} should beat arbitrary {uniform_score}"
        );
    }

    #[test]
    fn score_is_per_residue_normalised() {
        let s = scorer();
        // Same torsions, different lengths: per-residue normalisation keeps
        // the scores on a comparable scale.
        let short = vec![AminoAcid::Ala; 4];
        let long = vec![AminoAcid::Ala; 16];
        let t_short = Torsions::from_pairs(&[(deg_to_rad(-63.0), deg_to_rad(-43.0)); 4]);
        let t_long = Torsions::from_pairs(&vec![(deg_to_rad(-63.0), deg_to_rad(-43.0)); 16]);
        let a = s.score(&short, &t_short);
        let b = s.score(&long, &t_long);
        // Interior residues all have identical contexts; only the two
        // termini differ, so the per-residue scores are close.
        assert!((a - b).abs() < 1.0, "{a} vs {b}");
    }

    #[test]
    fn deterministic_scoring() {
        let s = scorer();
        let classes = vec![AminoAcid::Ala, AminoAcid::Gly, AminoAcid::Pro];
        let t = Torsions::from_pairs(&[
            (deg_to_rad(-70.0), deg_to_rad(140.0)),
            (deg_to_rad(80.0), deg_to_rad(10.0)),
            (deg_to_rad(-65.0), deg_to_rad(150.0)),
        ]);
        assert_eq!(s.score(&classes, &t), s.score(&classes, &t));
    }
}
