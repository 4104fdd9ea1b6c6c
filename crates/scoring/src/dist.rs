//! The DIST scoring function.
//!
//! "The atom pair-wise distance-based scoring function measures the
//! favorability of pair-wise backbone atom positions within a protein
//! loop."  (Paper, §III.B.)  Each backbone atom pair at sequence separation
//! ≥ 2 contributes a table energy indexed by the two atom kinds, the
//! separation class and the binned distance.  The table is the DIST half of
//! the synthetic [`KnowledgeBase`].
//!
//! The kernel reads the backbone atoms in place from the structure, takes
//! the separation class once per residue pair and each atom pair's table
//! row once, and rejects pairs at or beyond [`DIST_MAX`] on the squared
//! distance before taking the square root.  Pairs it skips contribute
//! nothing, so the score is bit-identical to the naive all-pairs sum over
//! [`DistTable::energy`](crate::DistTable::energy) (the test oracle below).

use crate::library::{distance_bin, BackboneAtomKind, KnowledgeBase, SeparationClass, DIST_MAX};
use lms_protein::LoopStructure;
use std::sync::Arc;

/// Atom pair-wise distance-based statistical potential.
#[derive(Debug, Clone)]
pub struct DistScore {
    kb: Arc<KnowledgeBase>,
}

impl DistScore {
    /// Create the scoring function over a pre-built knowledge base.
    pub fn new(kb: Arc<KnowledgeBase>) -> Self {
        DistScore { kb }
    }

    /// Score a built structure directly (without needing the target).
    /// Reads the atoms in place and allocates nothing.
    pub fn score_structure(&self, structure: &LoopStructure) -> f64 {
        let residues = &structure.residues;
        let mut total = 0.0;
        let mut pairs = 0usize;
        for (i, ri) in residues.iter().enumerate() {
            let atoms_i = ri.backbone();
            for (j, rj) in residues.iter().enumerate().skip(i + 2) {
                let sep = SeparationClass::from_separation(j - i)
                    .expect("every separation >= 2 has a class");
                let atoms_j = rj.backbone();
                // By reference: by-value `into_iter` ran this loop ~30%
                // slower (baseline x86-64 target, 12-residue loop).
                for (&ka, &pa) in BackboneAtomKind::ALL.iter().zip(atoms_i.iter()) {
                    for (&kb, &pb) in BackboneAtomKind::ALL.iter().zip(atoms_j.iter()) {
                        let d2 = pa.distance_sq(pb);
                        // Pairs beyond the table range carry no statistical
                        // signal and are skipped, matching how the table was
                        // built.  `d2 >= DIST_MAX²` implies `d >= DIST_MAX`;
                        // the second test stays because sqrt can round a `d2`
                        // just below DIST_MAX² up to exactly DIST_MAX.
                        if d2 >= DIST_MAX * DIST_MAX {
                            continue;
                        }
                        let d = d2.sqrt();
                        if d >= DIST_MAX {
                            continue;
                        }
                        total += self.kb.dist.row(ka, kb, sep)[distance_bin(d)];
                        pairs += 1;
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::KnowledgeBaseConfig;
    use crate::ScoreScratch;
    use lms_geometry::deg_to_rad;
    use lms_protein::{AminoAcid, BenchmarkLibrary, LoopBuilder, LoopTarget, Torsions};

    fn scorer() -> DistScore {
        DistScore::new(KnowledgeBase::build(KnowledgeBaseConfig::fast()))
    }

    #[test]
    fn compact_self_clashing_loop_scores_worse_than_native() {
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1akz").unwrap();
        let builder = LoopBuilder::default();

        let native = target.build(&builder, &target.native_torsions);
        let native_score = s.score_structure(&native);

        // A conformation with all torsions at 0 degrees coils the backbone
        // into a tight, clashing spiral — distances pile into the
        // short-range bins that the table penalises.
        let clashing_torsions = Torsions::zeros(target.n_residues());
        let clashing = target.build(&builder, &clashing_torsions);
        let clashing_score = s.score_structure(&clashing);
        assert!(
            native_score < clashing_score,
            "native {native_score} should beat clashing {clashing_score}"
        );
    }

    #[test]
    fn score_is_translation_invariant() {
        // DIST only depends on internal distances, so two targets whose
        // structures differ by a rigid motion give the same score.  We test
        // the weaker but directly checkable property that scoring the same
        // structure twice is identical and scoring a structure built from
        // the same torsions at a different anchor gives a very similar
        // value (identical internal geometry).
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let t1 = lib.target_by_name("1cex").unwrap();
        let builder = LoopBuilder::default();
        let torsions = Torsions::from_pairs(&vec![
            (deg_to_rad(-63.0), deg_to_rad(-43.0));
            t1.n_residues()
        ]);
        let s1 = t1.build(&builder, &torsions);
        let a = s.score_structure(&s1);
        let b = s.score_structure(&s1);
        assert_eq!(a, b);

        let t2 = lib.target_by_name("1ixh").unwrap();
        assert_eq!(t2.n_residues(), t1.n_residues());
        let s2 = t2.build(&builder, &torsions);
        let c = s.score_structure(&s2);
        assert!(
            (a - c).abs() < 1e-9,
            "same torsions, different frame: {a} vs {c}"
        );
    }

    /// The naive DIST oracle: every residue pair at separation ≥ 2, every
    /// atom pair through `Vec3::distance` and the public
    /// [`crate::DistTable::energy`], no bound and no squared-distance
    /// reject.
    fn naive_dist(kb: &KnowledgeBase, structure: &LoopStructure) -> f64 {
        let residues = &structure.residues;
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..residues.len() {
            for j in (i + 1)..residues.len() {
                let Some(sep) = SeparationClass::from_separation(j - i) else {
                    continue;
                };
                for (ka, pa) in BackboneAtomKind::ALL
                    .into_iter()
                    .zip(residues[i].backbone())
                {
                    for (kb_kind, pb) in BackboneAtomKind::ALL
                        .into_iter()
                        .zip(residues[j].backbone())
                    {
                        let d = pa.distance(pb);
                        if d >= DIST_MAX {
                            continue;
                        }
                        total += kb.dist.energy(ka, kb_kind, sep, d);
                        pairs += 1;
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        }
    }

    #[test]
    fn dist_pass_matches_naive_oracle_bitwise() {
        let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
        let scorer = crate::MultiScorer::new(kb.clone());
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        let factory = lms_geometry::StreamRngFactory::new(23);
        let mut targets: Vec<LoopTarget> = ["1cex", "1xyz", "1akz"]
            .into_iter()
            .map(|name| lib.target_by_name(name).unwrap())
            .collect();
        // A loop with glycines: those residues stage 4 sites, no centroid.
        let mut gly = lib.target_by_name("1cex").unwrap();
        for k in (0..gly.sequence.len()).step_by(3) {
            gly.sequence[k] = AminoAcid::Gly;
        }
        targets.push(gly);
        for target in &targets {
            let mut scratch = ScoreScratch::new();
            for trial in 0..16u64 {
                let mut rng = factory.stream(trial, 0);
                let mut torsions = target.native_torsions.clone();
                // Trial 0 is the native; the others spread from mild
                // perturbations to fully random (and clashing) loops.
                let scale = trial as f64 / 8.0;
                for k in 0..torsions.n_angles() {
                    torsions.rotate_angle(k, lms_geometry::random_torsion(&mut rng) * scale);
                }
                let structure = target.build(&builder, &torsions);
                let pass = scorer.dist_pass(target, &structure, &mut scratch);
                let oracle = naive_dist(&kb, &structure);
                assert_eq!(
                    pass.to_bits(),
                    oracle.to_bits(),
                    "{} trial {trial}: DIST pass diverged from the naive oracle",
                    target.name
                );
            }
        }
    }

    #[test]
    fn empty_pair_set_scores_zero() {
        // A 2-residue "loop" has no pairs at separation >= 2.
        let s = scorer();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1cex").unwrap();
        let builder = LoopBuilder::default();
        let torsions = Torsions::from_pairs(&[
            (deg_to_rad(-63.0), deg_to_rad(-43.0)),
            (deg_to_rad(-63.0), deg_to_rad(-43.0)),
        ]);
        let seq = target.sequence[..2].to_vec();
        let structure = builder.build(&target.frame, &seq, &torsions);
        assert_eq!(s.score_structure(&structure), 0.0);
    }
}
