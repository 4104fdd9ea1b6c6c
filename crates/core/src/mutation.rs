//! The torsion mutation move set (`[Reproduction]` in the paper's
//! pseudo-code).
//!
//! "A new conformation is generated from an old conformation by mutating
//! randomly selected torsion angles."  Each move picks a small number of
//! torsions and either perturbs them with a wrapped-normal step or resamples
//! them from the Ramachandran distribution of the residue class (a larger
//! jump that keeps the proposal in physically plausible territory).  The
//! move reports the smallest mutated flat index so the caller can start CCD
//! "from the immediate torsion angle after the mutated ones".

use lms_geometry::wrapped_normal;
use lms_protein::{RamaClass, RamaLibrary, Torsions};
use rand::Rng;

/// Configuration of the mutation move.
///
/// `#[non_exhaustive]`: construct via `default()` and set the public
/// fields.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MutationConfig {
    /// Maximum number of torsion angles mutated per move (at least 1 is
    /// always mutated).
    pub max_mutations: usize,
    /// Standard deviation (radians) of the local perturbation move.
    pub perturbation_sigma: f64,
    /// Probability that a selected torsion is *resampled* from the
    /// Ramachandran model instead of locally perturbed.
    pub resample_probability: f64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            max_mutations: 3,
            perturbation_sigma: 30f64.to_radians(),
            resample_probability: 0.25,
        }
    }
}

/// The mutation operator.
#[derive(Debug, Clone)]
pub struct Mutator {
    config: MutationConfig,
    rama: RamaLibrary,
}

impl Mutator {
    /// Create a mutator.
    pub fn new(config: MutationConfig) -> Self {
        Mutator {
            config,
            rama: RamaLibrary::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MutationConfig {
        &self.config
    }

    /// Mutate `out` in place (it holds the current torsions on entry) for
    /// a loop whose residues have the given Ramachandran classes: `indices`
    /// receives the sorted mutated flat indices, and the return value is
    /// the CCD start index (the smallest of them — the paper starts "from
    /// the immediate torsion angle after the mutated ones", and every
    /// torsion from the first mutation onward may need adjustment).
    /// Performs no heap allocation once `indices` has warmed up, which
    /// makes it safe to call from the zero-allocation mutate stage.
    pub fn mutate_in_place<R: Rng + ?Sized>(
        &self,
        out: &mut Torsions,
        classes: &[RamaClass],
        rng: &mut R,
        indices: &mut Vec<usize>,
    ) -> usize {
        assert_eq!(classes.len(), out.n_residues());
        let n_angles = out.n_angles();
        let n_mut = rng
            .gen_range(1..=self.config.max_mutations.max(1))
            .min(n_angles);

        indices.clear();
        while indices.len() < n_mut {
            let k = rng.gen_range(0..n_angles);
            if !indices.contains(&k) {
                indices.push(k);
            }
        }
        indices.sort_unstable();

        for &k in indices.iter() {
            let (residue, kind) = Torsions::describe_angle(k);
            if rng.gen::<f64>() < self.config.resample_probability {
                // Large move: resample this residue's pair from the
                // Ramachandran model, but only overwrite the selected angle
                // so the move stays local in torsion space.
                let (phi, psi) = self.rama.model(classes[residue]).sample(rng);
                let value = match kind {
                    lms_protein::TorsionKind::Phi => phi,
                    lms_protein::TorsionKind::Psi => psi,
                };
                out.set_angle(k, value);
            } else {
                let current = out.angle(k);
                out.set_angle(
                    k,
                    wrapped_normal(rng, current, self.config.perturbation_sigma),
                );
            }
        }

        *indices.first().expect("at least one mutation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::StreamRngFactory;

    fn classes(n: usize) -> Vec<RamaClass> {
        (0..n)
            .map(|i| match i % 5 {
                0 => RamaClass::Glycine,
                1 => RamaClass::Proline,
                _ => RamaClass::General,
            })
            .collect()
    }

    fn base_torsions(n: usize) -> Torsions {
        Torsions::from_pairs(&vec![(-1.1, -0.75); n])
    }

    /// One move on a copy of `current`, as the mutate stage makes it: the
    /// mutated torsions, the sorted mutated indices and the CCD start.
    fn mutate<R: Rng>(
        mutator: &Mutator,
        current: &Torsions,
        cls: &[RamaClass],
        rng: &mut R,
    ) -> (Torsions, Vec<usize>, usize) {
        let mut cand = Torsions::zeros(current.n_residues());
        cand.copy_from(current);
        let mut indices = Vec::new();
        let start = mutator.mutate_in_place(&mut cand, cls, rng, &mut indices);
        (cand, indices, start)
    }

    #[test]
    fn mutation_changes_only_selected_indices() {
        let mutator = Mutator::new(MutationConfig::default());
        let t0 = base_torsions(12);
        let cls = classes(12);
        let mut rng = StreamRngFactory::new(5).stream(0, 0);
        for _ in 0..100 {
            let (torsions, indices, _) = mutate(&mutator, &t0, &cls, &mut rng);
            assert!(!indices.is_empty());
            assert!(indices.len() <= mutator.config().max_mutations);
            for k in 0..t0.n_angles() {
                if indices.contains(&k) {
                    // A mutation may, with vanishing probability, leave the
                    // angle numerically unchanged; do not assert change here.
                } else {
                    assert_eq!(torsions.angle(k), t0.angle(k), "index {k} must not move");
                }
            }
        }
    }

    #[test]
    fn ccd_start_is_the_smallest_mutated_index() {
        let mutator = Mutator::new(MutationConfig {
            max_mutations: 4,
            ..Default::default()
        });
        let t0 = base_torsions(10);
        let cls = classes(10);
        let mut rng = StreamRngFactory::new(9).stream(1, 0);
        for _ in 0..50 {
            let (_, indices, start) = mutate(&mutator, &t0, &cls, &mut rng);
            assert_eq!(start, *indices.iter().min().unwrap());
            // Indices are sorted and unique.
            let mut sorted = indices.clone();
            sorted.dedup();
            assert_eq!(sorted, indices);
        }
    }

    #[test]
    fn mutation_is_deterministic_per_stream() {
        let mutator = Mutator::new(MutationConfig::default());
        let t0 = base_torsions(11);
        let cls = classes(11);
        let f = StreamRngFactory::new(77);
        let a = mutate(&mutator, &t0, &cls, &mut f.stream(3, 9));
        let b = mutate(&mutator, &t0, &cls, &mut f.stream(3, 9));
        assert_eq!(a, b);
        let c = mutate(&mutator, &t0, &cls, &mut f.stream(4, 9));
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn mutated_angles_stay_in_canonical_range() {
        let mutator = Mutator::new(MutationConfig {
            perturbation_sigma: 2.0,
            resample_probability: 0.5,
            max_mutations: 5,
        });
        let t0 = base_torsions(12);
        let cls = classes(12);
        let mut rng = StreamRngFactory::new(3).stream(0, 0);
        for _ in 0..200 {
            let (torsions, _, _) = mutate(&mutator, &t0, &cls, &mut rng);
            for k in 0..torsions.n_angles() {
                let a = torsions.angle(k);
                assert!(a > -std::f64::consts::PI - 1e-9 && a <= std::f64::consts::PI + 1e-9);
            }
        }
    }

    #[test]
    fn single_angle_loop_is_handled() {
        let mutator = Mutator::new(MutationConfig {
            max_mutations: 8,
            ..Default::default()
        });
        let t0 = base_torsions(1);
        let cls = classes(1);
        let mut rng = StreamRngFactory::new(1).stream(0, 0);
        let (_, indices, start) = mutate(&mutator, &t0, &cls, &mut rng);
        assert!(indices.len() <= 2);
        assert!(start < 2);
    }

    #[test]
    #[should_panic]
    fn class_length_mismatch_panics() {
        let mutator = Mutator::new(MutationConfig::default());
        let t0 = base_torsions(5);
        let cls = classes(4);
        let mut rng = StreamRngFactory::new(1).stream(0, 0);
        let _ = mutate(&mutator, &t0, &cls, &mut rng);
    }
}
