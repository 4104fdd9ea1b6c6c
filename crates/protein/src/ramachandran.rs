//! Ramachandran torsion-angle statistics.
//!
//! The TRIPLET scoring function of the paper is a knowledge-based potential
//! derived from the distribution of `(φ, ψ)` pairs observed in a large loop
//! library.  We do not have that proprietary library, so the suite carries a
//! compact generative stand-in: a per-residue-class mixture of wrapped
//! Gaussian basins centred on the classical Ramachandran regions (right-
//! handed α, β/extended, polyproline-II and left-handed α).  The mixture is
//! used twice:
//!
//! 1. the synthetic benchmark generator samples *native* loop torsions from
//!    it, and
//! 2. the synthetic knowledge base in `lms-scoring` is built by histogramming
//!    a large sample drawn from it — mimicking how the real potential is
//!    derived from a real loop library.

use crate::amino::RamaClass;
use lms_geometry::{deg_to_rad, wrap_rad, wrapped_normal};
use rand::Rng;

/// One basin (mode) of the Ramachandran mixture: a wrapped, axis-aligned
/// Gaussian in `(φ, ψ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RamaBasin {
    /// Mixture weight (relative, need not be normalised).
    pub weight: f64,
    /// Mean φ (radians).
    pub phi_mean: f64,
    /// Mean ψ (radians).
    pub psi_mean: f64,
    /// Standard deviation of φ (radians).
    pub phi_sigma: f64,
    /// Standard deviation of ψ (radians).
    pub psi_sigma: f64,
}

impl RamaBasin {
    fn new_deg(weight: f64, phi: f64, psi: f64, sphi: f64, spsi: f64) -> Self {
        RamaBasin {
            weight,
            phi_mean: deg_to_rad(phi),
            psi_mean: deg_to_rad(psi),
            phi_sigma: deg_to_rad(sphi),
            psi_sigma: deg_to_rad(spsi),
        }
    }

    /// Unnormalised density contribution of this basin at `(φ, ψ)`.
    fn density(&self, phi: f64, psi: f64) -> f64 {
        let dphi = wrap_rad(phi - self.phi_mean) / self.phi_sigma;
        let dpsi = wrap_rad(psi - self.psi_mean) / self.psi_sigma;
        self.weight * (-0.5 * (dphi * dphi + dpsi * dpsi)).exp() / (self.phi_sigma * self.psi_sigma)
    }
}

/// The Ramachandran mixture model for one residue class.
#[derive(Debug, Clone, PartialEq)]
pub struct RamaModel {
    class: RamaClass,
    basins: Vec<RamaBasin>,
    total_weight: f64,
}

impl RamaModel {
    /// The model for a residue class.
    pub fn for_class(class: RamaClass) -> RamaModel {
        let basins = match class {
            RamaClass::General => vec![
                // right-handed alpha helix
                RamaBasin::new_deg(0.42, -63.0, -43.0, 12.0, 13.0),
                // beta / extended
                RamaBasin::new_deg(0.32, -120.0, 135.0, 25.0, 22.0),
                // polyproline II
                RamaBasin::new_deg(0.18, -75.0, 150.0, 15.0, 18.0),
                // left-handed alpha
                RamaBasin::new_deg(0.08, 57.0, 45.0, 12.0, 12.0),
            ],
            RamaClass::Glycine => vec![
                RamaBasin::new_deg(0.25, -63.0, -43.0, 15.0, 15.0),
                RamaBasin::new_deg(0.25, 63.0, 43.0, 15.0, 15.0),
                RamaBasin::new_deg(0.20, -120.0, 140.0, 28.0, 25.0),
                RamaBasin::new_deg(0.20, 120.0, -140.0, 28.0, 25.0),
                RamaBasin::new_deg(0.10, 80.0, -170.0, 20.0, 20.0),
            ],
            RamaClass::Proline => vec![
                RamaBasin::new_deg(0.55, -65.0, 150.0, 10.0, 18.0),
                RamaBasin::new_deg(0.35, -65.0, -35.0, 10.0, 14.0),
                RamaBasin::new_deg(0.10, -85.0, 70.0, 12.0, 18.0),
            ],
        };
        let total_weight = basins.iter().map(|b| b.weight).sum();
        RamaModel {
            class,
            basins,
            total_weight,
        }
    }

    /// The residue class this model describes.
    pub fn class(&self) -> RamaClass {
        self.class
    }

    /// The basins of the mixture.
    pub fn basins(&self) -> &[RamaBasin] {
        &self.basins
    }

    /// Sample a `(φ, ψ)` pair from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let mut pick = rng.gen::<f64>() * self.total_weight;
        let mut chosen = &self.basins[self.basins.len() - 1];
        for b in &self.basins {
            if pick < b.weight {
                chosen = b;
                break;
            }
            pick -= b.weight;
        }
        (
            wrapped_normal(rng, chosen.phi_mean, chosen.phi_sigma),
            wrapped_normal(rng, chosen.psi_mean, chosen.psi_sigma),
        )
    }

    /// Probability density (up to the mixture normalisation constant over
    /// the torus) at `(φ, ψ)`.
    pub fn density(&self, phi: f64, psi: f64) -> f64 {
        self.basins.iter().map(|b| b.density(phi, psi)).sum::<f64>() / self.total_weight
    }

    /// Negative log density, clamped to avoid infinities in empty regions.
    pub fn energy(&self, phi: f64, psi: f64) -> f64 {
        -(self.density(phi, psi).max(1e-12)).ln()
    }
}

/// Convenience bundle with one model per residue class.
#[derive(Debug, Clone)]
pub struct RamaLibrary {
    models: [RamaModel; RamaClass::COUNT],
}

impl Default for RamaLibrary {
    fn default() -> Self {
        RamaLibrary {
            models: [
                RamaModel::for_class(RamaClass::General),
                RamaModel::for_class(RamaClass::Glycine),
                RamaModel::for_class(RamaClass::Proline),
            ],
        }
    }
}

impl RamaLibrary {
    /// The model for a residue class.
    pub fn model(&self, class: RamaClass) -> &RamaModel {
        &self.models[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::StreamRngFactory;
    use std::f64::consts::PI;

    /// Check that an angle pair is inside the torus domain `(-π, π]²`.
    fn in_torsion_domain(phi: f64, psi: f64) -> bool {
        phi > -PI - 1e-9 && phi <= PI + 1e-9 && psi > -PI - 1e-9 && psi <= PI + 1e-9
    }

    #[test]
    fn samples_stay_in_domain() {
        let lib = RamaLibrary::default();
        let mut rng = StreamRngFactory::new(1).stream(0, 0);
        for class in [RamaClass::General, RamaClass::Glycine, RamaClass::Proline] {
            let model = lib.model(class);
            for _ in 0..2000 {
                let (phi, psi) = model.sample(&mut rng);
                assert!(in_torsion_domain(phi, psi), "({phi}, {psi}) outside domain");
            }
        }
    }

    #[test]
    fn general_class_favours_alpha_and_beta() {
        let model = RamaModel::for_class(RamaClass::General);
        let alpha = model.density(deg_to_rad(-63.0), deg_to_rad(-43.0));
        let beta = model.density(deg_to_rad(-120.0), deg_to_rad(135.0));
        let forbidden = model.density(deg_to_rad(60.0), deg_to_rad(-120.0));
        assert!(
            alpha > forbidden * 50.0,
            "alpha {alpha} vs forbidden {forbidden}"
        );
        assert!(
            beta > forbidden * 10.0,
            "beta {beta} vs forbidden {forbidden}"
        );
    }

    #[test]
    fn proline_phi_is_restricted() {
        let model = RamaModel::for_class(RamaClass::Proline);
        let mut rng = StreamRngFactory::new(2).stream(0, 0);
        let mut count_near = 0;
        let total = 3000;
        for _ in 0..total {
            let (phi, _) = model.sample(&mut rng);
            if (phi.to_degrees() + 65.0).abs() < 40.0 {
                count_near += 1;
            }
        }
        assert!(
            count_near as f64 > 0.85 * total as f64,
            "only {count_near}/{total} proline samples near phi=-65"
        );
    }

    #[test]
    fn glycine_allows_positive_phi() {
        let model = RamaModel::for_class(RamaClass::Glycine);
        let mut rng = StreamRngFactory::new(3).stream(0, 0);
        let mut positive = 0;
        let total = 3000;
        for _ in 0..total {
            let (phi, _) = model.sample(&mut rng);
            if phi > 0.0 {
                positive += 1;
            }
        }
        // Glycine's map is nearly symmetric: a large fraction at positive phi.
        assert!(positive as f64 > 0.3 * total as f64, "{positive}/{total}");
        // Whereas the general class almost never goes there.
        let general = RamaModel::for_class(RamaClass::General);
        let mut pos_gen = 0;
        for _ in 0..total {
            let (phi, _) = general.sample(&mut rng);
            if phi > 0.0 {
                pos_gen += 1;
            }
        }
        assert!(
            pos_gen < positive,
            "general {pos_gen} >= glycine {positive}"
        );
    }

    #[test]
    fn energy_is_negative_log_density() {
        let model = RamaModel::for_class(RamaClass::General);
        let (phi, psi) = (deg_to_rad(-63.0), deg_to_rad(-43.0));
        let e = model.energy(phi, psi);
        let d = model.density(phi, psi);
        assert!((e + d.ln()).abs() < 1e-12);
        // Low-density regions have higher (worse) energy.
        assert!(model.energy(deg_to_rad(60.0), deg_to_rad(-120.0)) > e);
    }

    #[test]
    fn density_is_periodic() {
        let model = RamaModel::for_class(RamaClass::General);
        let d1 = model.density(deg_to_rad(-63.0), deg_to_rad(-43.0));
        let d2 = model.density(deg_to_rad(-63.0 + 360.0), deg_to_rad(-43.0 - 360.0));
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_reproducible_per_stream() {
        let model = RamaModel::for_class(RamaClass::General);
        let f = StreamRngFactory::new(77);
        let a: Vec<(f64, f64)> = {
            let mut r = f.stream(5, 0);
            (0..16).map(|_| model.sample(&mut r)).collect()
        };
        let b: Vec<(f64, f64)> = {
            let mut r = f.stream(5, 0);
            (0..16).map(|_| model.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn library_exposes_all_classes() {
        let lib = RamaLibrary::default();
        assert_eq!(lib.model(RamaClass::General).class(), RamaClass::General);
        assert_eq!(lib.model(RamaClass::Glycine).class(), RamaClass::Glycine);
        assert_eq!(lib.model(RamaClass::Proline).class(), RamaClass::Proline);
        assert!(!lib.model(RamaClass::General).basins().is_empty());
    }
}
