//! Decoy-set accumulation.
//!
//! The paper's evaluation protocol: run the multi-scoring sampling
//! trajectory, take the structurally distinct non-dominated conformations
//! (maximum torsion deviation of at least 30° from every decoy already in
//! the set), add them to the decoy set, and repeat trajectories with fresh
//! random seeds until the set holds 1,000 decoys.  [`DecoySet`] implements
//! that accumulation and the quality queries Table IV needs.

use crate::conformation::Conformation;
use crate::pareto::non_dominated_indices;
use lms_protein::Torsions;
use lms_scoring::ScoreVector;

/// One decoy in the set.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoy {
    /// Torsion vector of the decoy.
    pub torsions: Torsions,
    /// Objective scores of the decoy.
    pub scores: ScoreVector,
    /// Backbone RMSD to the native loop (Å).
    pub rmsd_to_native: f64,
    /// Index of the trajectory that produced it.
    pub trajectory: usize,
}

/// A growing set of structurally distinct loop decoys.
#[derive(Debug, Clone)]
pub struct DecoySet {
    decoys: Vec<Decoy>,
    threshold_deg: f64,
    max_closure_deviation: f64,
}

impl DecoySet {
    /// Create an empty decoy set with the given structural-distinctness
    /// threshold (degrees of maximum torsion deviation).  By default no
    /// closure filter is applied; see
    /// [`DecoySet::with_max_closure_deviation`].
    pub fn new(threshold_deg: f64) -> Self {
        DecoySet {
            decoys: Vec::new(),
            threshold_deg,
            max_closure_deviation: f64::INFINITY,
        }
    }

    /// Restrict harvesting to conformations satisfying the loop-closure
    /// condition: members whose recorded closure deviation exceeds
    /// `max_deviation` (Å) are never added by
    /// [`DecoySet::harvest_population`].  An unclosed loop can score
    /// deceptively well (it simply drifts away from the protein), so decoy
    /// sets for evaluation should always set this.
    pub fn with_max_closure_deviation(mut self, max_deviation: f64) -> Self {
        self.max_closure_deviation = max_deviation;
        self
    }

    /// The distinctness threshold in degrees.
    pub fn threshold_deg(&self) -> f64 {
        self.threshold_deg
    }

    /// Number of decoys collected so far.
    pub fn len(&self) -> usize {
        self.decoys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.decoys.is_empty()
    }

    /// The decoys collected so far.
    pub fn decoys(&self) -> &[Decoy] {
        &self.decoys
    }

    /// Whether a candidate is structurally distinct from everything already
    /// in the set.
    pub fn is_distinct(&self, torsions: &Torsions) -> bool {
        self.decoys
            .iter()
            .all(|d| d.torsions.is_distinct_from(torsions, self.threshold_deg))
    }

    /// Try to add a decoy; returns `true` if it was added (i.e. it was
    /// distinct from every existing decoy).
    pub fn try_add(&mut self, decoy: Decoy) -> bool {
        if self.is_distinct(&decoy.torsions) {
            self.decoys.push(decoy);
            true
        } else {
            false
        }
    }

    /// Harvest the structurally distinct non-dominated conformations of a
    /// finished trajectory's population into the set.  Returns how many new
    /// decoys were added.
    pub fn harvest_population(&mut self, population: &[Conformation], trajectory: usize) -> usize {
        let scores: Vec<ScoreVector> = population.iter().map(|c| c.scores).collect();
        let mut added = 0;
        for idx in non_dominated_indices(&scores) {
            let c = &population[idx];
            if c.closure_deviation > self.max_closure_deviation {
                // Unclosed conformations are not valid decoys regardless of
                // how well they score.
                continue;
            }
            let decoy = Decoy {
                torsions: c.torsions.clone(),
                scores: c.scores,
                rmsd_to_native: c.rmsd_to_native,
                trajectory,
            };
            if self.try_add(decoy) {
                added += 1;
            }
        }
        added
    }

    /// Best (lowest) RMSD to native in the set, or `None` when empty.
    pub fn best_rmsd(&self) -> Option<f64> {
        self.decoys
            .iter()
            .map(|d| d.rmsd_to_native)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Number of decoys within an RMSD cutoff of the native.
    pub fn count_within(&self, rmsd_cutoff: f64) -> usize {
        self.decoys
            .iter()
            .filter(|d| d.rmsd_to_native <= rmsd_cutoff)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::deg_to_rad;

    fn decoy(phis_deg: &[f64], rmsd: f64) -> Decoy {
        let pairs: Vec<(f64, f64)> = phis_deg
            .iter()
            .map(|&p| (deg_to_rad(p), deg_to_rad(p / 2.0)))
            .collect();
        Decoy {
            torsions: Torsions::from_pairs(&pairs),
            scores: ScoreVector::new(1.0, 1.0, 1.0),
            rmsd_to_native: rmsd,
            trajectory: 0,
        }
    }

    #[test]
    fn distinctness_rule_enforced() {
        let mut set = DecoySet::new(30.0);
        assert!(set.is_empty());
        assert!(set.try_add(decoy(&[-60.0, -60.0, -60.0], 1.0)));
        // Within 30 degrees of the first everywhere: rejected.
        assert!(!set.try_add(decoy(&[-70.0, -55.0, -45.0], 1.2)));
        assert_eq!(set.len(), 1);
        // One torsion deviates by 40 degrees: accepted.
        assert!(set.try_add(decoy(&[-100.0, -60.0, -60.0], 0.8)));
        assert_eq!(set.len(), 2);
        // Must now be distinct from *both* members.
        assert!(!set.try_add(decoy(&[-95.0, -62.0, -58.0], 0.9)));
        assert_eq!(set.threshold_deg(), 30.0);
    }

    #[test]
    fn quality_queries() {
        let mut set = DecoySet::new(30.0);
        set.try_add(decoy(&[-60.0, -60.0, -60.0], 2.4));
        set.try_add(decoy(&[-120.0, 140.0, -60.0], 0.9));
        set.try_add(decoy(&[60.0, 45.0, 100.0], 1.4));
        assert_eq!(set.len(), 3);
        assert!((set.best_rmsd().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(set.count_within(1.0), 1);
        assert_eq!(set.count_within(1.5), 2);
        assert_eq!(set.count_within(0.5), 0);
        assert!(DecoySet::new(30.0).best_rmsd().is_none());
    }

    #[test]
    fn harvest_takes_only_non_dominated_and_distinct() {
        let mut set = DecoySet::new(30.0);
        let make = |phi_deg: f64, scores: ScoreVector, rmsd: f64| {
            let mut c = Conformation::new(Torsions::from_pairs(&[(deg_to_rad(phi_deg), 0.0)]));
            c.scores = scores;
            c.rmsd_to_native = rmsd;
            c
        };
        let population = vec![
            make(-60.0, ScoreVector::new(1.0, 2.0, 3.0), 1.0), // non-dominated
            make(100.0, ScoreVector::new(2.0, 1.0, 3.0), 1.5), // non-dominated
            make(170.0, ScoreVector::new(3.0, 3.0, 4.0), 0.5), // dominated by both
            make(-65.0, ScoreVector::new(1.0, 2.0, 2.9), 1.1), // non-dominated but not distinct from the first
        ];
        let added = set.harvest_population(&population, 7);
        assert_eq!(added, 2);
        assert_eq!(set.len(), 2);
        assert!(set.decoys().iter().all(|d| d.trajectory == 7));
        // The dominated low-RMSD member was (correctly) not harvested.
        assert!(set.best_rmsd().unwrap() > 0.9);
    }
}
