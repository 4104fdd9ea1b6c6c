//! The objective set and the score vector shared by the objectives.
//!
//! The objective set is described by [`Objective`] and sized by
//! [`NUM_OBJECTIVES`]; nothing downstream hardwires a component count.  A
//! [`ScoreVector`] always carries one slot per objective in canonical
//! order — samplers that run with the burial objective disabled simply leave
//! its slot at exactly `0.0`, which makes every comparison (dominance,
//! normalisation, fitness) reduce bit-identically to the three-objective
//! behaviour: a component that is equal on both sides can neither veto nor
//! establish dominance.

use std::fmt;

/// Number of scoring functions (objectives) a [`ScoreVector`] carries, in
/// the canonical order (VDW, DIST, TRIPLET, BURIAL).
pub const NUM_OBJECTIVES: usize = 4;

/// The vector of objective values for one conformation, one slot per
/// [`Objective`] in the fixed (VDW, DIST, TRIPLET, BURIAL) order.
///
/// Three-objective pipelines leave the BURIAL slot at exactly `0.0`; all
/// comparisons then reduce bit-identically to the three-objective ones.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScoreVector {
    values: [f64; NUM_OBJECTIVES],
}

impl ScoreVector {
    /// Construct from the three core components, leaving the burial slot at
    /// `0.0` (the disabled-objective convention).
    pub fn new(vdw: f64, dist: f64, triplet: f64) -> Self {
        ScoreVector {
            values: [vdw, dist, triplet, 0.0],
        }
    }

    /// Replace the burial component.
    #[must_use]
    pub fn with_burial(mut self, burial: f64) -> Self {
        self.values[Objective::Burial.index()] = burial;
        self
    }

    /// Soft-sphere van der Waals clash score.
    pub fn vdw(&self) -> f64 {
        self.values[Objective::Vdw.index()]
    }

    /// Atom pair-wise distance-based score.
    pub fn dist(&self) -> f64 {
        self.values[Objective::Dist.index()]
    }

    /// Triplet torsion-angle score.
    pub fn triplet(&self) -> f64 {
        self.values[Objective::Triplet.index()]
    }

    /// Solvation/burial contact-number score (`0.0` when the objective is
    /// disabled).
    pub fn burial(&self) -> f64 {
        self.values[Objective::Burial.index()]
    }

    /// One component by objective index (canonical order).
    pub fn component(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// The components as an array in canonical objective order.
    pub fn as_array(&self) -> [f64; NUM_OBJECTIVES] {
        self.values
    }

    /// Build from an array in canonical objective order.
    pub fn from_array(values: [f64; NUM_OBJECTIVES]) -> Self {
        ScoreVector { values }
    }

    /// Pareto dominance: `self` dominates `other` iff it is no worse in
    /// every objective and strictly better in at least one (lower = better).
    ///
    /// Branch-free: both comparisons of every slot are ORed together and
    /// the verdict is `better & !worse`, the same boolean as an early-return
    /// scan for every input.  A slot holding NaN on either side compares
    /// false both ways, so it neither vetoes nor establishes dominance.
    #[inline]
    pub fn dominates(&self, other: &ScoreVector) -> bool {
        let (mut better, mut worse) = (false, false);
        for i in 0..NUM_OBJECTIVES {
            better |= self.values[i] < other.values[i];
            worse |= self.values[i] > other.values[i];
        }
        better & !worse
    }

    /// Whether every component is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// The first objective (in canonical order) whose component is
    /// non-finite, if any — the diagnostic half of the numerical health
    /// sweep: when a score vector is poisoned, this names the scoring
    /// function that produced the poison.
    pub fn first_non_finite(&self) -> Option<Objective> {
        Objective::ALL
            .into_iter()
            .find(|o| !self.values[o.index()].is_finite())
    }
}

impl fmt::Display for ScoreVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, obj) in Objective::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={:.3}", obj.name(), self.values[i])?;
        }
        Ok(())
    }
}

/// Identifies one objective; used by the ablation benches, the
/// single-objective baseline and the normalisation helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Soft-sphere van der Waals clash score.
    Vdw,
    /// Atom pair-wise distance-based score.
    Dist,
    /// Triplet torsion-angle score.
    Triplet,
    /// Solvation/burial contact-number score.
    Burial,
}

impl Objective {
    /// All objectives in canonical (VDW, DIST, TRIPLET, BURIAL) order.
    pub const ALL: [Objective; NUM_OBJECTIVES] = [
        Objective::Vdw,
        Objective::Dist,
        Objective::Triplet,
        Objective::Burial,
    ];

    /// Stable slot index in `[0, NUM_OBJECTIVES)` (canonical order).
    pub fn index(&self) -> usize {
        match self {
            Objective::Vdw => 0,
            Objective::Dist => 1,
            Objective::Triplet => 2,
            Objective::Burial => 3,
        }
    }

    /// Extract this objective's value from a score vector.
    pub fn value(&self, s: &ScoreVector) -> f64 {
        s.component(self.index())
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Vdw => "VDW",
            Objective::Dist => "DIST",
            Objective::Triplet => "TRIPLET",
            Objective::Burial => "BURIAL",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_roundtrip() {
        let s = ScoreVector::new(1.0, 2.0, 3.0);
        assert_eq!(ScoreVector::from_array(s.as_array()), s);
        assert_eq!(s.as_array(), [1.0, 2.0, 3.0, 0.0]);
        let b = s.with_burial(4.0);
        assert_eq!(b.as_array(), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.burial(), 4.0);
    }

    #[test]
    fn dominance_relation() {
        let a = ScoreVector::new(1.0, 1.0, 1.0);
        let b = ScoreVector::new(2.0, 2.0, 2.0);
        let c = ScoreVector::new(0.5, 3.0, 1.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Incomparable pair.
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        // No self-domination.
        assert!(!a.dominates(&a));
        // Equal in some, better in one.
        let d = ScoreVector::new(1.0, 1.0, 0.5);
        assert!(d.dominates(&a));
        assert!(!a.dominates(&d));
    }

    #[test]
    fn burial_component_participates_in_dominance() {
        let a = ScoreVector::new(1.0, 1.0, 1.0).with_burial(1.0);
        let b = ScoreVector::new(1.0, 1.0, 1.0).with_burial(2.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // A zero burial slot on both sides changes nothing: the pair reduces
        // to the three-objective comparison.
        let x = ScoreVector::new(1.0, 2.0, 3.0);
        let y = ScoreVector::new(2.0, 3.0, 4.0);
        assert!(x.dominates(&y));
        assert!(!y.dominates(&x));
    }

    #[test]
    fn finiteness() {
        assert!(ScoreVector::new(1.0, 2.0, 3.0).is_finite());
        assert!(!ScoreVector::new(f64::NAN, 2.0, 3.0).is_finite());
        assert_eq!(ScoreVector::new(1.0, 2.0, 3.0).first_non_finite(), None);
        assert_eq!(
            ScoreVector::new(1.0, f64::INFINITY, 3.0).first_non_finite(),
            Some(Objective::Dist)
        );
        assert_eq!(
            ScoreVector::new(f64::NAN, f64::NAN, 3.0).first_non_finite(),
            Some(Objective::Vdw)
        );
        assert!(!ScoreVector::new(1.0, f64::INFINITY, 3.0).is_finite());
        assert!(!ScoreVector::new(1.0, 2.0, 3.0)
            .with_burial(f64::NAN)
            .is_finite());
    }

    #[test]
    fn objective_accessors() {
        let s = ScoreVector::new(1.0, 2.0, 3.0).with_burial(4.0);
        assert_eq!(Objective::Vdw.value(&s), 1.0);
        assert_eq!(Objective::Dist.value(&s), 2.0);
        assert_eq!(Objective::Triplet.value(&s), 3.0);
        assert_eq!(Objective::Burial.value(&s), 4.0);
        assert_eq!(Objective::ALL.len(), NUM_OBJECTIVES);
        for (i, obj) in Objective::ALL.iter().enumerate() {
            assert_eq!(obj.index(), i);
        }
        assert_eq!(Objective::Vdw.name(), "VDW");
        assert_eq!(Objective::Burial.name(), "BURIAL");
    }

    #[test]
    fn display_contains_all_components() {
        let s = format!("{}", ScoreVector::new(1.5, 2.5, 3.5).with_burial(4.5));
        assert!(s.contains("VDW=1.5"));
        assert!(s.contains("DIST=2.5"));
        assert!(s.contains("TRIPLET=3.5"));
        assert!(s.contains("BURIAL=4.5"));
    }

    /// The early-return dominance scan, kept as the oracle of the
    /// branch-free [`ScoreVector::dominates`].
    fn dominates_early_return(a: &ScoreVector, b: &ScoreVector) -> bool {
        let mut strictly_better = false;
        for i in 0..NUM_OBJECTIVES {
            if a.values[i] > b.values[i] {
                return false;
            }
            if a.values[i] < b.values[i] {
                strictly_better = true;
            }
        }
        strictly_better
    }

    /// One component drawn from 64 random bits: mostly special values and a
    /// five-value grid (so ties and strict orders are both common), the
    /// rest arbitrary bit patterns (NaN payloads included).
    fn component(bits: u64) -> f64 {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
        ];
        match bits % 16 {
            k @ 0..=7 => SPECIAL[k as usize],
            8..=13 => ((bits >> 4) % 5) as f64 - 2.0,
            // An odd multiplier spreads the bits over sign, exponent and
            // mantissa.
            _ => f64::from_bits(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        #[test]
        fn branch_free_dominance_matches_the_early_return_scan(
            words in proptest::prop::collection::vec(proptest::any::<u64>(), 2 * NUM_OBJECTIVES)
        ) {
            let vector = |w: &[u64]| {
                ScoreVector::from_array([
                    component(w[0]),
                    component(w[1]),
                    component(w[2]),
                    component(w[3]),
                ])
            };
            let (a, b) = (vector(&words[..4]), vector(&words[4..]));
            proptest::prop_assert_eq!(a.dominates(&b), dominates_early_return(&a, &b));
            proptest::prop_assert_eq!(b.dominates(&a), dominates_early_return(&b, &a));
            proptest::prop_assert!(!a.dominates(&a));
        }
    }
}
