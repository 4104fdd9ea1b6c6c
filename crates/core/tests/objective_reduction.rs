//! Property tests that the generalized (4-slot) objective plumbing reduces
//! **exactly** to the three-objective behaviour whenever the burial
//! component carries no information:
//!
//! * when the burial component is *constant across a population* (of which
//!   the disabled objective's all-zero slot is the special case), Pareto
//!   dominance, non-dominated fronts, strengths and Eq.-1 fitness are all
//!   identical to the three-objective results;
//! * the three-objective results themselves agree with an independent
//!   reference implementation that hardwires 3 components, guarding the
//!   generic loops against objective-count regressions.

use lms_core::{fitness_against, fitness_assignment, non_dominated_indices, strengths};
use lms_scoring::ScoreVector;
use proptest::prelude::*;

/// Reference three-objective dominance (hardwired component count).
fn dominates3(a: &ScoreVector, b: &ScoreVector) -> bool {
    let (a, b) = (a.as_array(), b.as_array());
    let mut strictly = false;
    for i in 0..3 {
        if a[i] > b[i] {
            return false;
        }
        if a[i] < b[i] {
            strictly = true;
        }
    }
    strictly
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn constant_burial_reduces_to_three_objectives(
        raw in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 12),
        burial in -5.0f64..5.0,
    ) {
        let pop3: Vec<ScoreVector> = raw
            .iter()
            .map(|&(a, b, c)| ScoreVector::new(a, b, c))
            .collect();
        let pop4: Vec<ScoreVector> = pop3.iter().map(|s| s.with_burial(burial)).collect();

        // Dominance structure is unchanged by a constant fourth component…
        for i in 0..pop3.len() {
            for j in 0..pop3.len() {
                prop_assert_eq!(
                    pop4[i].dominates(&pop4[j]),
                    pop3[i].dominates(&pop3[j])
                );
                // …and matches the hardwired three-objective reference.
                prop_assert_eq!(pop3[i].dominates(&pop3[j]), dominates3(&pop3[i], &pop3[j]));
            }
        }

        // Fronts, strengths and Eq.-1 fitness are bit-identical.
        prop_assert_eq!(non_dominated_indices(&pop4), non_dominated_indices(&pop3));
        prop_assert_eq!(strengths(&pop4), strengths(&pop3));
        prop_assert_eq!(fitness_assignment(&pop4), fitness_assignment(&pop3));

        // Candidate-vs-reference fitness (the evolution kernel's Metropolis
        // quantity) reduces identically.
        let cand3 = pop3[0];
        let cand4 = pop4[0];
        prop_assert_eq!(
            fitness_against(&cand4, &pop4[1..]).to_bits(),
            fitness_against(&cand3, &pop3[1..]).to_bits()
        );
    }

    #[test]
    fn varying_burial_can_rescue_dominated_members(
        raw in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 8),
    ) {
        // Sanity check that the fourth slot is *not* inert in general: give
        // every member a distinct burial value inversely ordered to its VDW
        // component; any member dominated in 3-objective space on strictly
        // unequal components becomes incomparable.
        let pop3: Vec<ScoreVector> = raw
            .iter()
            .map(|&(a, b, c)| ScoreVector::new(a, b, c))
            .collect();
        let pop4: Vec<ScoreVector> = pop3
            .iter()
            .map(|s| s.with_burial(-s.vdw()))
            .collect();
        for i in 0..pop3.len() {
            for j in 0..pop3.len() {
                if pop3[i].dominates(&pop3[j]) && pop3[i].vdw() < pop3[j].vdw() {
                    prop_assert!(
                        !pop4[i].dominates(&pop4[j]),
                        "member {} should no longer dominate {} once burial disagrees",
                        i,
                        j
                    );
                }
            }
        }
    }
}
