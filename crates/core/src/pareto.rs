//! Pareto dominance, the MOSCEM strength-based fitness assignment, and
//! NSGA-II crowding distances.
//!
//! Everything here is generic over the objective set: the kernels operate
//! on whole [`ScoreVector`]s (dominance) or loop over
//! [`NUM_OBJECTIVES`] slots (crowding), so adding an objective changes no
//! code — and an objective that is constant across the population (e.g. the
//! disabled burial term, fixed at `0.0`) provably cannot change any result,
//! which is property-tested in `tests/objective_reduction.rs`.
//!
//! MOSCEM converts the multi-objective scoring space into a single fitness
//! value per conformation (paper Eq. 1):
//!
//! * every **non-dominated** conformation `Lᵢ` gets fitness `fᵢ = sᵢ`, where
//!   the *strength* `sᵢ` is the fraction of the population it dominates;
//! * every **dominated** conformation gets `fᵢ = 1 + Σ sⱼ` over the
//!   non-dominated conformations `Lⱼ` that dominate it.
//!
//! Lower fitness is better; conformations with `fᵢ < 1` are exactly the
//! current Pareto-optimal front.
//!
//! Eq. 1 reads a strength only where the member is on the front: its own,
//! or a front dominator's.  The staged pipeline's kernels therefore work
//! front-only.  [`strength_and_front`] settles the front flag first and
//! counts the dominated members only for front members, and the dominated
//! members' sums ([`member_fitness`]) visit only front members, in
//! ascending index order, so every sum adds the same terms in the same
//! order as the direct formulas ([`fitness_assignment`],
//! [`fitness_against`]) that the per-member oracle keeps.
//!
//! Dominance itself ([`ScoreVector::dominates`]) is branch-free: about
//! 330k tests run per iteration at the production point, on score vectors
//! whose comparisons a branch predictor cannot learn.

use lms_scoring::{ScoreVector, NUM_OBJECTIVES};

/// Indices of the non-dominated members of a population of score vectors.
pub fn non_dominated_indices(scores: &[ScoreVector]) -> Vec<usize> {
    (0..scores.len())
        .filter(|&i| {
            !scores
                .iter()
                .enumerate()
                .any(|(j, s)| j != i && s.dominates(&scores[i]))
        })
        .collect()
}

/// The strength of each member: the fraction of the population it dominates.
pub fn strengths(scores: &[ScoreVector]) -> Vec<f64> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    scores
        .iter()
        .map(|si| {
            let dominated = scores.iter().filter(|sj| si.dominates(sj)).count();
            dominated as f64 / n as f64
        })
        .collect()
}

/// MOSCEM fitness assignment (paper Eq. 1) for a whole population.
/// Lower is better; values `< 1` mark the Pareto front.
pub fn fitness_assignment(scores: &[ScoreVector]) -> Vec<f64> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    let s = strengths(scores);
    let non_dominated: Vec<bool> = {
        let nd = non_dominated_indices(scores);
        let mut mask = vec![false; n];
        for i in nd {
            mask[i] = true;
        }
        mask
    };
    (0..n)
        .map(|i| {
            if non_dominated[i] {
                s[i]
            } else {
                1.0 + scores
                    .iter()
                    .enumerate()
                    .filter(|(j, sj)| non_dominated[*j] && sj.dominates(&scores[i]))
                    .map(|(j, _)| s[j])
                    .sum::<f64>()
            }
        })
        .collect()
}

/// Fitness of one candidate score vector evaluated against a reference set
/// (the Metropolis test of an offspring against its complex).  The
/// candidate's fitness follows the same Eq. 1 rule with the reference set
/// playing the role of the population.
///
/// This is the direct formula, O(|reference|²) per call: the per-member
/// reference sampler calls it, and it is the oracle for the staged
/// pipeline's table-driven [`fitness_against_table`].
pub fn fitness_against(candidate: &ScoreVector, reference: &[ScoreVector]) -> f64 {
    // The candidate is treated as a (prospective) member of the population,
    // so strengths are fractions of the reference-plus-candidate set.  This
    // keeps front-member fitness strictly below 1 even for a candidate that
    // dominates the entire reference set.
    let n = reference.len() + 1;
    let dominated_by_candidate =
        reference.iter().filter(|r| candidate.dominates(r)).count() as f64 / n as f64;
    let has_dominator = reference.iter().any(|r| r.dominates(candidate));
    if !has_dominator {
        dominated_by_candidate
    } else {
        // Eq. 1 sums the strengths of the *non-dominated* members that
        // dominate the candidate, with strengths measured within the
        // reference set.
        1.0 + (0..reference.len())
            .filter(|&j| reference[j].dominates(candidate))
            .filter(|&j| {
                !reference
                    .iter()
                    .enumerate()
                    .any(|(k, rk)| k != j && rk.dominates(&reference[j]))
            })
            .map(|j| {
                reference
                    .iter()
                    .filter(|r| reference[j].dominates(r))
                    .count() as f64
                    / n as f64
            })
            .sum::<f64>()
    }
}

/// Member `i`'s Eq. 1 terms within `set`: its front flag (no other member
/// of `set` dominates it) and, for a front member, its strength (the
/// number of members of `set` it dominates, as a fraction of
/// `denominator`).
///
/// The front test exits at the first dominator, and a member off the
/// front gets strength `0.0` without a count: Eq. 1 never reads it (see
/// the module docs).  The population fitness stage calls it with
/// `denominator = set.len()`; the `[FitAssg] within Complex` table with
/// `set.len() + 1`, the prospective-candidate denominator of
/// [`fitness_against`].
pub fn strength_and_front(set: &[ScoreVector], i: usize, denominator: usize) -> (f64, bool) {
    let si = &set[i];
    // A vector never dominates itself, so `i` needs no exclusion.
    if set.iter().any(|sj| sj.dominates(si)) {
        return (0.0, false);
    }
    let dominated = set.iter().filter(|sj| si.dominates(sj)).count();
    (dominated as f64 / denominator as f64, true)
}

/// Eq. 1 fitness of member `i` of `set` from the set's within-set terms
/// (`strength[j]`, `front[j]` as [`strength_and_front`] writes them): its
/// strength on the front, otherwise one plus the strengths of the front
/// members that dominate it.  `front_members` lists the front's indices in
/// ascending order, so the strengths are added in the direct formula's
/// order and the sum is bit-identical to it; the sum selects rather than
/// branches, since adding `+0.0` to a sum of non-negative strengths
/// leaves it unchanged.
///
/// With the population's terms (`denominator = set.len()`) this is
/// [`fitness_assignment`]`(set)[i]`; with a complex's terms
/// (`set.len() + 1`) it is [`fitness_against`]`(&set[i], set)`, the
/// member's own fitness in the Metropolis test.
pub fn member_fitness(
    set: &[ScoreVector],
    i: usize,
    strength: &[f64],
    front: &[bool],
    front_members: impl IntoIterator<Item = usize>,
) -> f64 {
    if front[i] {
        return strength[i];
    }
    let si = &set[i];
    let mut sum = 0.0;
    for j in front_members {
        sum += if set[j].dominates(si) {
            strength[j]
        } else {
            0.0
        };
    }
    1.0 + sum
}

/// [`fitness_against`] from a precomputed table of the reference set's
/// within-set terms: `strength[j]` and `front[j]` are
/// [`strength_and_front`]`(reference, j, reference.len() + 1)`.  One pass
/// over the reference set, O(|reference|) per call, adding the same
/// strengths in the same ascending order as the direct formula, so the
/// result is bit-identical to it.
pub fn fitness_against_table(
    candidate: &ScoreVector,
    reference: &[ScoreVector],
    strength: &[f64],
    front: &[bool],
) -> f64 {
    let mut dominated = 0usize;
    let mut has_dominator = false;
    let mut dominator_strength = 0.0;
    for (j, r) in reference.iter().enumerate() {
        dominated += usize::from(candidate.dominates(r));
        let dominator = r.dominates(candidate);
        has_dominator |= dominator;
        // Selected, not branched on: `+0.0` leaves the non-negative sum
        // unchanged.
        dominator_strength += if dominator & front[j] {
            strength[j]
        } else {
            0.0
        };
    }
    if has_dominator {
        1.0 + dominator_strength
    } else {
        dominated as f64 / (reference.len() + 1) as f64
    }
}

/// Count the distinct non-dominated score vectors (used by Figure 3/5
/// statistics: structurally distinct counting is done at the torsion level
/// by the decoy set; this is the score-space count).
pub fn count_non_dominated(scores: &[ScoreVector]) -> usize {
    non_dominated_indices(scores).len()
}

/// NSGA-II crowding distance of every member of a population: per
/// objective, the population is sorted and each member accumulates the
/// span-normalised gap between its two neighbours; the extremes of every
/// objective get `+∞`.  Larger means less crowded — front-diversity
/// diagnostics prefer keeping high-crowding members.
///
/// An objective with zero spread over the population (all members equal —
/// e.g. the disabled burial slot, fixed at `0.0`) contributes nothing to
/// any member, so the result reduces exactly to the crowding over the
/// remaining objectives.  Ties within an objective are broken by the
/// (stable) original index order, which keeps the assignment deterministic
/// and independent of objective count.
pub fn crowding_distances(scores: &[ScoreVector]) -> Vec<f64> {
    let n = scores.len();
    let mut distances = vec![0.0f64; n];
    if n == 0 {
        return distances;
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for k in 0..NUM_OBJECTIVES {
        order.clear();
        order.extend(0..n);
        order.sort_by(|&a, &b| {
            scores[a]
                .component(k)
                .partial_cmp(&scores[b].component(k))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let lo = scores[order[0]].component(k);
        let hi = scores[order[n - 1]].component(k);
        let span = hi - lo;
        if span <= 0.0 || !span.is_finite() {
            // Degenerate objective: no information, no contribution.
            continue;
        }
        distances[order[0]] = f64::INFINITY;
        distances[order[n - 1]] = f64::INFINITY;
        for w in 1..n - 1 {
            let below = scores[order[w - 1]].component(k);
            let above = scores[order[w + 1]].component(k);
            distances[order[w]] += (above - below) / span;
        }
    }
    distances
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(a: f64, b: f64, c: f64) -> ScoreVector {
        ScoreVector::new(a, b, c)
    }

    #[test]
    fn empty_population() {
        assert!(non_dominated_indices(&[]).is_empty());
        assert!(strengths(&[]).is_empty());
        assert!(fitness_assignment(&[]).is_empty());
    }

    #[test]
    fn single_member_is_non_dominated_with_zero_strength() {
        let pop = vec![sv(1.0, 2.0, 3.0)];
        assert_eq!(non_dominated_indices(&pop), vec![0]);
        assert_eq!(strengths(&pop), vec![0.0]);
        assert_eq!(fitness_assignment(&pop), vec![0.0]);
    }

    #[test]
    fn clear_dominance_chain() {
        // p0 dominates p1 dominates p2.
        let pop = vec![sv(1.0, 1.0, 1.0), sv(2.0, 2.0, 2.0), sv(3.0, 3.0, 3.0)];
        assert_eq!(non_dominated_indices(&pop), vec![0]);
        let s = strengths(&pop);
        assert!((s[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((s[1] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s[2], 0.0);
        let f = fitness_assignment(&pop);
        // Non-dominated front: fitness < 1.
        assert!(f[0] < 1.0);
        // Dominated members: 1 + sum of the strengths of their non-dominated
        // dominators (only p0 is non-dominated).
        assert!((f[1] - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
        assert!((f[2] - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn incomparable_members_are_all_non_dominated() {
        let pop = vec![sv(1.0, 3.0, 2.0), sv(3.0, 1.0, 2.0), sv(2.0, 2.0, 1.0)];
        assert_eq!(non_dominated_indices(&pop), vec![0, 1, 2]);
        let f = fitness_assignment(&pop);
        assert!(f.iter().all(|&x| x < 1.0), "all on the front: {f:?}");
        assert_eq!(count_non_dominated(&pop), 3);
    }

    #[test]
    fn mixed_front_and_dominated() {
        let pop = vec![
            sv(1.0, 5.0, 1.0), // front
            sv(5.0, 1.0, 1.0), // front
            sv(6.0, 6.0, 6.0), // dominated by both
            sv(1.5, 5.5, 1.5), // dominated by 0 only
        ];
        let nd = non_dominated_indices(&pop);
        assert_eq!(nd, vec![0, 1]);
        let f = fitness_assignment(&pop);
        let s = strengths(&pop);
        assert!(f[0] < 1.0 && f[1] < 1.0);
        assert!((f[2] - (1.0 + s[0] + s[1])).abs() < 1e-12);
        assert!((f[3] - (1.0 + s[0])).abs() < 1e-12);
        // Fitness of a dominated member exceeds every front member's.
        assert!(f[2] > f[0] && f[2] > f[1]);
    }

    #[test]
    fn front_members_have_fitness_below_one() {
        // Paper: "solutions with fitness fi < 1.0 correspond to the ones at
        // the Pareto optimal front".
        let pop: Vec<ScoreVector> = (0..20)
            .map(|i| {
                let x = i as f64;
                sv(x, 19.0 - x, 10.0 + (x - 9.5).abs())
            })
            .collect();
        let f = fitness_assignment(&pop);
        let nd = non_dominated_indices(&pop);
        #[allow(clippy::needless_range_loop)] // index drives both fitness and front lookups
        for i in 0..pop.len() {
            if nd.contains(&i) {
                assert!(f[i] < 1.0, "front member {i} has fitness {}", f[i]);
            } else {
                assert!(f[i] >= 1.0, "dominated member {i} has fitness {}", f[i]);
            }
        }
    }

    type Rng = rand_chacha::ChaCha8Rng;

    fn spiked_rng(seed: u64) -> Rng {
        lms_geometry::StreamRngFactory::new(seed).stream(0, 0)
    }

    /// A score vector on a coarse value grid (ties and dominance are
    /// common), spiked with non-finite components, exercising every branch
    /// of Eq. 1.
    fn spiked_vector(rng: &mut Rng) -> ScoreVector {
        use rand::Rng;
        let mut component = || -> f64 {
            match rng.gen_range(0..12) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(-3..4) as f64,
            }
        };
        ScoreVector::from_array([component(), component(), component(), component()])
    }

    /// `len` spiked vectors, one of them (for `len > 1`) duplicated: equal
    /// members never dominate each other.
    fn spiked_set(rng: &mut Rng, len: usize) -> Vec<ScoreVector> {
        use rand::Rng;
        let mut set: Vec<ScoreVector> = (0..len).map(|_| spiked_vector(rng)).collect();
        if len > 1 {
            let (from, to) = (rng.gen_range(0..len), rng.gen_range(0..len));
            set[to] = set[from];
        }
        set
    }

    /// The within-set table of `set` at `denominator`, as the kernels
    /// write it.
    fn table(set: &[ScoreVector], denominator: usize) -> (Vec<f64>, Vec<bool>) {
        (0..set.len())
            .map(|j| strength_and_front(set, j, denominator))
            .unzip()
    }

    #[test]
    fn table_fitness_is_bit_identical_to_the_direct_formula() {
        use rand::Rng;
        let mut rng = spiked_rng(0x5eed_fa11);
        let check = |candidate: &ScoreVector, reference: &[ScoreVector]| {
            let (strength, front) = table(reference, reference.len() + 1);
            let direct = fitness_against(candidate, reference);
            let tabled = fitness_against_table(candidate, reference, &strength, &front);
            assert_eq!(
                tabled.to_bits(),
                direct.to_bits(),
                "{candidate:?} vs {reference:?}"
            );
        };
        let sizes = (0..200usize).map(|k| k % 8).chain([0, 1, 7, 128]);
        for len in sizes {
            let reference = spiked_set(&mut rng, len);
            check(&spiked_vector(&mut rng), &reference);
            if len > 0 {
                // A candidate equal to a reference member (the current
                // member's own fitness in the Metropolis test).
                let j = rng.gen_range(0..len);
                check(&reference[j], &reference);
            }
        }
    }

    /// Complex sizes 0–8 (many draws each) and 128.
    fn spiked_sizes() -> impl Iterator<Item = usize> {
        (0..270usize).map(|k| k % 9).chain([128, 128])
    }

    #[test]
    fn front_only_terms_match_the_direct_formulas() {
        let mut rng = spiked_rng(0xf0_17);
        for len in spiked_sizes() {
            let set = spiked_set(&mut rng, len);
            let on_front = {
                let mut mask = vec![false; len];
                for i in non_dominated_indices(&set) {
                    mask[i] = true;
                }
                mask
            };
            let direct = strengths(&set);
            for denominator in [len, len + 1] {
                for (i, &front) in on_front.iter().enumerate() {
                    let (strength, flag) = strength_and_front(&set, i, denominator);
                    assert_eq!(flag, front, "front flag of {i} in {set:?}");
                    if front {
                        let count = set.iter().filter(|s| set[i].dominates(s)).count();
                        let expected = count as f64 / denominator as f64;
                        assert_eq!(strength.to_bits(), expected.to_bits());
                        if denominator == len {
                            assert_eq!(strength.to_bits(), direct[i].to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn member_fitness_is_bit_identical_to_the_direct_formulas() {
        let mut rng = spiked_rng(0xc0_4e);
        for len in spiked_sizes() {
            let set = spiked_set(&mut rng, len);
            // Population: the front list, Eq. 1 over the whole set.
            let (strength, front) = table(&set, len);
            let front_members: Vec<usize> = (0..len).filter(|&j| front[j]).collect();
            let population = fitness_assignment(&set);
            // Complex: each position's fitness within its complex, the
            // candidate-denominator table the Metropolis stage reads.
            let (c_strength, c_front) = table(&set, len + 1);
            for i in 0..len {
                let f = member_fitness(&set, i, &strength, &front, front_members.iter().copied());
                assert_eq!(f.to_bits(), population[i].to_bits(), "{i} in {set:?}");
                let c = member_fitness(
                    &set,
                    i,
                    &c_strength,
                    &c_front,
                    (0..len).filter(|&j| c_front[j]),
                );
                let direct = fitness_against(&set[i], &set);
                assert_eq!(c.to_bits(), direct.to_bits(), "{i} in {set:?}");
            }
        }
    }

    #[test]
    fn fitness_against_matches_population_fitness_semantics() {
        let reference = vec![sv(1.0, 5.0, 1.0), sv(5.0, 1.0, 1.0), sv(6.0, 6.0, 6.0)];
        // A candidate that dominates everything.
        let champion = sv(0.5, 0.5, 0.5);
        assert!(fitness_against(&champion, &reference) < 1.0);
        assert!((fitness_against(&champion, &reference) - 1.0).abs() > 1e-9);
        // A candidate dominated by the first member.
        let loser = sv(1.5, 5.5, 1.5);
        let f = fitness_against(&loser, &reference);
        assert!(f >= 1.0);
        // A candidate incomparable to all front members.
        let incomparable = sv(0.5, 10.0, 2.0);
        assert!(fitness_against(&incomparable, &reference) < 1.0);
    }

    #[test]
    fn crowding_extremes_are_infinite_and_interior_accumulates() {
        let pop = vec![
            sv(0.0, 4.0, 0.0),
            sv(1.0, 3.0, 0.0),
            sv(2.0, 2.0, 0.0),
            sv(4.0, 0.0, 0.0),
        ];
        let d = crowding_distances(&pop);
        // Boundary members of any objective get infinity.
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        // Interior members: sum over the two informative objectives of the
        // neighbour-gap / span.  TRIPLET and BURIAL are constant → ignored.
        assert!((d[1] - (2.0 / 4.0 + 2.0 / 4.0)).abs() < 1e-12);
        assert!((d[2] - (3.0 / 4.0 + 3.0 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn crowding_of_degenerate_population_is_zero() {
        let pop = vec![sv(1.0, 1.0, 1.0); 3];
        assert_eq!(crowding_distances(&pop), vec![0.0, 0.0, 0.0]);
        assert!(crowding_distances(&[]).is_empty());
        // A single member has no neighbours on any informative objective.
        assert_eq!(crowding_distances(&[sv(1.0, 2.0, 3.0)]), vec![0.0]);
    }

    #[test]
    fn constant_burial_component_does_not_change_crowding() {
        let base = [sv(0.0, 4.0, 1.0), sv(1.0, 3.0, 5.0), sv(2.0, 2.0, 3.0)];
        let with_burial: Vec<ScoreVector> = base.iter().map(|s| s.with_burial(7.25)).collect();
        assert_eq!(crowding_distances(&base), crowding_distances(&with_burial));
    }

    #[test]
    fn duplicate_scores_do_not_dominate_each_other() {
        let pop = vec![sv(1.0, 1.0, 1.0), sv(1.0, 1.0, 1.0)];
        assert_eq!(non_dominated_indices(&pop), vec![0, 1]);
        let f = fitness_assignment(&pop);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], 0.0);
    }
}
