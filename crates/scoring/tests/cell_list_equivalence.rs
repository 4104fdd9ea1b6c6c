//! Property tests for the VDW environment cell lists: the production path
//! ([`VdwScore::environment_term`], one precomputed per-cell candidate list
//! per site) must be **bit-identical** (`==` over raw `f64`s, no tolerance)
//! to the exhaustive linear SoA scan ([`VdwScore::environment_term_linear`])
//! for random environments — including empty environments, environments
//! collapsed into a single grid cell, widely scattered ones, and random
//! softness/weight parameters.  Each list is stored in ascending index
//! order, which is what makes the floating-point summation order (and
//! hence every output bit) match.

use lms_geometry::{deg_to_rad, Vec3};
use lms_protein::LoopBuilder;
use lms_protein::{
    AminoAcid, AnchorFrame, EnvAtom, Environment, LoopFrame, LoopTarget, Torsions, ENV_LIST_RADIUS,
};
use lms_scoring::{ContactWeights, EnvResume, ScoreScratch, VdwRadii, VdwScore};
use proptest::prelude::*;
use std::f64::consts::PI;
use std::sync::Arc;

const LOOP_RES: usize = 8;

/// Build a self-contained loop target around the given environment atoms.
fn target_with_env(angles: &[f64], env_atoms: Vec<EnvAtom>) -> LoopTarget {
    let builder = LoopBuilder::default();
    let sequence: Vec<AminoAcid> = (0..LOOP_RES)
        .map(|i| AminoAcid::from_index((i * 5 + 1) % 20))
        .collect();
    let native_torsions = Torsions::from_flat(angles[..2 * LOOP_RES].to_vec());
    let frame = LoopFrame {
        n_anchor: AnchorFrame::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.458, 0.0, 0.0),
            Vec3::new(2.0, 1.4, 0.0),
        ),
        n_anchor_psi: deg_to_rad(130.0),
        c_anchor: AnchorFrame::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO),
        c_anchor_phi: deg_to_rad(-70.0),
    };
    let native_structure = builder.build(&frame, &sequence, &native_torsions);
    let frame = LoopFrame {
        c_anchor: native_structure.end_frame,
        ..frame
    };
    let native_structure = builder.build(&frame, &sequence, &native_torsions);
    LoopTarget {
        name: "cells".to_string(),
        start_res: 1,
        end_res: LOOP_RES,
        sequence,
        frame,
        environment: Arc::new(Environment::new(env_atoms)),
        native_torsions,
        native_structure,
        buried: false,
        env_cache: Default::default(),
    }
}

/// Decode a flat parameter vector into environment atoms scattered at the
/// given length scale around the loop region.
fn env_from(params: &[f64], count: usize, scale: f64) -> Vec<EnvAtom> {
    (0..count)
        .map(|i| {
            let p = Vec3::new(
                params[3 * i] * scale,
                params[3 * i + 1] * scale,
                params[3 * i + 2] * scale,
            );
            // Mix backbone atoms and centroids with varied radii.
            if i % 3 == 0 {
                EnvAtom::centroid(p, 1.8 + params[3 * i].abs())
            } else {
                EnvAtom::backbone(p, 1.4 + 0.3 * (i % 2) as f64)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cell_list_env_term_is_bit_identical_to_linear_scan(
        angles in prop::collection::vec(-PI..PI, 2 * LOOP_RES),
        coords in prop::collection::vec(-1.0..1.0f64, 3 * 96),
        count in 0usize..96,
        scale in 2.0..25.0f64,
    ) {
        let target = target_with_env(&angles, env_from(&coords, count, scale));
        let vdw = VdwScore::default();
        let builder = LoopBuilder::default();
        let structure = target.build(&builder, &target.native_torsions);
        let mut scratch = ScoreScratch::new();
        let cells = vdw.environment_term(&target, &structure, &mut scratch);
        let linear = vdw.environment_term_linear(&target, &structure, &mut scratch);
        prop_assert_eq!(cells, linear);
        // The full score path (which reads the same lists) stays
        // finite and deterministic.
        let a = vdw.score_target_from(&target, &structure, &mut scratch, None, EnvResume::FULL);
        let b = vdw.score_target_from(&target, &structure, &mut scratch, None, EnvResume::FULL);
        prop_assert_eq!(a, b);
        prop_assert!(a.is_finite());
    }

    #[test]
    fn equivalence_holds_for_random_radii_and_weights(
        angles in prop::collection::vec(-PI..PI, 2 * LOOP_RES),
        coords in prop::collection::vec(-1.0..1.0f64, 3 * 48),
        count in 1usize..48,
        softness in 0.5..1.3f64,
        w in prop::collection::vec(0.0..2.0f64, 3),
    ) {
        // Tight scatter so many pairs actually overlap.
        let target = target_with_env(&angles, env_from(&coords, count, 6.0));
        let radii = VdwRadii { softness, ..VdwRadii::default() };
        // Only parameters whose site reach fits the list radius are
        // accepted; beyond it the pass panics (checked in the VDW unit
        // tests) instead of dropping contacts.
        let max_site = target
            .sequence
            .iter()
            .map(|aa| aa.centroid_radius())
            .fold(radii.n.max(radii.ca).max(radii.c).max(radii.o), f64::max);
        let reach = (max_site + target.env_candidates().max_radius()) * softness;
        prop_assume!(reach <= ENV_LIST_RADIUS);
        let vdw = VdwScore::new(
            radii,
            ContactWeights {
                atom_atom: w[0],
                atom_centroid: w[1],
                centroid_centroid: w[2],
            },
        );
        let builder = LoopBuilder::default();
        let structure = target.build(&builder, &target.native_torsions);
        let mut scratch = ScoreScratch::new();
        let cells = vdw.environment_term(&target, &structure, &mut scratch);
        let linear = vdw.environment_term_linear(&target, &structure, &mut scratch);
        prop_assert_eq!(cells, linear);
        // With a tight scatter the term should usually be non-trivial;
        // ensure the test is not vacuously comparing zeros every time.
        prop_assert!(cells >= 0.0);
    }

    #[test]
    fn equivalence_holds_across_conformations_with_one_scratch(
        angles in prop::collection::vec(-PI..PI, 2 * LOOP_RES),
        edits in prop::collection::vec((0usize..2 * LOOP_RES, -PI..PI), 8),
        coords in prop::collection::vec(-1.0..1.0f64, 3 * 64),
        scale in 3.0..15.0f64,
    ) {
        // One scratch reused across many conformations — the sampler's
        // access pattern — must keep both paths in exact agreement.
        let target = target_with_env(&angles, env_from(&coords, 64, scale));
        let vdw = VdwScore::default();
        let builder = LoopBuilder::default();
        let mut torsions = target.native_torsions.clone();
        let mut scratch = ScoreScratch::for_loop_len(LOOP_RES);
        for (k, v) in edits {
            torsions.set_angle(k, v);
            let structure = target.build(&builder, &torsions);
            let cells = vdw.environment_term(&target, &structure, &mut scratch);
            let linear = vdw.environment_term_linear(&target, &structure, &mut scratch);
            prop_assert_eq!(cells, linear);
        }
    }
}

#[test]
fn empty_environment_scores_zero_on_both_paths() {
    let angles = vec![-1.1; 2 * LOOP_RES];
    let target = target_with_env(&angles, Vec::new());
    let vdw = VdwScore::default();
    let builder = LoopBuilder::default();
    let structure = target.build(&builder, &target.native_torsions);
    let mut scratch = ScoreScratch::new();
    assert_eq!(vdw.environment_term(&target, &structure, &mut scratch), 0.0);
    assert_eq!(
        vdw.environment_term_linear(&target, &structure, &mut scratch),
        0.0
    );
}

#[test]
fn single_cell_environment_matches_linear_scan() {
    // Every environment atom inside one 4 Å grid cell, overlapping the
    // loop: the degenerate 1×1×1 grid must still agree bit for bit.
    let angles = vec![-0.9; 2 * LOOP_RES];
    let atoms = vec![
        EnvAtom::backbone(Vec3::new(2.2, 1.0, 0.4), 1.7),
        EnvAtom::backbone(Vec3::new(2.5, 1.2, 0.1), 1.5),
        EnvAtom::centroid(Vec3::new(2.1, 0.8, 0.6), 2.3),
    ];
    let target = target_with_env(&angles, atoms);
    let vdw = VdwScore::default();
    let builder = LoopBuilder::default();
    let structure = target.build(&builder, &target.native_torsions);
    let mut scratch = ScoreScratch::new();
    let cells = vdw.environment_term(&target, &structure, &mut scratch);
    let linear = vdw.environment_term_linear(&target, &structure, &mut scratch);
    assert_eq!(cells, linear);
    assert!(
        cells > 0.0,
        "atoms this close must produce a non-zero clash term"
    );
}
