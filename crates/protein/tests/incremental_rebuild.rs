//! Property tests for the prefix-reuse invariant of
//! [`LoopBuilder::rebuild_from`]: a suffix-only rebuild after a torsion
//! edit must be **bit-identical** (`LoopStructure: PartialEq` over raw
//! `f64`s, no tolerance) to a full [`LoopBuilder::build_into`] of the
//! edited vector — for any loop length, any sequence, any torsion vector,
//! an edit at *any* flat angle index, and under CCD-style chains of
//! ascending single-angle edits reusing one structure buffer.

use lms_geometry::{deg_to_rad, Vec3};
use lms_protein::{AminoAcid, AnchorFrame, LoopBuilder, LoopFrame, LoopStructure, Torsions};
use proptest::prelude::*;
use std::f64::consts::PI;

/// Maximum loop length exercised; strategies draw fixed-size angle vectors
/// and truncate to the sampled length.
const MAX_RES: usize = 13;

fn frame_from(params: &[f64]) -> LoopFrame {
    // A mildly perturbed but well-conditioned anchor frame.
    let n = Vec3::new(params[0] * 0.5, params[1] * 0.5, params[2] * 0.5);
    let ca = n + Vec3::new(1.458, params[3] * 0.1, params[4] * 0.1);
    let c = ca + Vec3::new(0.55, 1.4, params[5] * 0.1);
    LoopFrame {
        n_anchor: AnchorFrame::new(n, ca, c),
        n_anchor_psi: deg_to_rad(120.0 + params[0] * 40.0),
        c_anchor: AnchorFrame::new(
            Vec3::new(8.0, 3.0, 2.0),
            Vec3::new(9.2, 3.5, 2.5),
            Vec3::new(10.4, 2.8, 3.2),
        ),
        c_anchor_phi: deg_to_rad(-65.0 + params[1] * 20.0),
    }
}

fn sequence_of(len: usize, picks: &[usize]) -> Vec<AminoAcid> {
    (0..len)
        .map(|i| AminoAcid::from_index(picks[i] % 20))
        .collect()
}

fn torsions_of(len: usize, angles: &[f64]) -> Torsions {
    Torsions::from_flat(angles[..2 * len].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rebuild_from_is_bit_identical_for_random_single_edits(
        len in 1usize..(MAX_RES + 1),
        picks in prop::collection::vec(0usize..20, MAX_RES),
        angles in prop::collection::vec(-PI..PI, 2 * MAX_RES),
        edit_frac in 0.0..1.0f64,
        new_angle in -PI..PI,
        frame_params in prop::collection::vec(-1.0..1.0f64, 6),
    ) {
        let builder = LoopBuilder::default();
        let frame = frame_from(&frame_params);
        let seq = sequence_of(len, &picks);
        let t0 = torsions_of(len, &angles);
        let k = ((edit_frac * t0.n_angles() as f64) as usize).min(t0.n_angles() - 1);

        let mut t1 = t0.clone();
        t1.set_angle(k, new_angle);

        // Incremental: reuse the t0 structure, rebuild the suffix from k.
        let mut incremental = builder.build(&frame, &seq, &t0);
        builder.rebuild_from(&frame, &seq, &t1, k, &mut incremental);
        // Reference: full build of the edited vector.
        let full = builder.build(&frame, &seq, &t1);
        prop_assert_eq!(incremental, full);
    }

    #[test]
    fn rebuild_from_is_exact_at_every_angle_index(
        len in 1usize..(MAX_RES + 1),
        picks in prop::collection::vec(0usize..20, MAX_RES),
        angles in prop::collection::vec(-PI..PI, 2 * MAX_RES),
        deltas in prop::collection::vec(-PI..PI, 2 * MAX_RES),
    ) {
        // Sweep every flat index of this loop, editing each in turn.
        let builder = LoopBuilder::default();
        let frame = frame_from(&[0.2, -0.4, 0.6, 0.1, -0.3, 0.5]);
        let seq = sequence_of(len, &picks);
        let t0 = torsions_of(len, &angles);
        #[allow(clippy::needless_range_loop)] // k indexes deltas AND names the edited angle
        for k in 0..t0.n_angles() {
            let mut t1 = t0.clone();
            t1.rotate_angle(k, deltas[k]);
            let mut incremental = builder.build(&frame, &seq, &t0);
            builder.rebuild_from(&frame, &seq, &t1, k, &mut incremental);
            let full = builder.build(&frame, &seq, &t1);
            prop_assert!(incremental == full, "diverged at angle index {k}");
        }
    }

    #[test]
    fn ccd_style_edit_chains_never_drift(
        len in 2usize..(MAX_RES + 1),
        picks in prop::collection::vec(0usize..20, MAX_RES),
        angles in prop::collection::vec(-PI..PI, 2 * MAX_RES),
        deltas in prop::collection::vec(-0.5..0.5f64, 6 * MAX_RES),
    ) {
        // Three ascending sweeps of single-angle rotations, each applied
        // with a suffix-only rebuild into ONE reused buffer — exactly the
        // access pattern of a NeRF-per-rotation CCD sweep.  The buffer
        // must track the from-scratch build bit for bit throughout.
        let builder = LoopBuilder::default();
        let frame = frame_from(&[-0.6, 0.3, -0.1, 0.8, 0.2, -0.7]);
        let seq = sequence_of(len, &picks);
        let mut t = torsions_of(len, &angles);
        let mut s = builder.build(&frame, &seq, &t);
        let mut d = 0usize;
        for _sweep in 0..3 {
            for k in 0..t.n_angles() {
                t.rotate_angle(k, deltas[d]);
                d += 1;
                builder.rebuild_from(&frame, &seq, &t, k, &mut s);
            }
        }
        let full = builder.build(&frame, &seq, &t);
        prop_assert_eq!(&s, &full);
        // And the reused buffer still closes the measurement round-trip.
        let measured = builder.measure_torsions(&frame, &s);
        for k in 0..t.n_angles() {
            prop_assert!((measured.angle(k) - t.angle(k)).abs() < 1e-8);
        }
    }

    #[test]
    fn noop_rebuild_preserves_the_structure(
        len in 1usize..(MAX_RES + 1),
        picks in prop::collection::vec(0usize..20, MAX_RES),
        angles in prop::collection::vec(-PI..PI, 2 * MAX_RES),
    ) {
        // Rebuilding any suffix without changing the torsions must leave
        // the structure bit-identical (the recomputed suffix reproduces the
        // stored one).
        let builder = LoopBuilder::default();
        let frame = frame_from(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let seq = sequence_of(len, &picks);
        let t = torsions_of(len, &angles);
        let reference = builder.build(&frame, &seq, &t);
        let mut s = reference.clone();
        for k in 0..=t.n_angles() {
            builder.rebuild_from(&frame, &seq, &t, k, &mut s);
            prop_assert!(s == reference, "noop rebuild from {k} drifted");
        }
    }
}

#[test]
fn rebuild_from_reuses_the_buffer_without_reallocating() {
    // The suffix rebuild writes via `out.residues[i] = …`, never push, so
    // the buffer pointer must stay put across arbitrarily many rebuilds.
    let builder = LoopBuilder::default();
    let frame = frame_from(&[0.3, 0.3, 0.3, 0.3, 0.3, 0.3]);
    let seq = sequence_of(10, &[3; 13]);
    let mut t = Torsions::from_pairs(&[(deg_to_rad(-63.0), deg_to_rad(-43.0)); 10]);
    let mut s: LoopStructure = builder.build(&frame, &seq, &t);
    let ptr_before = s.residues.as_ptr();
    for k in 0..t.n_angles() {
        t.rotate_angle(k, 0.1);
        builder.rebuild_from(&frame, &seq, &t, k, &mut s);
    }
    assert_eq!(ptr_before, s.residues.as_ptr());
}
