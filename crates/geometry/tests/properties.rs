//! Property-based tests for the geometry substrate.

use lms_geometry::{
    angular_distance_deg, deg_to_rad, dihedral_angle, kabsch, place_atom, place_atom_with,
    rmsd_direct, rmsd_superposed, wrap_deg, wrap_rad, InternalCoords, NerfBond, Rotation, Vec3,
};
use proptest::prelude::*;
use std::f64::consts::PI;

fn finite_coord() -> impl Strategy<Value = f64> {
    -50.0..50.0f64
}

fn arb_vec3() -> impl Strategy<Value = Vec3> {
    (finite_coord(), finite_coord(), finite_coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_angle() -> impl Strategy<Value = f64> {
    (-10.0 * PI..10.0 * PI).prop_map(|a| a)
}

fn arb_points(n: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(arb_vec3(), n)
}

/// The NeRF placement as written before its trigonometry was hoisted into
/// [`NerfBond`]: every call evaluates `sin_cos` of both the bond angle and
/// the dihedral.  Oracle for `place_atom_with`'s bit-identity.
fn place_atom_unhoisted(
    a: Vec3,
    b: Vec3,
    c: Vec3,
    bond_length: f64,
    bond_angle: f64,
    dihedral: f64,
) -> Vec3 {
    let bc = match (c - b).try_normalize() {
        Some(v) => v,
        None => Vec3::X,
    };
    let ab = b - a;
    let n = match ab.cross(bc).try_normalize() {
        Some(v) => v,
        None => {
            let fallback = if bc.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
            bc.cross(fallback).normalized()
        }
    };
    let m = n.cross(bc);
    let (sin_t, cos_t) = bond_angle.sin_cos();
    let (sin_p, cos_p) = dihedral.sin_cos();
    let d_local = Vec3::new(
        -bond_length * cos_t,
        bond_length * sin_t * cos_p,
        bond_length * sin_t * sin_p,
    );
    c + bc * d_local.x + m * d_local.y + n * d_local.z
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wrap_rad_is_idempotent(a in arb_angle()) {
        let w = wrap_rad(a);
        prop_assert!((wrap_rad(w) - w).abs() < 1e-12);
        prop_assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
    }

    #[test]
    fn wrap_deg_preserves_direction(a in -3600.0..3600.0f64) {
        let w = wrap_deg(a);
        // sin/cos of wrapped and unwrapped angle must agree.
        prop_assert!((deg_to_rad(a).sin() - deg_to_rad(w).sin()).abs() < 1e-9);
        prop_assert!((deg_to_rad(a).cos() - deg_to_rad(w).cos()).abs() < 1e-9);
    }

    #[test]
    fn angular_distance_symmetric_and_bounded(a in -3600.0..3600.0f64, b in -3600.0..3600.0f64) {
        let d1 = angular_distance_deg(a, b);
        let d2 = angular_distance_deg(b, a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((0.0..=180.0 + 1e-9).contains(&d1));
    }

    #[test]
    fn cross_product_is_perpendicular(a in arb_vec3(), b in arb_vec3()) {
        let c = a.cross(b);
        prop_assert!(c.dot(a).abs() < 1e-6 * (1.0 + a.norm() * b.norm() * c.norm()));
        prop_assert!(c.dot(b).abs() < 1e-6 * (1.0 + a.norm() * b.norm() * c.norm()));
    }

    #[test]
    fn rotation_preserves_norm(axis in arb_vec3(), angle in arb_angle(), p in arb_vec3()) {
        let r = Rotation::about_axis(axis, angle);
        prop_assert!((r.apply(p).norm() - p.norm()).abs() < 1e-8 * (1.0 + p.norm()));
    }

    #[test]
    fn rotation_inverse_roundtrip(axis in arb_vec3(), angle in arb_angle(), p in arb_vec3()) {
        let r = Rotation::about_axis(axis, angle);
        let back = r.inverse().apply(r.apply(p));
        prop_assert!(back.max_abs_diff(p) < 1e-7 * (1.0 + p.norm()));
    }

    #[test]
    fn rotations_are_orthonormal(axis in arb_vec3(), angle in arb_angle()) {
        let r = Rotation::about_axis(axis, angle);
        prop_assert!(r.is_orthonormal(1e-8));
    }

    #[test]
    fn unit_axis_rodrigues_matches_the_angle_form(
        polar in 0.0..PI,
        azimuth in -PI..PI,
        delta in -PI..PI,
    ) {
        let u = Vec3::new(polar.sin() * azimuth.cos(), polar.sin() * azimuth.sin(), polar.cos());
        let (s, c) = delta.sin_cos();
        let direct = Rotation::about_unit_axis(u, c, s);
        let via_angle = Rotation::about_axis(u, delta);
        for r in 0..3 {
            for col in 0..3 {
                let gap = (direct.matrix().get(r, col) - via_angle.matrix().get(r, col)).abs();
                prop_assert!(gap < 1e-15, "element ({}, {}) differs by {:e}", r, col, gap);
            }
        }
    }

    #[test]
    fn place_atom_respects_internal_coords(
        a in arb_vec3(),
        dir in arb_vec3(),
        dir2 in arb_vec3(),
        len in 0.8..3.0f64,
        ang in 0.2..3.0f64,
        dih in -PI..PI,
    ) {
        // Build a non-degenerate reference chain from the random inputs.
        let b = a + dir.try_normalize().unwrap_or(Vec3::X) * 1.5;
        let perp = dir2.reject_from(b - a);
        prop_assume!(perp.norm() > 1e-3);
        let c = b + (perp.normalized() + (b - a).normalized() * 0.3).normalized() * 1.4;

        let d = place_atom(a, b, c, len, ang, dih);
        prop_assert!(d.is_finite());
        prop_assert!((c.distance(d) - len).abs() < 1e-7);
        let ic = InternalCoords::measure(a, b, c, d);
        prop_assert!((ic.bond_angle - ang).abs() < 1e-6);
        let ddiff = wrap_rad(ic.dihedral - dih).abs();
        prop_assert!(ddiff < 1e-6, "dihedral mismatch: {} vs {}", ic.dihedral, dih);
    }

    #[test]
    fn hoisted_nerf_is_bit_identical_to_the_unhoisted_formula(
        a in arb_vec3(),
        b in arb_vec3(),
        c in arb_vec3(),
        len in 0.5..3.0f64,
        ang in 0.0..PI,
        dih in arb_angle(),
        mode in 0usize..2,
    ) {
        // Random chains, plus collinear ones (up to rounding) that can
        // take the fallback frame.
        let c = if mode == 1 { b + (b - a) * 0.7 } else { c };
        let expected = place_atom_unhoisted(a, b, c, len, ang, dih);
        let hoisted = place_atom_with(a, b, c, NerfBond::new(len, ang), dih.sin_cos());
        let plain = place_atom(a, b, c, len, ang, dih);
        for (got, want) in [(hoisted, expected), (plain, expected)] {
            prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
            prop_assert_eq!(got.y.to_bits(), want.y.to_bits());
            prop_assert_eq!(got.z.to_bits(), want.z.to_bits());
        }
    }

    #[test]
    fn dihedral_is_antisymmetric_under_reversal(
        a in arb_vec3(), b in arb_vec3(), c in arb_vec3(), d in arb_vec3()
    ) {
        prop_assume!((b - a).norm() > 0.1 && (c - b).norm() > 0.1 && (d - c).norm() > 0.1);
        prop_assume!((b - a).cross(c - b).norm() > 0.1);
        prop_assume!((c - b).cross(d - c).norm() > 0.1);
        let fwd = dihedral_angle(a, b, c, d);
        let rev = dihedral_angle(d, c, b, a);
        // Reversing the chain preserves the torsion value.
        prop_assert!(wrap_rad(fwd - rev).abs() < 1e-7, "fwd={fwd} rev={rev}");
    }

    #[test]
    fn rmsd_superposed_invariant_under_rigid_motion(
        pts in arb_points(8),
        axis in arb_vec3(),
        angle in arb_angle(),
        shift in arb_vec3(),
    ) {
        // Require a reasonably non-degenerate point cloud.
        let centroid = Vec3::centroid(&pts);
        let spread: f64 = pts.iter().map(|p| p.distance_sq(centroid)).sum::<f64>();
        prop_assume!(spread > 1.0);
        let r = Rotation::about_axis(axis, angle);
        let moved: Vec<Vec3> = pts.iter().map(|p| r.apply(*p) + shift).collect();
        let rmsd = rmsd_superposed(&pts, &moved);
        prop_assert!(rmsd < 1e-5, "rmsd {rmsd} not ~0 after rigid motion");
    }

    #[test]
    fn superposed_never_exceeds_direct(pts in arb_points(6), noise in arb_points(6)) {
        let perturbed: Vec<Vec3> = pts.iter().zip(noise.iter())
            .map(|(p, n)| *p + *n * 0.01)
            .collect();
        let sup = rmsd_superposed(&pts, &perturbed);
        let dir = rmsd_direct(&pts, &perturbed);
        prop_assert!(sup <= dir + 1e-6);
    }

    #[test]
    fn kabsch_rotation_always_proper(pts in arb_points(5), other in arb_points(5)) {
        let sup = kabsch(&pts, &other);
        prop_assert!(sup.rotation.is_orthonormal(1e-5));
    }
}
