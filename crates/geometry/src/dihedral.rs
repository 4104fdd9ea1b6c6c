//! Internal-coordinate geometry: bond angles, dihedral (torsion) angles and
//! the NeRF atom-placement rule.
//!
//! Protein backbones in this suite are parameterised by torsion angles with
//! fixed bond lengths and bond angles (exactly as in the paper, which keeps
//! ω at 180° and bond lengths constant).  Converting a torsion-angle vector
//! into Cartesian atom positions therefore needs one primitive: *given three
//! already-placed atoms A–B–C and the internal coordinates (bond length
//! C–D, bond angle B–C–D, dihedral A–B–C–D), place atom D*.  That primitive
//! is [`place_atom`], the Natural Extension Reference Frame (NeRF) rule;
//! [`place_atom_with`] is the same rule with the bond trigonometry hoisted
//! out ([`NerfBond`]) for builders whose bond geometry is fixed.

use crate::vec3::Vec3;

/// Bond angle (radians, in `[0, π]`) at vertex `b` formed by points
/// `a – b – c`.
///
/// Returns `0.0` when either arm is degenerate (zero length).
pub fn bond_angle(a: Vec3, b: Vec3, c: Vec3) -> f64 {
    (a - b).angle_to(c - b)
}

/// Dihedral (torsion) angle (radians, in `(-π, π]`) defined by the four
/// points `a – b – c – d`: the signed angle between the plane (a, b, c) and
/// the plane (b, c, d), measured about the b→c axis using the IUPAC sign
/// convention (cis = 0, trans = π).
///
/// Returns `0.0` when the construction is degenerate (collinear points).
pub fn dihedral_angle(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    // Praxeolitic formulation: project the two outer bonds onto the plane
    // perpendicular to the central bond and take the signed angle between
    // the projections (positive = right-handed rotation about b->c).
    let b0 = a - b;
    let b2 = d - c;
    let b1 = match (c - b).try_normalize() {
        Some(v) => v,
        None => return 0.0,
    };

    let v = b0 - b1 * b0.dot(b1);
    let w = b2 - b1 * b2.dot(b1);
    if v.norm_sq() < 1e-20 || w.norm_sq() < 1e-20 {
        return 0.0;
    }

    let x = v.dot(w);
    let y = b1.cross(v).dot(w);
    y.atan2(x)
}

/// Place a new atom `D` given three previously placed atoms `A`, `B`, `C`
/// and the internal coordinates of `D` relative to them:
///
/// * `bond_length` — distance C–D (Å),
/// * `bond_angle` — angle B–C–D (radians),
/// * `dihedral` — torsion A–B–C–D (radians).
///
/// This is the NeRF (Natural Extension Reference Frame) construction used
/// by essentially all torsion-space protein builders.  The inputs must not
/// be collinear; if they are, the local frame is ill-defined and the
/// function falls back to extending along the B→C direction.
pub fn place_atom(
    a: Vec3,
    b: Vec3,
    c: Vec3,
    bond_length: f64,
    bond_angle: f64,
    dihedral: f64,
) -> Vec3 {
    place_atom_with(
        a,
        b,
        c,
        NerfBond::new(bond_length, bond_angle),
        dihedral.sin_cos(),
    )
}

/// The bond-length/bond-angle part of a NeRF placement with its
/// trigonometry evaluated once: a builder whose bonds are fixed (ideal
/// covalent geometry) keeps one `NerfBond` per bond instead of calling
/// `sin_cos` on a constant angle for every atom it places.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NerfBond {
    /// `bond_length · cos(bond_angle)`.
    pub len_cos: f64,
    /// `bond_length · sin(bond_angle)`.
    pub len_sin: f64,
}

impl NerfBond {
    /// The bond of length `bond_length` (Å) at bond angle `bond_angle`
    /// (radians).
    pub fn new(bond_length: f64, bond_angle: f64) -> Self {
        let (sin_t, cos_t) = bond_angle.sin_cos();
        NerfBond {
            len_cos: bond_length * cos_t,
            len_sin: bond_length * sin_t,
        }
    }
}

/// [`place_atom`] with the bond and the dihedral's `(sin, cos)` supplied
/// precomputed.  Evaluates the same IEEE expressions in the same
/// association as [`place_atom`] (which delegates here), so the two are
/// bit-identical for `bond = NerfBond::new(len, θ)` and
/// `dihedral = φ.sin_cos()`.
#[inline]
pub fn place_atom_with(
    a: Vec3,
    b: Vec3,
    c: Vec3,
    bond: NerfBond,
    (sin_p, cos_p): (f64, f64),
) -> Vec3 {
    // Local frame at C: bc is the x-axis, n is the z-axis.
    let bc = match (c - b).try_normalize() {
        Some(v) => v,
        None => Vec3::X,
    };
    let ab = b - a;
    let n = match ab.cross(bc).try_normalize() {
        Some(v) => v,
        // A, B, C collinear: pick any vector perpendicular to bc.
        None => {
            let fallback = if bc.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
            bc.cross(fallback).normalized()
        }
    };
    let m = n.cross(bc);

    // Position of D in the local frame (standard NeRF formula);
    // `-(l·cos θ)` is bit-equal to `(-l)·cos θ`.
    let d_local = Vec3::new(-bond.len_cos, bond.len_sin * cos_p, bond.len_sin * sin_p);

    // Transform to global coordinates: columns of the frame are (bc, m, n).
    c + bc * d_local.x + m * d_local.y + n * d_local.z
}

/// Convenience record of the internal coordinates of one atom relative to
/// the three atoms placed before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternalCoords {
    /// Bond length to the previous atom (Å).
    pub bond_length: f64,
    /// Bond angle at the previous atom (radians).
    pub bond_angle: f64,
    /// Dihedral about the previous bond (radians).
    pub dihedral: f64,
}

impl InternalCoords {
    /// Construct from explicit values.
    pub fn new(bond_length: f64, bond_angle: f64, dihedral: f64) -> Self {
        InternalCoords {
            bond_length,
            bond_angle,
            dihedral,
        }
    }

    /// Measure the internal coordinates of point `d` with respect to the
    /// chain `a – b – c`.
    pub fn measure(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Self {
        InternalCoords {
            bond_length: c.distance(d),
            bond_angle: bond_angle(b, c, d),
            dihedral: dihedral_angle(a, b, c, d),
        }
    }

    /// Rebuild the Cartesian position from these internal coordinates and
    /// the three reference atoms.
    pub fn rebuild(&self, a: Vec3, b: Vec3, c: Vec3) -> Vec3 {
        place_atom(a, b, c, self.bond_length, self.bond_angle, self.dihedral)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::{deg_to_rad, rad_to_deg, wrap_rad};
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-8
    }

    #[test]
    fn bond_angle_right_angle() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::ZERO;
        let c = Vec3::new(0.0, 1.0, 0.0);
        assert!(close(bond_angle(a, b, c), PI / 2.0));
    }

    #[test]
    fn bond_angle_straight_line() {
        let a = Vec3::new(-1.0, 0.0, 0.0);
        let b = Vec3::ZERO;
        let c = Vec3::new(2.0, 0.0, 0.0);
        assert!(close(bond_angle(a, b, c), PI));
    }

    #[test]
    fn dihedral_of_planar_trans_configuration() {
        // Four points in a zig-zag within the xy plane: trans (180 deg).
        let a = Vec3::new(0.0, 1.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.0);
        let c = Vec3::new(1.0, 0.0, 0.0);
        let d = Vec3::new(1.0, -1.0, 0.0);
        assert!(close(dihedral_angle(a, b, c, d).abs(), PI));
    }

    #[test]
    fn dihedral_of_planar_cis_configuration() {
        let a = Vec3::new(0.0, 1.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.0);
        let c = Vec3::new(1.0, 0.0, 0.0);
        let d = Vec3::new(1.0, 1.0, 0.0);
        assert!(close(dihedral_angle(a, b, c, d), 0.0));
    }

    #[test]
    fn dihedral_sign_convention() {
        let a = Vec3::new(0.0, 1.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.0);
        let c = Vec3::new(1.0, 0.0, 0.0);
        // D rotated +90 deg about the b->c (x) axis from the cis position.
        let d_plus = Vec3::new(1.0, 0.0, 1.0);
        let d_minus = Vec3::new(1.0, 0.0, -1.0);
        let plus = dihedral_angle(a, b, c, d_plus);
        let minus = dihedral_angle(a, b, c, d_minus);
        assert!(close(plus, PI / 2.0), "got {}", rad_to_deg(plus));
        assert!(close(minus, -PI / 2.0), "got {}", rad_to_deg(minus));
    }

    #[test]
    fn degenerate_dihedral_returns_zero() {
        let p = Vec3::new(1.0, 1.0, 1.0);
        assert!(close(dihedral_angle(p, p, p, p), 0.0));
        // Collinear chain.
        let a = Vec3::ZERO;
        let b = Vec3::X;
        let c = Vec3::X * 2.0;
        let d = Vec3::X * 3.0;
        assert!(close(dihedral_angle(a, b, c, d), 0.0));
    }

    #[test]
    fn place_atom_reproduces_requested_internals() {
        let a = Vec3::new(0.1, -0.3, 0.2);
        let b = Vec3::new(1.4, 0.2, -0.1);
        let c = Vec3::new(2.1, 1.3, 0.4);
        for &(len, ang_deg, dih_deg) in &[
            (1.53, 110.0, 60.0),
            (1.33, 121.0, 180.0),
            (1.46, 114.0, -73.5),
            (2.0, 90.0, 0.0),
            (1.0, 45.0, -179.0),
        ] {
            let d = place_atom(a, b, c, len, deg_to_rad(ang_deg), deg_to_rad(dih_deg));
            assert!(
                close(c.distance(d), len),
                "bond length for {ang_deg}/{dih_deg}"
            );
            assert!(
                close(rad_to_deg(bond_angle(b, c, d)), ang_deg),
                "bond angle: got {}",
                rad_to_deg(bond_angle(b, c, d))
            );
            let measured = rad_to_deg(dihedral_angle(a, b, c, d));
            let diff = rad_to_deg(wrap_rad(deg_to_rad(measured - dih_deg))).abs();
            assert!(diff < 1e-6, "dihedral: requested {dih_deg}, got {measured}");
        }
    }

    #[test]
    fn place_atom_collinear_reference_does_not_panic() {
        let a = Vec3::ZERO;
        let b = Vec3::X;
        let c = Vec3::X * 2.0;
        let d = place_atom(a, b, c, 1.5, deg_to_rad(109.5), deg_to_rad(45.0));
        assert!(d.is_finite());
        assert!(close(c.distance(d), 1.5));
    }

    #[test]
    fn internal_coords_measure_rebuild_roundtrip() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.5, 0.0, 0.0);
        let c = Vec3::new(2.0, 1.4, 0.0);
        let d = Vec3::new(2.9, 1.8, 1.1);
        let ic = InternalCoords::measure(a, b, c, d);
        let rebuilt = ic.rebuild(a, b, c);
        assert!(rebuilt.max_abs_diff(d) < 1e-9);
    }
}
