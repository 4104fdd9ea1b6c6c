//! 3×3 rotation matrices and axis–angle rotations.
//!
//! Loop closure (CCD) and torsion mutation both rotate parts of the backbone
//! about a bond axis.  [`Rotation`] packages a 3×3 orthonormal matrix with a
//! small, explicit API: axis–angle construction (Rodrigues' formula),
//! composition, application to points about an arbitrary pivot, and
//! orthonormality checks used by the property tests.

use crate::vec3::Vec3;

/// A 3×3 matrix stored row-major.  Most users want [`Rotation`]; `Mat3` is
/// exposed for the Kabsch RMSD computation, which needs general matrix
/// arithmetic (covariance matrices are not rotations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 {
        rows: [[0.0; 3]; 3],
    };

    /// Build from three rows.
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { rows: [r0, r1, r2] }
    }

    /// Element access (row, column).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.rows[r][c]
    }

    /// Mutable element access (row, column).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.rows[r][c] = v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.rows;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Matrix–matrix product `self * other`.
    pub fn mul_mat(&self, other: &Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += self.rows[r][k] * other.rows[k][c];
                }
                out.rows[r][c] = s;
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        let m = &self.rows;
        Vec3::new(
            m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
        )
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.rows;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Outer product `a * bᵀ`.
    pub fn outer(a: Vec3, b: Vec3) -> Mat3 {
        Mat3::from_rows(
            [a.x * b.x, a.x * b.y, a.x * b.z],
            [a.y * b.x, a.y * b.y, a.y * b.z],
            [a.z * b.x, a.z * b.y, a.z * b.z],
        )
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.rows[r][c] = self.rows[r][c] + other.rows[r][c];
            }
        }
        out
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f64) -> Mat3 {
        let mut out = *self;
        for r in 0..3 {
            for c in 0..3 {
                out.rows[r][c] *= s;
            }
        }
        out
    }

    /// Frobenius norm of the difference to another matrix.
    pub fn frobenius_distance(&self, other: &Mat3) -> f64 {
        let mut s = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let d = self.rows[r][c] - other.rows[r][c];
                s += d * d;
            }
        }
        s.sqrt()
    }
}

/// A proper rotation (orthonormal matrix with determinant +1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    matrix: Mat3,
}

impl Rotation {
    /// The identity rotation.
    pub const IDENTITY: Rotation = Rotation {
        matrix: Mat3::IDENTITY,
    };

    /// Build a rotation of `angle` radians about the (not necessarily unit)
    /// `axis`, using Rodrigues' rotation formula.
    ///
    /// Returns the identity rotation when the axis is (near-)zero, which is a
    /// safe and convenient convention for degenerate CCD pivots.
    pub fn about_axis(axis: Vec3, angle: f64) -> Rotation {
        let Some(u) = axis.try_normalize() else {
            return Rotation::IDENTITY;
        };
        let (s, c) = angle.sin_cos();
        Rotation::about_unit_axis(u, c, s)
    }

    /// Rodrigues' formula for the rotation about the *unit* axis `u` whose
    /// angle has cosine `c` and sine `s`: [`Rotation::about_axis`] without
    /// the axis normalisation and the trigonometry.  The caller guarantees
    /// `|u| = 1` and `c² + s² = 1` (up to round-off); nothing is checked.
    #[inline]
    pub fn about_unit_axis(u: Vec3, c: f64, s: f64) -> Rotation {
        let t = 1.0 - c;
        let (x, y, z) = (u.x, u.y, u.z);
        let matrix = Mat3::from_rows(
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        );
        Rotation { matrix }
    }

    /// Wrap an existing matrix that is already known to be a proper rotation.
    ///
    /// # Panics
    /// Panics (in debug builds) if the matrix is not orthonormal with
    /// determinant ≈ +1.
    pub fn from_matrix_unchecked(matrix: Mat3) -> Rotation {
        debug_assert!(
            Rotation { matrix }.is_orthonormal(1e-6),
            "matrix is not a proper rotation"
        );
        Rotation { matrix }
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Mat3 {
        &self.matrix
    }

    /// Apply the rotation to a vector (about the origin).
    #[inline]
    pub fn apply(&self, v: Vec3) -> Vec3 {
        self.matrix.mul_vec(v)
    }

    /// Rotate a point about an arbitrary pivot point.
    #[inline]
    pub fn apply_about(&self, point: Vec3, pivot: Vec3) -> Vec3 {
        self.apply(point - pivot) + pivot
    }

    /// Compose rotations: the returned rotation applies `other` first, then
    /// `self`.
    pub fn compose(&self, other: &Rotation) -> Rotation {
        Rotation {
            matrix: self.matrix.mul_mat(&other.matrix),
        }
    }

    /// The inverse rotation (transpose, since the matrix is orthonormal).
    pub fn inverse(&self) -> Rotation {
        Rotation {
            matrix: self.matrix.transpose(),
        }
    }

    /// Check orthonormality and determinant +1 within `tol`.
    pub fn is_orthonormal(&self, tol: f64) -> bool {
        let should_be_identity = self.matrix.mul_mat(&self.matrix.transpose());
        should_be_identity.frobenius_distance(&Mat3::IDENTITY) < tol
            && (self.matrix.det() - 1.0).abs() < tol
    }

    /// The rotation angle in radians, in `[0, π]`.
    pub fn angle(&self) -> f64 {
        let m = &self.matrix.rows;
        let trace = m[0][0] + m[1][1] + m[2][2];
        ((trace - 1.0) / 2.0).clamp(-1.0, 1.0).acos()
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::deg_to_rad;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn vec_close(a: Vec3, b: Vec3) {
        assert!(a.max_abs_diff(b) < 1e-9, "{a} != {b}");
    }

    #[test]
    fn rotation_about_z_quarter_turn() {
        let r = Rotation::about_axis(Vec3::Z, FRAC_PI_2);
        vec_close(r.apply(Vec3::X), Vec3::Y);
        vec_close(r.apply(Vec3::Y), -Vec3::X);
        vec_close(r.apply(Vec3::Z), Vec3::Z);
    }

    #[test]
    fn rotation_about_arbitrary_axis_preserves_axis() {
        let axis = Vec3::new(1.0, 2.0, -0.5);
        let r = Rotation::about_axis(axis, 1.234);
        vec_close(r.apply(axis), axis);
    }

    #[test]
    fn rotation_preserves_lengths_and_angles() {
        let r = Rotation::about_axis(Vec3::new(0.3, -1.2, 0.7), 2.1);
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 1.0);
        assert!((r.apply(a).norm() - a.norm()).abs() < 1e-9);
        assert!((r.apply(a).dot(r.apply(b)) - a.dot(b)).abs() < 1e-9);
    }

    #[test]
    fn zero_axis_gives_identity() {
        let r = Rotation::about_axis(Vec3::ZERO, 1.0);
        assert_eq!(r, Rotation::IDENTITY);
        vec_close(r.apply(Vec3::new(1.0, 2.0, 3.0)), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn inverse_undoes_rotation() {
        let r = Rotation::about_axis(Vec3::new(1.0, 1.0, 1.0), 0.77);
        let p = Vec3::new(3.0, -2.0, 0.5);
        vec_close(r.inverse().apply(r.apply(p)), p);
        let composed = r.inverse().compose(&r);
        assert!(composed.matrix().frobenius_distance(&Mat3::IDENTITY) < 1e-9);
    }

    #[test]
    fn composition_order() {
        let rz = Rotation::about_axis(Vec3::Z, FRAC_PI_2);
        let rx = Rotation::about_axis(Vec3::X, FRAC_PI_2);
        // compose applies the right-hand rotation first.
        let p = Vec3::Y;
        let combined = rx.compose(&rz); // rz first, then rx
        vec_close(combined.apply(p), rx.apply(rz.apply(p)));
    }

    #[test]
    fn rotation_about_pivot() {
        let pivot = Vec3::new(1.0, 0.0, 0.0);
        let r = Rotation::about_axis(Vec3::Z, PI);
        // Point at origin rotated 180 deg about pivot (1,0,0) lands at (2,0,0).
        vec_close(r.apply_about(Vec3::ZERO, pivot), Vec3::new(2.0, 0.0, 0.0));
        // The pivot itself is fixed.
        vec_close(r.apply_about(pivot, pivot), pivot);
    }

    #[test]
    fn angle_extraction() {
        for deg in [0.0, 10.0, 45.0, 90.0, 179.0] {
            let r = Rotation::about_axis(Vec3::new(0.2, 0.5, -1.0), deg_to_rad(deg));
            assert!((r.angle() - deg_to_rad(deg)).abs() < 1e-9, "angle {deg}");
        }
    }

    #[test]
    fn orthonormality_check() {
        let r = Rotation::about_axis(Vec3::new(3.0, -1.0, 2.0), 0.9);
        assert!(r.is_orthonormal(1e-9));
        let bad = Mat3::from_rows([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]);
        assert!(!Rotation { matrix: bad }.is_orthonormal(1e-6));
    }

    #[test]
    fn mat3_determinant_and_transpose() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [5.0, 6.0, 0.0]);
        assert!((m.det() - 1.0).abs() < 1e-12);
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 5.0);
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mat3_outer_product() {
        let o = Mat3::outer(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(o.get(0, 0), 4.0);
        assert_eq!(o.get(1, 2), 12.0);
        assert_eq!(o.get(2, 1), 15.0);
    }

    #[test]
    fn mat3_identity_is_multiplicative_identity() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]);
        assert_eq!(m.mul_mat(&Mat3::IDENTITY), m);
        assert_eq!(Mat3::IDENTITY.mul_mat(&m), m);
        assert_eq!(
            Mat3::IDENTITY.mul_vec(Vec3::new(1.0, 2.0, 3.0)),
            Vec3::new(1.0, 2.0, 3.0)
        );
    }
}
