//! Three-dimensional Cartesian vectors.
//!
//! [`Vec3`] is the workhorse coordinate type of the whole suite: every
//! backbone atom position, every rotation axis and every centroid is a
//! `Vec3`.  The type is a plain `Copy` struct of three `f64` so that large
//! populations of conformations can be stored contiguously and mapped over
//! in data-parallel kernels without indirection.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-D vector / point in Cartesian space (units: Ångström throughout the
/// suite).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Create a new vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Create a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Build a vector from a `[x, y, z]` array.
    #[inline]
    pub const fn from_array(a: [f64; 3]) -> Self {
        Vec3 {
            x: a[0],
            y: a[1],
            z: a[2],
        }
    }

    /// Return the components as a `[x, y, z]` array.
    #[inline]
    pub const fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm (length).
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sq(self, other: Vec3) -> f64 {
        (self - other).norm_sq()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Return a unit vector pointing in the same direction.
    ///
    /// Returns `None` when the vector is (numerically) zero, because a zero
    /// vector has no direction.
    #[inline]
    pub fn try_normalize(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 1e-12 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Return a unit vector pointing in the same direction.
    ///
    /// # Panics
    /// Panics if the vector norm is smaller than `1e-12`.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        self.try_normalize()
            .expect("cannot normalize a (near-)zero vector")
    }

    /// Whether all components are finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Angle (radians, in `[0, π]`) between this vector and another.
    ///
    /// Returns `0.0` if either vector is (near-)zero.
    pub fn angle_to(self, other: Vec3) -> f64 {
        let denom = self.norm() * other.norm();
        if denom < 1e-12 {
            return 0.0;
        }
        // Clamp to guard against floating-point drift outside [-1, 1].
        (self.dot(other) / denom).clamp(-1.0, 1.0).acos()
    }

    /// Project this vector onto `onto`.  Returns the zero vector when `onto`
    /// is (near-)zero.
    pub fn project_onto(self, onto: Vec3) -> Vec3 {
        let d = onto.norm_sq();
        if d < 1e-24 {
            Vec3::ZERO
        } else {
            onto * (self.dot(onto) / d)
        }
    }

    /// The component of this vector perpendicular to `onto`.
    pub fn reject_from(self, onto: Vec3) -> Vec3 {
        self - self.project_onto(onto)
    }

    /// Centroid (arithmetic mean) of a set of points.
    ///
    /// Returns `Vec3::ZERO` for an empty slice.
    pub fn centroid(points: &[Vec3]) -> Vec3 {
        if points.is_empty() {
            return Vec3::ZERO;
        }
        let sum: Vec3 = points.iter().copied().sum();
        sum / points.len() as f64
    }

    /// Maximum absolute component difference to another vector, useful in
    /// approximate comparisons inside tests.
    pub fn max_abs_diff(self, other: Vec3) -> f64 {
        (self.x - other.x)
            .abs()
            .max((self.y - other.y).abs())
            .max((self.z - other.z).abs())
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |acc, v| acc + v)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v, Vec3::new(2.0, 3.0, 4.0));
        v -= Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
        v *= 2.0;
        assert_eq!(v, Vec3::new(2.0, 4.0, 6.0));
        v /= 2.0;
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::X;
        let b = Vec3::Y;
        assert_close(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::Z);
        assert_eq!(b.cross(a), -Vec3::Z);
        // Cross product is perpendicular to both operands.
        let u = Vec3::new(1.0, 2.0, 3.0);
        let v = Vec3::new(-4.0, 0.3, 2.0);
        let c = u.cross(v);
        assert_close(c.dot(u), 0.0);
        assert_close(c.dot(v), 0.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = Vec3::new(3.0, 4.0, 0.0);
        assert_close(a.norm(), 5.0);
        assert_close(a.norm_sq(), 25.0);
        assert_close(a.distance(Vec3::ZERO), 5.0);
        assert_close(a.distance_sq(Vec3::ZERO), 25.0);
    }

    #[test]
    fn normalization() {
        let a = Vec3::new(0.0, 0.0, 10.0);
        assert_eq!(a.normalized(), Vec3::Z);
        assert!(Vec3::ZERO.try_normalize().is_none());
    }

    #[test]
    #[should_panic]
    fn normalize_zero_panics() {
        let _ = Vec3::ZERO.normalized();
    }

    #[test]
    fn angle_between_vectors() {
        assert_close(Vec3::X.angle_to(Vec3::Y), std::f64::consts::FRAC_PI_2);
        assert_close(Vec3::X.angle_to(Vec3::X), 0.0);
        assert_close(Vec3::X.angle_to(-Vec3::X), std::f64::consts::PI);
        // Zero vector yields zero angle by convention.
        assert_close(Vec3::ZERO.angle_to(Vec3::X), 0.0);
    }

    #[test]
    fn projection_and_rejection() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        let p = v.project_onto(Vec3::X);
        assert_eq!(p, Vec3::new(3.0, 0.0, 0.0));
        let r = v.reject_from(Vec3::X);
        assert_eq!(r, Vec3::new(0.0, 4.0, 0.0));
        // Projection onto zero vector is zero.
        assert_eq!(v.project_onto(Vec3::ZERO), Vec3::ZERO);
    }

    #[test]
    fn centroid_of_points() {
        let pts = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
        ];
        assert_eq!(Vec3::centroid(&pts), Vec3::new(0.5, 0.5, 0.5));
        assert_eq!(Vec3::centroid(&[]), Vec3::ZERO);
    }

    #[test]
    fn array_conversions_roundtrip() {
        let v = Vec3::new(1.5, -2.5, 3.25);
        let a: [f64; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
        assert_eq!(v[0], 1.5);
        assert_eq!(v[1], -2.5);
        assert_eq!(v[2], 3.25);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn min_max_and_finiteness() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, 3.0, -1.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, -1.0));
        assert!(a.is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn sum_iterator() {
        let pts = vec![Vec3::X, Vec3::Y, Vec3::Z];
        let s: Vec3 = pts.into_iter().sum();
        assert_eq!(s, Vec3::new(1.0, 1.0, 1.0));
    }
}
