//! Angle utilities: degree/radian conversion, wrapping, and angular
//! distances.
//!
//! Backbone torsion angles live on a circle, so "distance" between two
//! torsions and "mean" of a set of torsions must be computed circularly.
//! The sampler's decoy-distinctness rule (maximum torsion deviation ≥ 30°)
//! and the mutation move set both rely on these helpers.

use std::f64::consts::PI;

/// Convert degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * PI / 180.0
}

/// Convert radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

/// Wrap an angle in radians into the canonical interval `(-π, π]`.
///
/// Inside `(-2π, 2π)` the remainder `angle % 2π` is `angle` itself (IEEE
/// `fmod` is exact), so the common case skips the software `fmod` call
/// and returns the same bits.
#[inline]
pub fn wrap_rad(angle: f64) -> f64 {
    if !angle.is_finite() {
        return angle;
    }
    let two_pi = 2.0 * PI;
    let mut a = if angle.abs() < two_pi {
        angle
    } else {
        rem_two_pi(angle)
    };
    if a <= -PI {
        a += two_pi;
    } else if a > PI {
        a -= two_pi;
    }
    a
}

/// `angle % 2π`, out of line so the `fmod` call stays off the inlined
/// fast path of [`wrap_rad`].
#[cold]
#[inline(never)]
fn rem_two_pi(angle: f64) -> f64 {
    angle % (2.0 * PI)
}

/// Wrap an angle in degrees into the canonical interval `(-180, 180]`.
pub fn wrap_deg(angle: f64) -> f64 {
    if !angle.is_finite() {
        return angle;
    }
    let mut a = angle % 360.0;
    if a <= -180.0 {
        a += 360.0;
    } else if a > 180.0 {
        a -= 360.0;
    }
    a
}

/// Smallest absolute angular difference between two angles in radians,
/// always in `[0, π]`.
#[inline]
pub fn angular_distance_rad(a: f64, b: f64) -> f64 {
    wrap_rad(a - b).abs()
}

/// Smallest absolute angular difference between two angles in degrees,
/// always in `[0, 180]`.
#[inline]
pub fn angular_distance_deg(a: f64, b: f64) -> f64 {
    wrap_deg(a - b).abs()
}

/// Circular mean of a set of angles (radians).  Returns `None` when the
/// slice is empty or the mean direction is undefined (vectors cancel).
pub fn circular_mean_rad(angles: &[f64]) -> Option<f64> {
    if angles.is_empty() {
        return None;
    }
    let (mut s, mut c) = (0.0, 0.0);
    for &a in angles {
        s += a.sin();
        c += a.cos();
    }
    if s.hypot(c) < 1e-12 {
        None
    } else {
        Some(s.atan2(c))
    }
}

/// Circular variance of a set of angles (radians), in `[0, 1]`:
/// 0 means all angles identical, 1 means the angles are maximally dispersed.
pub fn circular_variance_rad(angles: &[f64]) -> f64 {
    if angles.is_empty() {
        return 0.0;
    }
    let (mut s, mut c) = (0.0, 0.0);
    for &a in angles {
        s += a.sin();
        c += a.cos();
    }
    let r = s.hypot(c) / angles.len() as f64;
    1.0 - r
}

/// Maximum angular deviation between two equal-length torsion vectors,
/// returned in **degrees**.  The torsion vectors themselves are given in
/// **radians**, the unit used for torsions everywhere in the suite.  This is
/// the metric behind the paper's 30° decoy-distinctness rule.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_torsion_deviation_deg(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "torsion vectors must have equal length");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| rad_to_deg(angular_distance_rad(x, y)))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn deg_rad_roundtrip() {
        for d in [-720.0, -180.0, -90.0, 0.0, 45.0, 180.0, 359.0, 1234.5] {
            assert!(close(rad_to_deg(deg_to_rad(d)), d));
        }
        assert!(close(deg_to_rad(180.0), PI));
        assert!(close(rad_to_deg(PI / 2.0), 90.0));
    }

    #[test]
    fn wrapping_radians() {
        assert!(close(wrap_rad(0.0), 0.0));
        assert!(close(wrap_rad(PI), PI));
        assert!(close(wrap_rad(-PI), PI));
        assert!(close(wrap_rad(3.0 * PI), PI));
        assert!(close(wrap_rad(2.0 * PI), 0.0));
        assert!(close(wrap_rad(-2.5 * PI), -0.5 * PI));
        assert!(wrap_rad(f64::NAN).is_nan());
    }

    /// `wrap_rad` as it reads without the fast path: `%` on every finite
    /// input.
    fn wrap_rad_fmod(angle: f64) -> f64 {
        if !angle.is_finite() {
            return angle;
        }
        let two_pi = 2.0 * PI;
        let mut a = angle % two_pi;
        if a <= -PI {
            a += two_pi;
        } else if a > PI {
            a -= two_pi;
        }
        a
    }

    fn assert_wrap_matches_fmod(angle: f64) {
        assert_eq!(
            wrap_rad(angle).to_bits(),
            wrap_rad_fmod(angle).to_bits(),
            "wrap_rad({angle:e}) (bits {:#018x})",
            angle.to_bits()
        );
    }

    #[test]
    fn wrap_rad_fast_path_matches_fmod_at_special_values_and_edges() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
        ];
        for a in specials {
            assert_wrap_matches_fmod(a);
        }
        for edge in [PI, 2.0 * PI, 3.0 * PI, 4.0 * PI] {
            for sign in [1.0, -1.0] {
                let mut lo = sign * edge;
                let mut hi = sign * edge;
                for _ in 0..64 {
                    assert_wrap_matches_fmod(lo);
                    assert_wrap_matches_fmod(hi);
                    lo = lo.next_down();
                    hi = hi.next_up();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn wrap_rad_fast_path_matches_fmod_on_any_bits(
            a in any::<u64>().prop_map(f64::from_bits),
        ) {
            prop_assert_eq!(wrap_rad(a).to_bits(), wrap_rad_fmod(a).to_bits());
        }

        #[test]
        fn wrap_rad_fast_path_matches_fmod_on_torsion_range(a in -20.0..20.0f64) {
            prop_assert_eq!(wrap_rad(a).to_bits(), wrap_rad_fmod(a).to_bits());
        }
    }

    #[test]
    fn wrapping_degrees() {
        assert!(close(wrap_deg(0.0), 0.0));
        assert!(close(wrap_deg(180.0), 180.0));
        assert!(close(wrap_deg(-180.0), 180.0));
        assert!(close(wrap_deg(540.0), 180.0));
        assert!(close(wrap_deg(360.0), 0.0));
        assert!(close(wrap_deg(-450.0), -90.0));
    }

    #[test]
    fn wrapped_values_are_in_range() {
        for i in -1000..1000 {
            let a = i as f64 * 0.37;
            let w = wrap_rad(a);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12, "{a} wrapped to {w}");
            let d = i as f64 * 7.3;
            let wd = wrap_deg(d);
            assert!(wd > -180.0 - 1e-9 && wd <= 180.0 + 1e-9);
        }
    }

    #[test]
    fn angular_distances() {
        assert!(close(angular_distance_deg(170.0, -170.0), 20.0));
        assert!(close(angular_distance_deg(-170.0, 170.0), 20.0));
        assert!(close(angular_distance_deg(0.0, 180.0), 180.0));
        assert!(close(angular_distance_deg(10.0, 10.0), 0.0));
        assert!(close(angular_distance_rad(PI - 0.1, -(PI - 0.1)), 0.2));
    }

    #[test]
    fn circular_mean_basic() {
        let m = circular_mean_rad(&[deg_to_rad(170.0), deg_to_rad(-170.0)]).unwrap();
        assert!(close(wrap_deg(rad_to_deg(m)), 180.0));
        let m2 = circular_mean_rad(&[0.1, 0.2, 0.3]).unwrap();
        assert!((m2 - 0.2).abs() < 1e-9);
        assert!(circular_mean_rad(&[]).is_none());
        // Opposite angles cancel: mean undefined.
        assert!(circular_mean_rad(&[0.0, PI]).is_none());
    }

    #[test]
    fn circular_variance_bounds() {
        assert!(close(circular_variance_rad(&[0.5, 0.5, 0.5]), 0.0));
        let v = circular_variance_rad(&[0.0, PI]);
        assert!((v - 1.0).abs() < 1e-9);
        assert!(close(circular_variance_rad(&[]), 0.0));
    }

    #[test]
    fn max_torsion_deviation() {
        let a = [deg_to_rad(10.0), deg_to_rad(170.0), deg_to_rad(-60.0)];
        let b = [deg_to_rad(15.0), deg_to_rad(-175.0), deg_to_rad(-60.0)];
        let d = max_torsion_deviation_deg(&a, &b);
        assert!(close(d, 15.0));
    }

    #[test]
    #[should_panic]
    fn max_torsion_deviation_length_mismatch() {
        let _ = max_torsion_deviation_deg(&[0.0], &[0.0, 1.0]);
    }
}
