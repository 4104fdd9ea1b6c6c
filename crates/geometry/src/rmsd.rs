//! Root-mean-square deviation (RMSD) between atom sets.
//!
//! Two flavours are provided:
//!
//! * [`rmsd_direct`] — RMSD between two coordinate sets *as given*, with no
//!   superposition.  This is what the paper uses for loop decoys: the loop
//!   anchors are fixed in the protein frame, so decoy and native already
//!   share a coordinate system.
//! * [`rmsd_superposed`] / [`kabsch`] — optimal-superposition RMSD via the
//!   Kabsch algorithm, used by the decoy clustering code where two decoys
//!   must be compared independent of a common frame.
//!
//! The Kabsch rotation is computed from the cross-covariance matrix using a
//! cyclic Jacobi eigen-decomposition of the associated symmetric matrix —
//! dependency-free and exact enough (|off-diagonals| < 1e-12) for 3×3
//! problems.

use crate::rotation::{Mat3, Rotation};
use crate::vec3::Vec3;

/// RMSD between two coordinate sets without any superposition.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn rmsd_direct(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len(), "coordinate sets must have equal length");
    assert!(
        !a.is_empty(),
        "cannot compute RMSD of empty coordinate sets"
    );
    let sum_sq: f64 = a.iter().zip(b.iter()).map(|(p, q)| p.distance_sq(*q)).sum();
    (sum_sq / a.len() as f64).sqrt()
}

/// Result of a Kabsch superposition of a mobile set onto a reference set.
#[derive(Debug, Clone, Copy)]
pub struct Superposition {
    /// Optimal rotation to apply to the centred mobile coordinates.
    pub rotation: Rotation,
    /// Centroid of the reference set.
    pub reference_centroid: Vec3,
    /// Centroid of the mobile set.
    pub mobile_centroid: Vec3,
    /// RMSD after optimal superposition.
    pub rmsd: f64,
}

impl Superposition {
    /// Map a point from the mobile frame onto the reference frame using the
    /// fitted transform.
    pub fn transform(&self, p: Vec3) -> Vec3 {
        self.rotation.apply(p - self.mobile_centroid) + self.reference_centroid
    }
}

/// Jacobi eigen-decomposition of a symmetric 3×3 matrix.
///
/// Returns `(eigenvalues, eigenvectors)` where `eigenvectors[i]` is the unit
/// eigenvector for `eigenvalues[i]`, sorted in *descending* eigenvalue order.
#[allow(clippy::needless_range_loop)] // index loops mirror the textbook formulation
pub fn jacobi_eigen_symmetric3(m: &Mat3) -> ([f64; 3], [Vec3; 3]) {
    let mut a = m.rows;
    // v accumulates the rotations; starts as identity.
    let mut v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];

    for _sweep in 0..64 {
        // Sum of squared off-diagonal elements.
        let off = a[0][1] * a[0][1] + a[0][2] * a[0][2] + a[1][2] * a[1][2];
        if off < 1e-24 {
            break;
        }
        for p in 0..2 {
            for q in (p + 1)..3 {
                if a[p][q].abs() < 1e-18 {
                    continue;
                }
                // Compute the Jacobi rotation that annihilates a[p][q].
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Apply rotation to a (both sides).
                let app = a[p][p];
                let aqq = a[q][q];
                let apq = a[p][q];
                a[p][p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                a[q][q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                a[p][q] = 0.0;
                a[q][p] = 0.0;
                for k in 0..3 {
                    if k != p && k != q {
                        let akp = a[k][p];
                        let akq = a[k][q];
                        a[k][p] = c * akp - s * akq;
                        a[p][k] = a[k][p];
                        a[k][q] = s * akp + c * akq;
                        a[q][k] = a[k][q];
                    }
                }
                // Accumulate eigenvectors.
                for k in 0..3 {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut pairs: Vec<(f64, Vec3)> = (0..3)
        .map(|i| (a[i][i], Vec3::new(v[0][i], v[1][i], v[2][i])))
        .collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
    (
        [pairs[0].0, pairs[1].0, pairs[2].0],
        [pairs[0].1, pairs[1].1, pairs[2].1],
    )
}

/// Jacobi eigen-decomposition of a symmetric 4×4 matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with `eigenvectors[i]` the unit
/// eigenvector (as a `[f64; 4]` column) for `eigenvalues[i]`, sorted in
/// descending eigenvalue order.  Used by the quaternion superposition.
#[allow(clippy::needless_range_loop)] // index loops mirror the textbook formulation
fn jacobi_eigen_symmetric4(m: &[[f64; 4]; 4]) -> ([f64; 4], [[f64; 4]; 4]) {
    let mut a = *m;
    let mut v = [[0.0; 4]; 4];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }

    for _sweep in 0..128 {
        let mut off = 0.0;
        for p in 0..4 {
            for q in (p + 1)..4 {
                off += a[p][q] * a[p][q];
            }
        }
        if off < 1e-26 {
            break;
        }
        for p in 0..3 {
            for q in (p + 1)..4 {
                if a[p][q].abs() < 1e-20 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                let app = a[p][p];
                let aqq = a[q][q];
                let apq = a[p][q];
                a[p][p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                a[q][q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                a[p][q] = 0.0;
                a[q][p] = 0.0;
                for k in 0..4 {
                    if k != p && k != q {
                        let akp = a[k][p];
                        let akq = a[k][q];
                        a[k][p] = c * akp - s * akq;
                        a[p][k] = a[k][p];
                        a[k][q] = s * akp + c * akq;
                        a[q][k] = a[k][q];
                    }
                }
                for row in v.iter_mut() {
                    let vkp = row[p];
                    let vkq = row[q];
                    row[p] = c * vkp - s * vkq;
                    row[q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order = [0usize, 1, 2, 3];
    order.sort_by(|&i, &j| a[j][j].partial_cmp(&a[i][i]).unwrap());
    let mut vals = [0.0; 4];
    let mut vecs = [[0.0; 4]; 4];
    for (slot, &i) in order.iter().enumerate() {
        vals[slot] = a[i][i];
        for k in 0..4 {
            vecs[slot][k] = v[k][i];
        }
    }
    (vals, vecs)
}

/// Build a rotation matrix from a unit quaternion `(w, x, y, z)`.
fn rotation_from_quaternion(q: [f64; 4]) -> Mat3 {
    let [w, x, y, z] = q;
    Mat3::from_rows(
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    )
}

/// Compute the optimal (least-squares) superposition of `mobile` onto
/// `reference` using the quaternion (Horn) formulation of the Kabsch
/// problem, which is robust for planar and near-degenerate point sets.
///
/// # Panics
/// Panics if the sets differ in length or contain fewer than 3 points.
#[allow(clippy::needless_range_loop)] // index loops mirror the textbook formulation
pub fn kabsch(reference: &[Vec3], mobile: &[Vec3]) -> Superposition {
    assert_eq!(reference.len(), mobile.len(), "coordinate sets must match");
    assert!(reference.len() >= 3, "Kabsch needs at least 3 points");

    let rc = Vec3::centroid(reference);
    let mc = Vec3::centroid(mobile);

    // Cross-covariance S[i][j] = Σ mobile_i * reference_j over centred coords.
    let mut s = [[0.0f64; 3]; 3];
    for (r, m) in reference.iter().zip(mobile.iter()) {
        let a = *m - mc;
        let b = *r - rc;
        let av = a.to_array();
        let bv = b.to_array();
        for (i, &ai) in av.iter().enumerate() {
            for (j, &bj) in bv.iter().enumerate() {
                s[i][j] += ai * bj;
            }
        }
    }

    // Horn's symmetric 4x4 key matrix; its top eigenvector is the optimal
    // rotation quaternion mapping centred mobile onto centred reference.
    let (sxx, sxy, sxz) = (s[0][0], s[0][1], s[0][2]);
    let (syx, syy, syz) = (s[1][0], s[1][1], s[1][2]);
    let (szx, szy, szz) = (s[2][0], s[2][1], s[2][2]);
    let n = [
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ];
    let (_vals, vecs) = jacobi_eigen_symmetric4(&n);
    let q = vecs[0];
    let qn = (q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]).sqrt();
    let q = [q[0] / qn, q[1] / qn, q[2] / qn, q[3] / qn];
    let r = rotation_from_quaternion(q);

    // A unit quaternion always yields a proper rotation; the guard protects
    // against a fully degenerate (all-zero) covariance only.
    let rotation = if (r.det() - 1.0).abs() < 1e-6 {
        Rotation::from_matrix_unchecked(r)
    } else {
        Rotation::IDENTITY
    };

    // The fitted rotation maps centred mobile coordinates onto centred
    // reference coordinates; measure the residual RMSD.
    let sum_sq: f64 = reference
        .iter()
        .zip(mobile.iter())
        .map(|(rp, mp)| {
            let mapped = rotation.apply(*mp - mc) + rc;
            mapped.distance_sq(*rp)
        })
        .sum();
    let rmsd = (sum_sq / reference.len() as f64).sqrt();

    Superposition {
        rotation,
        reference_centroid: rc,
        mobile_centroid: mc,
        rmsd,
    }
}

/// RMSD after optimal superposition (Kabsch).
pub fn rmsd_superposed(reference: &[Vec3], mobile: &[Vec3]) -> f64 {
    kabsch(reference, mobile).rmsd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::deg_to_rad;

    fn sample_points() -> Vec<Vec3> {
        vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.5, 0.2, -0.3),
            Vec3::new(2.1, 1.7, 0.4),
            Vec3::new(3.3, 2.0, 1.5),
            Vec3::new(4.0, 3.2, 1.1),
            Vec3::new(5.2, 3.3, 2.4),
            Vec3::new(6.0, 4.5, 2.0),
        ]
    }

    #[test]
    fn direct_rmsd_identical_sets_is_zero() {
        let pts = sample_points();
        assert!(rmsd_direct(&pts, &pts) < 1e-12);
    }

    #[test]
    fn direct_rmsd_known_value() {
        let a = [Vec3::ZERO, Vec3::X];
        let b = [Vec3::ZERO, Vec3::new(1.0, 1.0, 0.0)];
        // Deviations: 0 and 1 -> rmsd = sqrt(1/2)
        assert!((rmsd_direct(&a, &b) - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn direct_rmsd_translation_is_detected() {
        let pts = sample_points();
        let shifted: Vec<Vec3> = pts.iter().map(|p| *p + Vec3::new(1.0, 0.0, 0.0)).collect();
        assert!((rmsd_direct(&pts, &shifted) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn direct_rmsd_length_mismatch_panics() {
        let _ = rmsd_direct(&[Vec3::ZERO], &[Vec3::ZERO, Vec3::X]);
    }

    #[test]
    #[should_panic]
    fn direct_rmsd_empty_panics() {
        let _ = rmsd_direct(&[], &[]);
    }

    #[test]
    fn superposed_rmsd_invariant_under_rigid_motion() {
        let pts = sample_points();
        let rot = Rotation::about_axis(Vec3::new(0.3, 1.0, -0.2), deg_to_rad(73.0));
        let moved: Vec<Vec3> = pts
            .iter()
            .map(|p| rot.apply(*p) + Vec3::new(5.0, -3.0, 2.0))
            .collect();
        let r = rmsd_superposed(&pts, &moved);
        assert!(r < 1e-7, "rmsd after superposition was {r}");
    }

    #[test]
    fn superposed_rmsd_leq_direct_rmsd() {
        let pts = sample_points();
        let rot = Rotation::about_axis(Vec3::Z, deg_to_rad(30.0));
        let perturbed: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| rot.apply(*p) + Vec3::new(0.05 * i as f64, -0.03, 0.02))
            .collect();
        let sup = rmsd_superposed(&pts, &perturbed);
        let dir = rmsd_direct(&pts, &perturbed);
        assert!(sup <= dir + 1e-9, "superposed {sup} > direct {dir}");
    }

    #[test]
    fn kabsch_transform_maps_mobile_onto_reference() {
        let pts = sample_points();
        let rot = Rotation::about_axis(Vec3::new(1.0, 2.0, 3.0), 1.1);
        let moved: Vec<Vec3> = pts
            .iter()
            .map(|p| rot.apply(*p) + Vec3::new(-2.0, 7.0, 0.5))
            .collect();
        let sup = kabsch(&pts, &moved);
        for (orig, m) in pts.iter().zip(moved.iter()) {
            assert!(sup.transform(*m).max_abs_diff(*orig) < 1e-6);
        }
    }

    #[test]
    fn kabsch_rotation_is_proper() {
        let pts = sample_points();
        let rot = Rotation::about_axis(Vec3::new(-1.0, 0.4, 0.8), 2.7);
        let moved: Vec<Vec3> = pts.iter().map(|p| rot.apply(*p)).collect();
        let sup = kabsch(&pts, &moved);
        assert!(sup.rotation.is_orthonormal(1e-6));
    }

    #[test]
    fn jacobi_eigen_diagonal_matrix() {
        let m = Mat3::from_rows([3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]);
        let (vals, vecs) = jacobi_eigen_symmetric3(&m);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-12);
        // Largest eigenvector should be +-x.
        assert!(vecs[0].x.abs() > 0.999);
    }

    #[test]
    fn jacobi_eigen_reconstructs_matrix() {
        let m = Mat3::from_rows([4.0, 1.0, -2.0], [1.0, 3.0, 0.5], [-2.0, 0.5, 5.0]);
        let (vals, vecs) = jacobi_eigen_symmetric3(&m);
        // Reconstruct sum lambda_i v_i v_i^T and compare.
        let mut rec = Mat3::ZERO;
        for i in 0..3 {
            rec = rec.add(&Mat3::outer(vecs[i], vecs[i]).scale(vals[i]));
        }
        assert!(rec.frobenius_distance(&m) < 1e-9);
        // Eigenvectors orthonormal.
        for i in 0..3 {
            assert!((vecs[i].norm() - 1.0).abs() < 1e-9);
            for j in (i + 1)..3 {
                assert!(vecs[i].dot(vecs[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn kabsch_handles_planar_point_sets() {
        // All points in the z = 0 plane (rank-deficient covariance).
        let a = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
        ];
        let rot = Rotation::about_axis(Vec3::Z, deg_to_rad(40.0));
        let b: Vec<Vec3> = a
            .iter()
            .map(|p| rot.apply(*p) + Vec3::new(0.3, 0.1, 0.0))
            .collect();
        let r = rmsd_superposed(&a, &b);
        assert!(r < 1e-6, "planar rmsd {r}");
    }
}
