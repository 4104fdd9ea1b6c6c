//! # lms-geometry
//!
//! Geometry substrate for the loop-modeling suite: 3-D vectors, rotations,
//! internal-coordinate (torsion) geometry, RMSD with and without optimal
//! superposition, and reproducible per-stream random number generation.
//!
//! Everything in the higher-level crates — backbone building, CCD loop
//! closure, the scoring functions and the decoy analysis — is written in
//! terms of these primitives.
//!
//! ## Quick example
//!
//! ```
//! use lms_geometry::{Vec3, Rotation, dihedral_angle, place_atom, deg_to_rad};
//!
//! // Place a fourth atom at a 60 degree dihedral from three known atoms.
//! let a = Vec3::new(0.0, 1.0, 0.0);
//! let b = Vec3::ZERO;
//! let c = Vec3::new(1.5, 0.0, 0.0);
//! let d = place_atom(a, b, c, 1.53, deg_to_rad(111.0), deg_to_rad(60.0));
//! assert!((dihedral_angle(a, b, c, d) - deg_to_rad(60.0)).abs() < 1e-9);
//!
//! // Rotations compose and invert.
//! let r = Rotation::about_axis(Vec3::Z, deg_to_rad(90.0));
//! assert!(r.inverse().apply(r.apply(Vec3::X)).max_abs_diff(Vec3::X) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod angles;
pub mod dihedral;
pub mod rmsd;
pub mod rng;
pub mod rotation;
pub mod vec3;

pub use angles::{
    angular_distance_deg, angular_distance_rad, circular_mean_rad, circular_variance_rad,
    deg_to_rad, max_torsion_deviation_deg, rad_to_deg, wrap_deg, wrap_rad,
};
pub use dihedral::{
    bond_angle, dihedral_angle, place_atom, place_atom_with, InternalCoords, NerfBond,
};
pub use rmsd::{jacobi_eigen_symmetric3, kabsch, rmsd_direct, rmsd_superposed, Superposition};
pub use rng::{random_torsion, wrapped_normal, StreamRngFactory};
pub use rotation::{Mat3, Rotation};
pub use vec3::Vec3;
