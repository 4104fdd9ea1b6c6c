//! # lms-closure
//!
//! Cyclic Coordinate Descent (CCD) loop closure for torsion-space loop
//! models (Canutescu & Dunbrack, 2003).  Given a loop whose torsions were
//! just mutated, [`CcdCloser`] sweeps over the rotatable torsions and
//! analytically minimises the distance between the loop's moving end frame
//! and the fixed C-terminal anchor until the loop closure condition is met.
//!
//! ## Quick example
//!
//! ```
//! use lms_closure::{CcdBatchScratch, CcdCloser, CcdConfig, CcdLane};
//! use lms_protein::{BenchmarkLibrary, LoopStructure};
//! use lms_geometry::deg_to_rad;
//!
//! let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
//! // Perturb one native torsion, breaking closure.
//! let mut torsions = target.native_torsions.clone();
//! torsions.rotate_angle(5, deg_to_rad(35.0));
//! // CCD repairs the break from the mutated torsion on: the lane names the
//! // first torsion it may adjust and the buffer the closed loop is built in.
//! let closer = CcdCloser::with_config(CcdConfig::default());
//! let mut structure = LoopStructure::with_capacity(target.n_residues());
//! let lane = CcdLane {
//!     torsions: &mut torsions,
//!     structure: &mut structure,
//!     start_index: 5,
//! };
//! let mut scratch = CcdBatchScratch::new();
//! let result = closer.close_lane(&target.frame, &target.sequence, lane, &mut scratch);
//! assert!(result.converged);
//! assert_eq!(torsions.angle(4), target.native_torsions.angle(4));
//! assert!(target.closure_deviation(&structure) <= CcdConfig::default().tolerance);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod ccd;

pub use batch::{optimal_rotation_batch, CcdBatchScratch, CcdLane};
pub use ccd::{CcdCloser, CcdConfig, CcdResult};
