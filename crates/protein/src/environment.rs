//! The fixed protein environment surrounding a loop.
//!
//! The VDW soft-sphere scoring function estimates clashes both *within* the
//! loop and *between* the loop and "the residues in the rest of the
//! protein" (the paper's wording).  [`Environment`] holds that fixed atom
//! set together with a uniform spatial hash grid for one-off neighbourhood
//! queries; [`EnvCandidates`] is the per-target snapshot the scoring hot
//! path actually consumes — flat SoA coordinate arrays plus a CSR cell
//! list (see its docs for the layout), built once per target so
//! per-evaluation queries touch no `HashMap` and allocate nothing.

use lms_geometry::Vec3;
use std::collections::HashMap;

/// One fixed atom of the protein environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvAtom {
    /// Position in the protein frame (Å).
    pub position: Vec3,
    /// Soft-sphere radius (Å).
    pub radius: f64,
    /// Whether this is a side-chain centroid pseudo-atom (as opposed to a
    /// backbone heavy atom); the VDW function treats centroid contacts with
    /// a softer weight.
    pub is_centroid: bool,
}

impl EnvAtom {
    /// A backbone heavy atom with the given radius.
    pub fn backbone(position: Vec3, radius: f64) -> Self {
        EnvAtom {
            position,
            radius,
            is_centroid: false,
        }
    }

    /// A side-chain centroid pseudo-atom with the given radius.
    pub fn centroid(position: Vec3, radius: f64) -> Self {
        EnvAtom {
            position,
            radius,
            is_centroid: true,
        }
    }
}

/// Uniform spatial hash grid over environment atoms.
#[derive(Debug, Clone)]
struct SpatialGrid {
    cell_size: f64,
    cells: HashMap<(i32, i32, i32), Vec<u32>>,
}

impl SpatialGrid {
    fn build(atoms: &[EnvAtom], cell_size: f64) -> Self {
        let mut cells: HashMap<(i32, i32, i32), Vec<u32>> = HashMap::new();
        for (i, a) in atoms.iter().enumerate() {
            cells
                .entry(Self::key(a.position, cell_size))
                .or_default()
                .push(i as u32);
        }
        SpatialGrid { cell_size, cells }
    }

    fn key(p: Vec3, cell: f64) -> (i32, i32, i32) {
        (
            (p.x / cell).floor() as i32,
            (p.y / cell).floor() as i32,
            (p.z / cell).floor() as i32,
        )
    }

    /// Indices of atoms in all cells overlapping a sphere of `radius`
    /// around `p` (conservative superset of the true neighbours).
    fn candidate_indices(&self, p: Vec3, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let span = (radius / self.cell_size).ceil() as i32;
        let (cx, cy, cz) = Self::key(p, self.cell_size);
        for dx in -span..=span {
            for dy in -span..=span {
                for dz in -span..=span {
                    if let Some(v) = self.cells.get(&(cx + dx, cy + dy, cz + dz)) {
                        out.extend_from_slice(v);
                    }
                }
            }
        }
    }
}

/// The fixed protein environment around a loop: an atom list plus a spatial
/// index for fast neighbourhood queries.
#[derive(Debug, Clone)]
pub struct Environment {
    atoms: Vec<EnvAtom>,
    grid: SpatialGrid,
}

/// A precomputed, flat structure-of-arrays snapshot of the environment atoms
/// that can ever interact with a loop region, plus a flat cell list over
/// them for O(local density) per-site queries.
///
/// Scoring functions historically walked these parallel arrays linearly per
/// loop site, which degrades toward O(total protein atoms) per evaluation on
/// full-size environments: the candidate reach bound covers the *whole*
/// loop, so on a real protein the candidate set is large even though each
/// individual site only ever contacts a handful of atoms.  The cell list
/// restores locality without giving up the flat-array, allocation-free
/// evaluation discipline.
///
/// ## Cell-list layout (CSR, no hashing on the hot path)
///
/// Candidates are binned once — at construction, i.e. once per target — into
/// a uniform grid of [`DEFAULT_CELL_SIZE`] cubes covering their bounding
/// box.  The grid is stored structure-of-arrays, CSR-style:
///
/// * `cell_starts[c]..cell_starts[c + 1]` is the slice of `cell_atoms`
///   holding the candidate indices that fall in flat cell `c`
///   (x-major: `c = (cz * ny + cy) * nx + cx`);
/// * `cell_atoms` is a permutation of `0..len()` grouped by cell via a
///   counting sort, **ascending within each cell** so queries can restore
///   global index order cheaply.
///
/// [`EnvCandidates::gather_within`] visits only the cells overlapping a
/// query sphere's bounding box and appends their candidate indices to a
/// caller-owned buffer — a conservative superset of the true neighbours, so
/// kernels that apply their own distance cutoff produce results identical
/// to the linear scan (the scoring crate property-tests this equivalence).
#[derive(Debug, Clone, Default)]
pub struct EnvCandidates {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    radii: Vec<f64>,
    centroid: Vec<bool>,
    /// Largest candidate soft-sphere radius (0 when empty); callers use it
    /// to bound per-site query radii.
    max_radius: f64,
    /// Minimum corner of the candidate bounding box (grid origin).
    origin: Vec3,
    /// Grid dimensions (cells per axis).
    nx: usize,
    ny: usize,
    nz: usize,
    /// CSR row offsets: `cell_starts.len() == nx * ny * nz + 1`.
    cell_starts: Vec<u32>,
    /// Candidate indices grouped by cell, ascending within each cell.
    cell_atoms: Vec<u32>,
}

impl EnvCandidates {
    /// Number of candidate atoms.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no environment atom is in reach of the loop region.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Candidate x coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Candidate y coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Candidate z coordinates.
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// Candidate soft-sphere radii.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Per-candidate centroid flags (`true` = side-chain centroid
    /// pseudo-atom, `false` = backbone heavy atom).
    pub fn centroid_flags(&self) -> &[bool] {
        &self.centroid
    }

    /// Largest candidate soft-sphere radius (0 for an empty set); bounds the
    /// query radius any contact kernel needs per site.
    pub fn max_radius(&self) -> f64 {
        self.max_radius
    }

    /// Bin the candidates into the CSR cell list.  Called once at
    /// construction; O(len) via a counting sort that keeps indices
    /// ascending within each cell.
    fn build_cells(&mut self) {
        let n = self.len();
        self.max_radius = self.radii.iter().fold(0.0f64, |m, &r| m.max(r));
        if n == 0 {
            self.origin = Vec3::ZERO;
            self.nx = 0;
            self.ny = 0;
            self.nz = 0;
            self.cell_starts = vec![0];
            self.cell_atoms.clear();
            return;
        }
        let fold =
            |init: f64, vs: &[f64], f: fn(f64, f64) -> f64| vs.iter().fold(init, |m, &v| f(m, v));
        let min = Vec3::new(
            fold(f64::INFINITY, &self.xs, f64::min),
            fold(f64::INFINITY, &self.ys, f64::min),
            fold(f64::INFINITY, &self.zs, f64::min),
        );
        let max = Vec3::new(
            fold(f64::NEG_INFINITY, &self.xs, f64::max),
            fold(f64::NEG_INFINITY, &self.ys, f64::max),
            fold(f64::NEG_INFINITY, &self.zs, f64::max),
        );
        self.origin = min;
        let cells_along = |lo: f64, hi: f64| ((hi - lo) / DEFAULT_CELL_SIZE).floor() as usize + 1;
        self.nx = cells_along(min.x, max.x);
        self.ny = cells_along(min.y, max.y);
        self.nz = cells_along(min.z, max.z);

        // Counting sort into CSR: count per cell, prefix-sum, then place the
        // atoms in index order so each cell's slice stays ascending.
        let n_cells = self.nx * self.ny * self.nz;
        let mut counts = vec![0u32; n_cells + 1];
        let flat: Vec<usize> = (0..n)
            .map(|i| self.flat_cell_of(Vec3::new(self.xs[i], self.ys[i], self.zs[i])))
            .collect();
        for &c in &flat {
            counts[c + 1] += 1;
        }
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        self.cell_starts = counts.clone();
        self.cell_atoms = vec![0u32; n];
        let mut cursor = counts;
        for (i, &c) in flat.iter().enumerate() {
            self.cell_atoms[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
    }

    /// Flat cell index of a position (which must lie inside the bounding
    /// box used to build the grid).
    #[inline]
    fn flat_cell_of(&self, p: Vec3) -> usize {
        let inv = 1.0 / DEFAULT_CELL_SIZE;
        let cx = (((p.x - self.origin.x) * inv) as usize).min(self.nx - 1);
        let cy = (((p.y - self.origin.y) * inv) as usize).min(self.ny - 1);
        let cz = (((p.z - self.origin.z) * inv) as usize).min(self.nz - 1);
        (cz * self.ny + cy) * self.nx + cx
    }

    /// Append to `out` the indices of every candidate in a cell overlapping
    /// the axis-aligned bounding box of the sphere `(p, radius)` — a
    /// conservative superset of the candidates whose centres lie within
    /// `radius` of `p`.  Indices are ascending within each visited cell but
    /// not globally; callers needing a deterministic global order (e.g. for
    /// bit-stable floating-point accumulation) sort the buffer afterwards.
    ///
    /// `out` is *not* cleared: steady-state callers own the buffer and
    /// `clear()` it themselves, so the query allocates nothing once the
    /// buffer's capacity covers the local density high-water mark
    /// (`len()` is always a sufficient capacity).
    ///
    /// Returns the number of indices appended, so a caller that shares one
    /// gather between several consumers (e.g. the VDW environment sum and
    /// the BURIAL contact counts) knows which slice of `out` this query
    /// produced.
    pub fn gather_within(&self, p: Vec3, radius: f64, out: &mut Vec<u32>) -> usize {
        let before = out.len();
        if self.cell_atoms.is_empty() {
            return 0;
        }
        let inv = 1.0 / DEFAULT_CELL_SIZE;
        // Per-axis inclusive cell ranges of the bbox, intersected with the
        // grid; an empty intersection on any axis means no candidates.
        let axis_range = |lo: f64, n: usize, coord: f64| -> Option<(usize, usize)> {
            let a = ((coord - radius - lo) * inv).floor() as i64;
            let b = ((coord + radius - lo) * inv).floor() as i64;
            let a = a.max(0);
            let b = b.min(n as i64 - 1);
            if a > b {
                None
            } else {
                Some((a as usize, b as usize))
            }
        };
        let Some((x0, x1)) = axis_range(self.origin.x, self.nx, p.x) else {
            return 0;
        };
        let Some((y0, y1)) = axis_range(self.origin.y, self.ny, p.y) else {
            return 0;
        };
        let Some((z0, z1)) = axis_range(self.origin.z, self.nz, p.z) else {
            return 0;
        };
        for cz in z0..=z1 {
            for cy in y0..=y1 {
                let row = (cz * self.ny + cy) * self.nx;
                let start = self.cell_starts[row + x0] as usize;
                let end = self.cell_starts[row + x1 + 1] as usize;
                // Cells are contiguous along x, so one slice covers the
                // whole x-run of this (y, z) row.
                out.extend_from_slice(&self.cell_atoms[start..end]);
            }
        }
        out.len() - before
    }

    /// Count how many of the candidate `indices` have their centre within
    /// `radius` of `p` — the exact-distance filter a contact-number consumer
    /// applies to a (conservative) [`EnvCandidates::gather_within`] result.
    /// Because the count is an integer, any superset of the true neighbours
    /// yields the identical value, so a gather performed at a larger radius
    /// for another consumer can be shared without error.
    pub fn count_within(&self, p: Vec3, radius: f64, indices: &[u32]) -> u32 {
        let r2 = radius * radius;
        let mut n = 0u32;
        for &i in indices {
            let i = i as usize;
            let dx = p.x - self.xs[i];
            let dy = p.y - self.ys[i];
            let dz = p.z - self.zs[i];
            if dx * dx + dy * dy + dz * dz <= r2 {
                n += 1;
            }
        }
        n
    }

    /// Exhaustive linear-scan count of the candidates whose centre lies
    /// within `radius` of `p` — the reference implementation any cell-list
    /// path must match exactly.
    pub fn count_within_linear(&self, p: Vec3, radius: f64) -> u32 {
        let r2 = radius * radius;
        let mut n = 0u32;
        for i in 0..self.len() {
            let dx = p.x - self.xs[i];
            let dy = p.y - self.ys[i];
            let dz = p.z - self.zs[i];
            if dx * dx + dy * dy + dz * dz <= r2 {
                n += 1;
            }
        }
        n
    }
}

/// Default grid cell size (Å).  Chosen near the typical clash cutoff so a
/// query touches at most 27 cells.
pub const DEFAULT_CELL_SIZE: f64 = 4.0;

impl Environment {
    /// Build an environment (and its spatial index) from an atom list.
    pub fn new(atoms: Vec<EnvAtom>) -> Self {
        let grid = SpatialGrid::build(&atoms, DEFAULT_CELL_SIZE);
        Environment { atoms, grid }
    }

    /// An environment with no atoms (loops on an isolated peptide).
    pub fn empty() -> Self {
        Environment::new(Vec::new())
    }

    /// Number of environment atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the environment has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All atoms.
    pub fn atoms(&self) -> &[EnvAtom] {
        &self.atoms
    }

    /// Visit every environment atom whose *centre* lies within `radius` of
    /// `p`.
    pub fn for_each_within<F: FnMut(&EnvAtom)>(&self, p: Vec3, radius: f64, mut f: F) {
        let mut scratch = Vec::with_capacity(32);
        self.grid.candidate_indices(p, radius, &mut scratch);
        let r2 = radius * radius;
        for &i in &scratch {
            let a = &self.atoms[i as usize];
            if a.position.distance_sq(p) <= r2 {
                f(a);
            }
        }
    }

    /// Collect the environment atoms within `radius` of `p`.
    pub fn neighbors_within(&self, p: Vec3, radius: f64) -> Vec<EnvAtom> {
        let mut out = Vec::new();
        self.for_each_within(p, radius, |a| out.push(*a));
        out
    }

    /// Number of environment atoms within `radius` of `p`; a cheap measure
    /// of how buried a position is.
    pub fn burial_count(&self, p: Vec3, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(p, radius, |_| n += 1);
        n
    }

    /// Collect a flat SoA candidate set of every atom whose centre lies
    /// within `radius` of `center`, together with its CSR cell list.
    /// Computed once per loop target (the caller passes a conservative reach
    /// bound); the scoring kernels then query the cell list per site (or
    /// scan the arrays linearly) with no per-evaluation allocation.
    pub fn candidates_within(&self, center: Vec3, radius: f64) -> EnvCandidates {
        let mut out = EnvCandidates::default();
        let r2 = radius * radius;
        for a in &self.atoms {
            if a.position.distance_sq(center) <= r2 {
                out.xs.push(a.position.x);
                out.ys.push(a.position.y);
                out.zs.push(a.position.z);
                out.radii.push(a.radius);
                out.centroid.push(a.is_centroid);
            }
        }
        out.build_cells();
        out
    }

    /// Minimum distance from `p` to any environment atom centre, or `None`
    /// when the environment is empty.  (Exact: falls back to a full scan, so
    /// use for diagnostics rather than inner loops.)
    pub fn min_distance(&self, p: Vec3) -> Option<f64> {
        self.atoms
            .iter()
            .map(|a| a.position.distance(p))
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of_atoms(n: i32, spacing: f64) -> Vec<EnvAtom> {
        let mut atoms = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    atoms.push(EnvAtom::backbone(
                        Vec3::new(x as f64 * spacing, y as f64 * spacing, z as f64 * spacing),
                        1.7,
                    ));
                }
            }
        }
        atoms
    }

    #[test]
    fn empty_environment() {
        let env = Environment::empty();
        assert!(env.is_empty());
        assert_eq!(env.len(), 0);
        assert_eq!(env.burial_count(Vec3::ZERO, 10.0), 0);
        assert!(env.min_distance(Vec3::ZERO).is_none());
        assert!(env.neighbors_within(Vec3::ZERO, 5.0).is_empty());
    }

    #[test]
    fn neighbor_query_matches_brute_force() {
        let atoms = grid_of_atoms(5, 2.5);
        let env = Environment::new(atoms.clone());
        for &(p, r) in &[
            (Vec3::new(5.0, 5.0, 5.0), 3.0),
            (Vec3::new(0.0, 0.0, 0.0), 4.5),
            (Vec3::new(12.0, 1.0, 6.0), 6.0),
            (Vec3::new(-3.0, -3.0, -3.0), 2.0),
            (Vec3::new(6.1, 6.1, 6.1), 0.5),
        ] {
            let brute: usize = atoms.iter().filter(|a| a.position.distance(p) <= r).count();
            assert_eq!(env.burial_count(p, r), brute, "query at {p} r={r}");
        }
    }

    #[test]
    fn neighbors_within_returns_actual_atoms() {
        let atoms = vec![
            EnvAtom::backbone(Vec3::ZERO, 1.7),
            EnvAtom::centroid(Vec3::new(1.0, 0.0, 0.0), 2.3),
            EnvAtom::backbone(Vec3::new(10.0, 0.0, 0.0), 1.7),
        ];
        let env = Environment::new(atoms);
        let near = env.neighbors_within(Vec3::ZERO, 2.0);
        assert_eq!(near.len(), 2);
        assert!(near.iter().any(|a| a.is_centroid));
        let far = env.neighbors_within(Vec3::new(10.0, 0.0, 0.0), 0.5);
        assert_eq!(far.len(), 1);
        assert!(!far[0].is_centroid);
    }

    #[test]
    fn min_distance_is_exact() {
        let atoms = vec![
            EnvAtom::backbone(Vec3::new(3.0, 0.0, 0.0), 1.7),
            EnvAtom::backbone(Vec3::new(0.0, 4.0, 0.0), 1.7),
        ];
        let env = Environment::new(atoms);
        assert!((env.min_distance(Vec3::ZERO).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn query_radius_larger_than_grid_span_is_safe() {
        let env = Environment::new(grid_of_atoms(3, 3.0));
        // Radius covering everything.
        assert_eq!(env.burial_count(Vec3::new(3.0, 3.0, 3.0), 100.0), 27);
    }

    #[test]
    fn gather_within_is_a_superset_of_true_neighbors() {
        let atoms = grid_of_atoms(6, 2.1);
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::new(5.0, 5.0, 5.0), 100.0);
        assert_eq!(cand.len(), 216);
        let mut buf = Vec::new();
        for &(p, r) in &[
            (Vec3::new(5.0, 5.0, 5.0), 3.0),
            (Vec3::new(0.0, 0.0, 0.0), 4.5),
            (Vec3::new(10.6, 1.0, 6.0), 6.0),
            (Vec3::new(-9.0, -9.0, -9.0), 2.0),
            (Vec3::new(50.0, 50.0, 50.0), 3.0),
            (Vec3::new(6.1, 6.1, 6.1), 0.25),
        ] {
            buf.clear();
            cand.gather_within(p, r, &mut buf);
            // No duplicates.
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            let mut dedup = sorted.clone();
            dedup.dedup();
            assert_eq!(sorted, dedup, "duplicate indices at {p} r={r}");
            // Every true neighbour is gathered.
            let r2 = r * r;
            for i in 0..cand.len() {
                let q = Vec3::new(cand.xs()[i], cand.ys()[i], cand.zs()[i]);
                if q.distance_sq(p) <= r2 {
                    assert!(
                        buf.contains(&(i as u32)),
                        "missed neighbour {i} at {p} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_candidates_gather_nothing() {
        let env = Environment::empty();
        let cand = env.candidates_within(Vec3::ZERO, 50.0);
        assert!(cand.is_empty());
        assert_eq!(cand.max_radius(), 0.0);
        let mut buf = Vec::new();
        cand.gather_within(Vec3::ZERO, 10.0, &mut buf);
        assert!(buf.is_empty());
        // A default (never-built) candidate set behaves the same.
        let default = EnvCandidates::default();
        default.gather_within(Vec3::ZERO, 10.0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn single_cell_candidates_gather_everything_in_range() {
        // All atoms inside one grid cell.
        let atoms = vec![
            EnvAtom::backbone(Vec3::new(0.1, 0.2, 0.3), 1.7),
            EnvAtom::centroid(Vec3::new(0.4, 0.1, 0.2), 2.3),
            EnvAtom::backbone(Vec3::new(0.2, 0.3, 0.1), 1.5),
        ];
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::ZERO, 10.0);
        assert_eq!(cand.len(), 3);
        assert!((cand.max_radius() - 2.3).abs() < 1e-12);
        let mut buf = Vec::new();
        cand.gather_within(Vec3::ZERO, 1.0, &mut buf);
        buf.sort_unstable();
        assert_eq!(buf, vec![0, 1, 2]);
        // A query far away touches no cells at all.
        buf.clear();
        cand.gather_within(Vec3::new(100.0, 0.0, 0.0), 1.0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn cell_slices_are_ascending_within_each_cell() {
        let atoms = grid_of_atoms(4, 3.7);
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::new(5.0, 5.0, 5.0), 100.0);
        let mut buf = Vec::new();
        // Gather one tight query per atom position: each visits a handful
        // of cells whose slices must each be ascending runs.
        for i in 0..cand.len() {
            buf.clear();
            let p = Vec3::new(cand.xs()[i], cand.ys()[i], cand.zs()[i]);
            cand.gather_within(p, 0.5, &mut buf);
            assert!(buf.contains(&(i as u32)));
        }
    }

    #[test]
    fn count_within_matches_linear_reference() {
        let atoms = grid_of_atoms(6, 2.1);
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::new(5.0, 5.0, 5.0), 100.0);
        let mut buf = Vec::new();
        for &(p, r) in &[
            (Vec3::new(5.0, 5.0, 5.0), 3.0),
            (Vec3::new(0.0, 0.0, 0.0), 4.5),
            (Vec3::new(10.6, 1.0, 6.0), 6.0),
            (Vec3::new(50.0, 50.0, 50.0), 3.0),
        ] {
            buf.clear();
            // Gather at a deliberately larger radius: the superset must not
            // change the exact-distance count.
            let appended = cand.gather_within(p, r + 3.0, &mut buf);
            assert_eq!(appended, buf.len());
            assert_eq!(
                cand.count_within(p, r, &buf),
                cand.count_within_linear(p, r),
                "count mismatch at {p} r={r}"
            );
        }
    }

    #[test]
    fn atom_constructors() {
        let b = EnvAtom::backbone(Vec3::X, 1.6);
        assert!(!b.is_centroid);
        assert_eq!(b.radius, 1.6);
        let c = EnvAtom::centroid(Vec3::Y, 2.5);
        assert!(c.is_centroid);
        assert_eq!(c.position, Vec3::Y);
    }
}
