//! The fixed protein environment surrounding a loop.
//!
//! The VDW soft-sphere scoring function estimates clashes both *within* the
//! loop and *between* the loop and "the residues in the rest of the
//! protein" (the paper's wording).  [`Environment`] holds that fixed atom
//! set together with a uniform spatial hash grid for one-off neighbourhood
//! queries; [`EnvCandidates`] is the per-target snapshot the scoring hot
//! path actually consumes — flat SoA coordinate arrays plus, for every cell
//! of a grid, the ascending list of candidates within [`ENV_LIST_RADIUS`]
//! of that cell (see its docs for the layout).  It is built once per
//! target, so a per-evaluation query is one slice read: no `HashMap`, no
//! gather, no sort, no allocation.

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
/// that can ever interact with a loop region, plus per-cell candidate lists
/// over them so a contact query reads one precomputed slice.
///
/// Scoring functions historically walked these parallel arrays linearly per
/// loop site, which degrades toward O(total protein atoms) per evaluation on
/// full-size environments: the candidate reach bound covers the *whole*
/// loop, so on a real protein the candidate set is large even though each
/// individual site only ever contacts a handful of atoms.  The environment
/// is fixed for the whole target, so the neighbourhood of every point is
/// worked out once, at construction (once per target): the
/// molecular-dynamics cell/Verlet-list trade of memory for per-evaluation
/// work.
///
/// ## List layout (CSR, no hashing, gathering or sorting on the hot path)
///
/// A uniform grid of [`DEFAULT_CELL_SIZE`] cubes covers the candidates'
/// bounding box grown by [`ENV_LIST_RADIUS`] on every side.  One CSR row per
/// cell (x-major: `c = (cz * ny + cy) * nx + cx`) holds, **ascending**, every
/// candidate whose distance to that cell's box is at most the list radius:
/// `rows[row_starts[c]..row_starts[c + 1]]`.
///
/// [`EnvCandidates::near`] maps a point to its cell and returns that row:
/// a superset of the candidates within [`ENV_LIST_RADIUS`] of the point, in
/// the linear scan's index order.  A point outside the grid is farther than
/// the list radius from every candidate and gets an empty slice.  Kernels
/// that apply their own exact cutoff (at most the list radius) over the
/// slice therefore produce results identical to the linear scan, floating
/// point summation order included (the scoring crate property-tests this).
#[derive(Debug, Clone, Default)]
pub struct EnvCandidates {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    radii: Vec<f64>,
    centroid: Vec<bool>,
    /// Largest candidate soft-sphere radius (0 when empty); callers use it
    /// to bound per-site contact reach.
    max_radius: f64,
    /// Minimum corner of the list grid.
    origin: Vec3,
    /// Grid dimensions (cells per axis; 0 when there are no candidates).
    nx: usize,
    ny: usize,
    nz: usize,
    /// CSR row offsets: `row_starts.len() == nx * ny * nz + 1` (empty when
    /// there is no grid).
    row_starts: Vec<u32>,
    /// Candidate indices of every row, ascending within each row.
    rows: Vec<u32>,
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
    /// contact reach any kernel needs per site.
    pub fn max_radius(&self) -> f64 {
        self.max_radius
    }

    /// Bytes held by the per-cell lists (row offsets plus row entries).
    pub fn list_bytes(&self) -> usize {
        (self.row_starts.len() + self.rows.len()) * std::mem::size_of::<u32>()
    }

    /// Build the per-cell lists.  Called once at construction: one geometry
    /// pass finds and counts each candidate's cells, then the candidates are
    /// scattered in ascending index order, so every row comes out sorted
    /// with no sort step.
    fn build_lists(&mut self) {
        self.max_radius = self.radii.iter().fold(0.0f64, |m, &r| m.max(r));
        if self.is_empty() {
            return;
        }
        let fold =
            |init: f64, vs: &[f64], f: fn(f64, f64) -> f64| vs.iter().fold(init, |m, &v| f(m, v));
        let reach = ENV_LIST_RADIUS + LIST_SLACK;
        let grow = Vec3::new(reach, reach, reach);
        let min = Vec3::new(
            fold(f64::INFINITY, &self.xs, f64::min),
            fold(f64::INFINITY, &self.ys, f64::min),
            fold(f64::INFINITY, &self.zs, f64::min),
        ) - grow;
        let max = Vec3::new(
            fold(f64::NEG_INFINITY, &self.xs, f64::max),
            fold(f64::NEG_INFINITY, &self.ys, f64::max),
            fold(f64::NEG_INFINITY, &self.zs, f64::max),
        ) + grow;
        self.origin = min;
        let cells_along = |lo: f64, hi: f64| ((hi - lo) * INV_CELL) as usize + 1;
        self.nx = cells_along(min.x, max.x);
        self.ny = cells_along(min.y, max.y);
        self.nz = cells_along(min.z, max.z);
        let n_cells = self.nx * self.ny * self.nz;

        // One geometry pass: record every candidate's x-runs of cells and
        // count the row lengths in a difference array (+1 at a run's first
        // cell, −1 past its last).
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut run_ends = Vec::with_capacity(self.len());
        let mut diff = vec![0i32; n_cells + 1];
        for i in 0..self.len() {
            self.for_each_run(i, reach, |first, last| {
                runs.push((first as u32, last as u32));
                diff[first] += 1;
                diff[last + 1] -= 1;
            });
            run_ends.push(runs.len());
        }
        let mut row_starts = Vec::with_capacity(n_cells + 1);
        let (mut len, mut total) = (0i32, 0u32);
        row_starts.push(0);
        for &d in &diff[..n_cells] {
            len += d;
            total = total
                .checked_add(len as u32)
                .expect("environment list entries overflow u32");
            row_starts.push(total);
        }
        drop(diff);
        // Integer counting sort: scatter the candidates in ascending index
        // order, so every row comes out sorted.
        let mut next = row_starts[..n_cells].to_vec();
        let mut rows = vec![0u32; total as usize];
        let mut begin = 0;
        for (i, &end) in run_ends.iter().enumerate() {
            for &(first, last) in &runs[begin..end] {
                for slot in &mut next[first as usize..=last as usize] {
                    rows[*slot as usize] = i as u32;
                    *slot += 1;
                }
            }
            begin = end;
        }
        self.row_starts = row_starts;
        self.rows = rows;
    }

    /// Call `f(first, last)` for every x-run of cells (inclusive flat cell
    /// indices) whose box lies within `reach` of candidate `i`: a row-wise
    /// box-distance range per (y, z) cell pair instead of a test per cell.
    fn for_each_run(&self, i: usize, reach: f64, mut f: impl FnMut(usize, usize)) {
        let u = Vec3::new(self.xs[i], self.ys[i], self.zs[i]) - self.origin;
        // Inclusive cell span along one axis of the interval `v ± r`.
        let span = |v: f64, r: f64, n: usize| {
            let lo = ((v - r) * INV_CELL).max(0.0) as usize;
            let hi = (((v + r) * INV_CELL).max(0.0) as usize).min(n - 1);
            (lo, hi)
        };
        // Distance from `v` to cell `c`'s interval along one axis.
        let gap = |v: f64, c: usize| {
            let lo = c as f64 * DEFAULT_CELL_SIZE;
            (lo - v).max(v - (lo + DEFAULT_CELL_SIZE)).max(0.0)
        };
        let (z0, z1) = span(u.z, reach, self.nz);
        let (y0, y1) = span(u.y, reach, self.ny);
        for cz in z0..=z1 {
            let dz = gap(u.z, cz);
            for cy in y0..=y1 {
                let dy = gap(u.y, cy);
                let rest = reach * reach - dz * dz - dy * dy;
                if rest < 0.0 {
                    continue;
                }
                let (x0, x1) = span(u.x, rest.sqrt(), self.nx);
                let row = (cz * self.ny + cy) * self.nx;
                f(row + x0, row + x1);
            }
        }
    }

    /// The candidates that may lie within [`ENV_LIST_RADIUS`] of `p`: the
    /// precomputed list of `p`'s grid cell, ascending, a superset of every
    /// candidate whose centre is within the list radius of `p`.  Empty when
    /// `p` lies outside the grid (no candidate is in range there) or is not
    /// finite.
    #[inline]
    pub fn near(&self, p: Vec3) -> &[u32] {
        // Non-negative cell coordinates truncate to their floor.
        let cell = |v: f64, lo: f64, n: usize| {
            let f = (v - lo) * INV_CELL;
            (f >= 0.0 && f < n as f64).then_some(f as usize)
        };
        let (Some(cx), Some(cy), Some(cz)) = (
            cell(p.x, self.origin.x, self.nx),
            cell(p.y, self.origin.y, self.ny),
            cell(p.z, self.origin.z, self.nz),
        ) else {
            return &[];
        };
        let c = (cz * self.ny + cy) * self.nx + cx;
        &self.rows[self.row_starts[c] as usize..self.row_starts[c + 1] as usize]
    }

    /// Count how many of the candidate `indices` have their centre within
    /// `radius` of `p` — the exact-distance filter a contact-number consumer
    /// applies to a (conservative) [`EnvCandidates::near`] slice.  Because
    /// the count is an integer, any superset of the true neighbours yields
    /// the identical value, so the slice another consumer reads can be
    /// shared without error.
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

/// Default grid cell size (Å): the edge of the cells the environment
/// spatial hash and the per-cell candidate lists are built over.
pub const DEFAULT_CELL_SIZE: f64 = 4.0;

/// Reciprocal of [`DEFAULT_CELL_SIZE`] (a power of two, so exact).
const INV_CELL: f64 = 1.0 / DEFAULT_CELL_SIZE;

/// Radius (Å) of the per-cell candidate lists ([`EnvCandidates::near`]):
/// the largest contact distance any scoring kernel may ask of the
/// environment.  It is the VDW neighbour cutoff and the BURIAL probe radius;
/// both kernels assert their reach against it.
pub const ENV_LIST_RADIUS: f64 = 7.0;

/// Slack (Å) added to the list radius when the lists are built, so
/// floating-point rounding in the cell mapping and in the box distances can
/// never leave out a candidate within [`ENV_LIST_RADIUS`].  Extra entries
/// are removed by the consumers' exact distance filters.
const LIST_SLACK: f64 = 1e-6;

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
    /// within `radius` of `center`, together with its per-cell lists.
    /// Computed once per loop target (the caller passes a conservative reach
    /// bound); the scoring kernels then read one list per site (or scan the
    /// arrays linearly) with no per-evaluation allocation.
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
        out.build_lists();
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
    use proptest::prelude::*;

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

    /// Every candidate index within `r` of `p` by exhaustive scan.
    fn within(cand: &EnvCandidates, p: Vec3, r: f64) -> Vec<u32> {
        (0..cand.len() as u32)
            .filter(|&i| {
                let i = i as usize;
                Vec3::new(cand.xs()[i], cand.ys()[i], cand.zs()[i]).distance_sq(p) <= r * r
            })
            .collect()
    }

    /// The slice is strictly ascending (so duplicate-free) and contains
    /// every candidate within the list radius of `p`.
    fn assert_list_covers(cand: &EnvCandidates, p: Vec3) {
        let list = cand.near(p);
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "list at {p} is not strictly ascending"
        );
        for i in within(cand, p, ENV_LIST_RADIUS) {
            assert!(
                list.binary_search(&i).is_ok(),
                "missed neighbour {i} at {p}"
            );
        }
    }

    #[test]
    fn near_is_a_superset_of_true_neighbors() {
        let atoms = grid_of_atoms(6, 2.1);
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::new(5.0, 5.0, 5.0), 100.0);
        assert_eq!(cand.len(), 216);
        for p in [
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(10.6, 1.0, 6.0),
            Vec3::new(-9.0, -9.0, -9.0),
            Vec3::new(50.0, 50.0, 50.0),
            Vec3::new(6.1, 6.1, 6.1),
        ] {
            assert_list_covers(&cand, p);
        }
        // Far outside the grid: provably nothing in range, empty slice.
        assert!(cand.near(Vec3::new(50.0, 50.0, 50.0)).is_empty());
        assert!(cand.list_bytes() > 0);
    }

    #[test]
    fn empty_candidates_have_empty_lists() {
        let env = Environment::empty();
        let cand = env.candidates_within(Vec3::ZERO, 50.0);
        assert!(cand.is_empty());
        assert_eq!(cand.max_radius(), 0.0);
        assert!(cand.near(Vec3::ZERO).is_empty());
        assert_eq!(cand.list_bytes(), 0);
        // A default (never-built) candidate set behaves the same.
        let default = EnvCandidates::default();
        assert!(default.near(Vec3::ZERO).is_empty());
        assert!(default.near(Vec3::new(f64::NAN, 0.0, 0.0)).is_empty());
    }

    #[test]
    fn single_cell_candidates_list_everything_in_range() {
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
        assert_eq!(cand.near(Vec3::ZERO), &[0, 1, 2]);
        // A point far away lies outside the grid.
        assert!(cand.near(Vec3::new(100.0, 0.0, 0.0)).is_empty());
    }

    #[test]
    fn cell_slices_are_ascending_within_each_cell() {
        let atoms = grid_of_atoms(4, 3.7);
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::new(5.0, 5.0, 5.0), 100.0);
        for i in 0..cand.len() {
            let p = Vec3::new(cand.xs()[i], cand.ys()[i], cand.zs()[i]);
            assert!(cand.near(p).binary_search(&(i as u32)).is_ok());
            assert_list_covers(&cand, p);
        }
    }

    #[test]
    fn count_within_matches_linear_reference() {
        let atoms = grid_of_atoms(6, 2.1);
        let env = Environment::new(atoms);
        let cand = env.candidates_within(Vec3::new(5.0, 5.0, 5.0), 100.0);
        for &(p, r) in &[
            (Vec3::new(5.0, 5.0, 5.0), 3.0),
            (Vec3::new(0.0, 0.0, 0.0), 4.5),
            (Vec3::new(10.6, 1.0, 6.0), 6.0),
            (Vec3::new(2.0, 9.0, 3.3), ENV_LIST_RADIUS),
            (Vec3::new(50.0, 50.0, 50.0), 3.0),
        ] {
            // The superset slice must not change the exact-distance count.
            assert_eq!(
                cand.count_within(p, r, cand.near(p)),
                cand.count_within_linear(p, r),
                "count mismatch at {p} r={r}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lists_cover_the_list_radius_everywhere(
            coords in prop::collection::vec(-1.0..1.0f64, 3 * 64),
            count in 1usize..64,
            scale in 1.0..30.0f64,
            probe in prop::collection::vec(-1.5..1.5f64, 3 * 16),
            cell in prop::collection::vec(0.0..1.0f64, 3 * 8),
        ) {
            let atoms: Vec<EnvAtom> = (0..count)
                .map(|i| {
                    let p = Vec3::new(coords[3 * i], coords[3 * i + 1], coords[3 * i + 2]);
                    EnvAtom::backbone(p * scale, 1.7)
                })
                .collect();
            let cand = Environment::new(atoms).candidates_within(Vec3::ZERO, 1e3);
            prop_assert_eq!(cand.len(), count);
            // Random points inside, near and outside the grid.
            for q in probe.chunks(3) {
                let p = Vec3::new(q[0], q[1], q[2]) * (scale + ENV_LIST_RADIUS);
                assert_list_covers(&cand, p);
            }
            // Points exactly on cell faces, edges and corners.
            let (n, o) = ([cand.nx, cand.ny, cand.nz], cand.origin);
            for k in cell.chunks(3) {
                let idx = |t: f64, n: usize| (t * (n + 1) as f64).floor();
                let face = Vec3::new(
                    o.x + idx(k[0], n[0]) * DEFAULT_CELL_SIZE,
                    o.y + idx(k[1], n[1]) * DEFAULT_CELL_SIZE,
                    o.z + k[2] * n[2] as f64 * DEFAULT_CELL_SIZE,
                );
                assert_list_covers(&cand, face);
                let corner = Vec3::new(face.x, face.y, o.z + idx(k[2], n[2]) * DEFAULT_CELL_SIZE);
                assert_list_covers(&cand, corner);
            }
            // Outside the grid on any axis: no candidate in range, empty.
            let beyond = Vec3::new(o.x + (n[0] as f64 + 0.01) * DEFAULT_CELL_SIZE, o.y, o.z);
            prop_assert!(within(&cand, beyond, ENV_LIST_RADIUS).is_empty());
            prop_assert!(cand.near(beyond).is_empty());
            let below = Vec3::new(o.x + 1.0, o.y - 1e-9, o.z + 1.0);
            prop_assert!(within(&cand, below, ENV_LIST_RADIUS).is_empty());
            prop_assert!(cand.near(below).is_empty());
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
