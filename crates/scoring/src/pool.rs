//! A shared pool of [`ScoreScratch`] workspaces.
//!
//! The batch job engine runs many trajectories over the lifetime of one
//! process; each trajectory needs one scratch per population member.  The
//! pool lets consecutive (and concurrent) jobs on the same engine reuse the
//! buffers a finished job warmed up instead of re-allocating them: a worker
//! [`acquire`](ScratchPool::acquire)s scratches when a job starts and
//! [`release`](ScratchPool::release)s them when it ends.
//!
//! Pooled reuse never changes results: every evaluation `clear()`s the
//! scratch before filling it, so only the *capacity* (and therefore the
//! allocation count) differs between a fresh and a recycled scratch — the
//! same argument that makes the workspace path bit-identical to the legacy
//! allocating path.

use crate::workspace::ScoreScratch;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A thread-safe free list of [`ScoreScratch`] workspaces.
///
/// Scratches are handed out most-recently-returned first (warm buffers
/// first), and the pool grows on demand: an empty pool simply creates a
/// fresh pre-sized scratch.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<ScoreScratch>>,
}

impl ScratchPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// The free list.  A panic while it was held cannot leave it torn (every
    /// critical section is one `Vec` call), so poisoning is ignored.
    fn free(&self) -> MutexGuard<'_, Vec<ScoreScratch>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take one scratch from the pool, or create one pre-sized for a loop
    /// of `n_residues` when the pool is empty.  A recycled scratch may have
    /// been warmed on a different target; its first evaluation on the new
    /// target re-sizes the buffers and every later one is allocation-free.
    pub fn acquire(&self, n_residues: usize) -> ScoreScratch {
        self.free()
            .pop()
            .unwrap_or_else(|| ScoreScratch::for_loop_len(n_residues))
    }

    /// Return one scratch to the pool for reuse.
    pub fn release(&self, scratch: ScoreScratch) {
        self.free().push(scratch);
    }

    /// Return many scratches to the pool at once (e.g. a whole population's
    /// worth when a trajectory finishes).
    pub fn release_all<I: IntoIterator<Item = ScoreScratch>>(&self, scratches: I) {
        self.free().extend(scratches);
    }

    /// Number of scratches currently parked in the pool.
    pub fn idle_count(&self) -> usize {
        self.free().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_from_empty_pool_presizes_for_the_loop() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle_count(), 0);
        let s = pool.acquire(12);
        assert!(s.site_x.capacity() >= 60);
    }

    #[test]
    fn released_scratches_are_recycled_warm() {
        let pool = ScratchPool::new();
        let mut s = pool.acquire(8);
        s.site_x.extend_from_slice(&[1.0; 100]);
        let cap = s.site_x.capacity();
        pool.release(s);
        assert_eq!(pool.idle_count(), 1);
        let recycled = pool.acquire(8);
        assert_eq!(pool.idle_count(), 0);
        assert!(
            recycled.site_x.capacity() >= cap,
            "recycled scratch lost its warm capacity"
        );
    }

    #[test]
    fn release_all_parks_a_population() {
        let pool = ScratchPool::new();
        let scratches: Vec<_> = (0..16).map(|_| pool.acquire(4)).collect();
        pool.release_all(scratches);
        assert_eq!(pool.idle_count(), 16);
    }

    #[test]
    fn a_poisoned_free_list_keeps_working() {
        let pool = ScratchPool::new();
        pool.release(pool.acquire(4));
        let poisoned = std::panic::catch_unwind(|| {
            let _guard = pool.free.lock().unwrap();
            panic!("poison the free list");
        });
        assert!(poisoned.is_err() && pool.free.is_poisoned());
        assert_eq!(pool.idle_count(), 1);
        let s = pool.acquire(4);
        assert_eq!(pool.idle_count(), 0);
        pool.release(s);
        assert_eq!(pool.idle_count(), 1);
    }
}
