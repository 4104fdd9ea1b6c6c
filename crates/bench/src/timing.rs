//! Timing helpers shared by the bench writers (`BENCH_*.json`).
//!
//! A ratio between two code paths is timed in alternating batches
//! ([`paired_median_ns`]), so host-speed drift slows both sides alike and
//! the ratio survives it; a single path takes the median of independent
//! batches ([`median_ns`]).

use std::time::Instant;

/// Mean ns/call of one timed batch of `iters` calls.
pub fn batch_ns<F: FnMut()>(f: &mut F, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The median of `values` (the upper one of an even count).
///
/// # Panics
/// Panics on an empty input or a NaN.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

/// Median ns/call of a closure over `samples` timed batches of `iters`
/// calls.
pub fn median_ns<F: FnMut()>(mut f: F, iters: u32, samples: u32) -> f64 {
    median((0..samples).map(|_| batch_ns(&mut f, iters)).collect())
}

/// Median ns/call of two closures over `samples` timed batches each, the
/// batches alternating, so host-speed drift slows both sides of their
/// ratio alike.
pub fn paired_median_ns<F: FnMut(), G: FnMut()>(
    mut f: F,
    mut g: G,
    iters: u32,
    samples: u32,
) -> (f64, f64) {
    let (mut fs, mut gs) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        fs.push(batch_ns(&mut f, iters));
        gs.push(batch_ns(&mut g, iters));
    }
    (median(fs), median(gs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_value() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn paired_timing_alternates_and_counts_every_call() {
        let order = std::cell::RefCell::new(Vec::new());
        let (f, g) = paired_median_ns(
            || order.borrow_mut().push('f'),
            || order.borrow_mut().push('g'),
            2,
            3,
        );
        assert!(f >= 0.0 && g >= 0.0);
        assert_eq!(
            order.into_inner().iter().collect::<String>(),
            "ffggffggffgg"
        );
    }
}
