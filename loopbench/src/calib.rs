//! Host-speed calibration.
//!
//! The host's speed drifts by tens of percent over minutes, and the drift
//! slows everything alike: a job, a set-up and a fixed arithmetic kernel
//! slow down together.  The benchmark times a fixed kernel of its own (no
//! code of the sampler) after every job and scales each time metric to a
//! host on which that kernel takes [`REFERENCE_S`].  A change to the
//! sampler moves the scaled metrics exactly as it moves the raw ones; the
//! host's drift cancels.

use std::time::Instant;

/// Kernel time (s) of the reference host the time metrics are scaled to.
pub const REFERENCE_S: f64 = 0.08;
/// Points the kernel gathers from: 2^17 × 24 bytes = 3 MB, more than a
/// core's L2.  Over one ten-minute window of a drifting host, the sampler's
/// job time ranged 32% of its median, a kernel inside L2 only 23%, and this
/// one 34%: it slows with the host as the sampler does.
const POINTS: usize = 1 << 17;
/// Probe moves of one kernel run.
const STEPS: usize = 30_000;
/// Gathers per probe move.
const GATHERS: usize = 256;

/// Run the kernel once on this thread: a probe point rotated by `sin_cos`
/// steps gathers pseudo-random points and sums a Lennard-Jones-like term
/// over those within a cutoff.  Returns the seconds it took and a checksum
/// of what it computed.
pub fn kernel() -> (f64, f64) {
    let points: Vec<[f64; 3]> = (0..POINTS)
        .map(|i| {
            let f = i as f64;
            [
                (f * 0.37).sin() * 20.0,
                (f * 0.11).cos() * 20.0,
                (f * 0.013).sin() * 20.0,
            ]
        })
        .collect();
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    let mut q = [0.0f64; 3];
    for step in 0..STEPS {
        let (s, c) = (step as f64 * 0.01).sin_cos();
        q = [
            q[0] * c - q[1] * s + 0.1,
            q[0] * s + q[1] * c,
            q[2] + 0.01 * s,
        ];
        for _ in 0..GATHERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = points[(x as usize) & (POINTS - 1)];
            let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
            if d2 < 400.0 {
                acc += 1.0 / (d2 * d2 * d2).max(1e-9) - d2.sqrt() * 1e-3;
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds, std::hint::black_box(acc))
}

/// Host speed relative to the reference host, from the median kernel time:
/// above 1 on a faster host.  Divide a rate by it, multiply a time by it.
pub fn host_speed(median_kernel_s: f64) -> f64 {
    REFERENCE_S / median_kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_computes_the_same_sum_every_run() {
        let (t1, a) = kernel();
        let (t2, b) = kernel();
        assert!(t1 > 0.0 && t2 > 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a.is_finite() && a != 0.0);
    }

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        // A host twice as slow doubles both the job time and the kernel
        // time; the scaled job time is the same.
        let (job_s, kernel_s) = (1.5, 0.1);
        let fast = job_s * host_speed(kernel_s);
        let slow = (2.0 * job_s) * host_speed(2.0 * kernel_s);
        assert_eq!(fast, slow);
        let rate = 10.0 / job_s;
        assert_eq!(
            rate / host_speed(kernel_s),
            (rate / 2.0) / host_speed(2.0 * kernel_s)
        );
        assert_eq!(host_speed(REFERENCE_S), 1.0);
    }
}
