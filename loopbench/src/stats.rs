//! The benchmark's own statistics: seed derivation, percentiles, digests
//! and the lockstep lane-utilization formula.

use lms::closure::CcdResult;

/// SplitMix64 finaliser: a fixed, well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of job `index` of a run started with `--seed workload_seed`.
/// Every trajectory and job seed of a run comes from here, so the same
/// workload seed always gives the same jobs.
pub fn derive_seed(workload_seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(workload_seed) ^ index)
}

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
/// A tail percentile is only reported when this is at least 10.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Lockstep lane utilization of CCD blocks: the lane-sweeps actually used
/// divided by the lane-sweeps each block occupies, `width` lanes for as many
/// sweeps as its slowest lane.
pub fn lane_utilization<'a>(
    blocks: impl IntoIterator<Item = &'a [CcdResult]>,
    width: usize,
) -> f64 {
    let (mut used, mut held) = (0usize, 0usize);
    for block in blocks {
        used += block.iter().map(|r| r.sweeps).sum::<usize>();
        held += width * block.iter().map(|r| r.sweeps).max().unwrap_or(0);
    }
    if held == 0 {
        0.0
    } else {
        used as f64 / held as f64
    }
}

/// FNV-1a over 64-bit words: a stable digest of the final torsion bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ccd(sweeps: usize) -> CcdResult {
        CcdResult {
            converged: true,
            sweeps,
            initial_deviation: 1.0,
            final_deviation: 0.1,
            rotations_applied: sweeps * 20,
        }
    }

    #[test]
    fn seed_derivation_is_stable() {
        // Pinned values (checked against an independent SplitMix64): a
        // change here changes every job of every workload.
        assert_eq!(derive_seed(1, 0), 0x5E41_AB08_7439_611E);
        assert_eq!(derive_seed(1, 1), 0xE9FD_6049_D65A_F21E);
        assert_eq!(derive_seed(42, 7), 0x1606_2D6C_1339_E500);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(beyond(200, 0.95), 10);
        assert!(beyond(199, 0.95) < 10);
        assert_eq!(beyond(1000, 0.95), 50);
        assert_eq!(beyond(0, 0.95), 0);
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.95), 190.0);
        assert_eq!(sorted.iter().filter(|&&v| v > 190.0).count(), 10);
        assert_eq!(percentile(&sorted, 0.5), 100.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lane_utilization_on_hand_built_blocks() {
        // Block A: width 4, sweeps 2, 4, 4, 2 -> 12 used of 4 * 4 = 16 held.
        let a = [ccd(2), ccd(4), ccd(4), ccd(2)];
        // Block B: a full block where every lane runs 3 sweeps -> 12 of 12.
        let b = [ccd(3), ccd(3), ccd(3), ccd(3)];
        // Block C: a partial block of two lanes still holds 4 lanes: 1+5 of 20.
        let c = [ccd(1), ccd(5)];
        assert_eq!(lane_utilization([&a[..]], 4), 12.0 / 16.0);
        assert_eq!(lane_utilization([&b[..]], 4), 1.0);
        assert_eq!(lane_utilization([&c[..]], 4), 6.0 / 20.0);
        let all = lane_utilization([&a[..], &b[..], &c[..]], 4);
        assert_eq!(all, (12.0 + 12.0 + 6.0) / (16.0 + 12.0 + 20.0));
        assert_eq!(lane_utilization(std::iter::empty(), 4), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Digest::new();
        a.add(1.0f64.to_bits());
        a.add(2.0f64.to_bits());
        let mut b = Digest::new();
        b.add(2.0f64.to_bits());
        b.add(1.0f64.to_bits());
        assert_ne!(a.value(), b.value());
        let mut c = Digest::new();
        c.add(1.0f64.to_bits());
        c.add(2.0f64.to_bits());
        assert_eq!(a.value(), c.value());
    }
}
