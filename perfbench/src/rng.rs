//! SplitMix64: the benchmark's own seeded generator for targets, sample
//! positions, word streams and arrival times. Every input derives from
//! `--seed` through it, so the same seed gives the same inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one component, so adding draws in one
    /// part of the benchmark does not shift the inputs of another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Exponentially distributed gap with mean `1 / rate`, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::fork(7, 1);
        let mut y = Rng::fork(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn range_and_unit_stay_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!((10..20).contains(&r.range(10, 20)));
            assert!(r.exp_gap(1e4) >= 0.0);
        }
    }
}
