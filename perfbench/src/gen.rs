//! Seeded input generation. Every workload input — Zipf tenant ranks,
//! Poisson gaps, corpus texts and order, sort keys — comes from one [`Gen`] seeded
//! by `--seed`, so the same seed replays the same inputs and the program
//! under test only ever sees the generated values.

/// SplitMix64: a small, fast, well-mixed generator whose whole state is
/// one `u64`, so a stream is fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    /// An independent stream for one purpose (`salt`), so adding draws to
    /// one input does not shift another's.
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut g = Gen::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponentially distributed gap with the given mean (Poisson
    /// arrivals).
    pub fn exp_gap_ns(&mut self, mean_ns: f64) -> u64 {
        (-(1.0 - self.unit()).ln() * mean_ns) as u64
    }
}

/// Zipf(s) over ranks `0..n`, sampled by binary search on the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, g: &mut Gen) -> usize {
        let u = g.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..64)
            .scan(Gen::new(7), |g, _| Some(g.next_u64()))
            .collect();
        let b: Vec<u64> = (0..64)
            .scan(Gen::new(7), |g, _| Some(g.next_u64()))
            .collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..64)
            .scan(Gen::new(8), |g, _| Some(g.next_u64()))
            .collect();
        assert_ne!(a, c);
        assert_ne!(Gen::fork(7, 1).next_u64(), Gen::fork(7, 2).next_u64());
    }

    #[test]
    fn zipf_head_is_heaviest_and_ranks_stay_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut g = Gen::new(1);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut g)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[99]);
        // Rank 1 of Zipf(1.0) over 100 ranks carries 1/H(100) ≈ 19%.
        assert!((3_400..4_300).contains(&hits[0]), "{}", hits[0]);
    }

    #[test]
    fn draws_respect_their_ranges() {
        let mut g = Gen::new(3);
        for _ in 0..10_000 {
            assert!(g.unit() < 1.0);
            assert!(g.below(10) < 10);
        }
        let mean = (0..20_000).map(|_| g.exp_gap_ns(1_000.0)).sum::<u64>() as f64 / 20_000.0;
        assert!((950.0..1_050.0).contains(&mean), "{mean}");
    }
}
