//! Seeded randomness for the load generators (SplitMix64: tiny, and the
//! same seed gives the same operation sequence on every platform).

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so two threads of
    /// one run draw different sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s = 1) ranks over `n` items: rank `i` is drawn with weight
/// `1 / (i + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` (`n > 0`).
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                acc += 1.0 / (i + 1) as f64;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_zipf_prefers_low_ranks() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let z = Zipf::new(8);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.draw(&mut r)] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[7] && counts[7] > 0);
    }
}
