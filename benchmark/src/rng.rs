//! The benchmark's own seeded randomness. `--seed` drives this generator and
//! the data generators' seeds, and nothing inside the product: the product
//! only ever receives the generated inputs.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, and frozen here so the
/// request order of a seed never changes with a dependency.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent sub-seed for one purpose (`stream`) from `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `len` draws from Zipf(`exponent`) over ranks `0..pool`: rank `r` has
/// weight `(r + 1)^-exponent`. Sampled by inverting the cumulative weights.
pub fn zipf_order(pool: usize, exponent: f64, len: usize, seed: u64) -> Vec<u32> {
    assert!(pool > 0 && pool <= u32::MAX as usize);
    let mut cumulative = Vec::with_capacity(pool);
    let mut total = 0.0f64;
    for rank in 0..pool {
        total += ((rank + 1) as f64).powf(-exponent);
        cumulative.push(total);
    }
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            cumulative.partition_point(|&c| c <= u).min(pool - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_sequence() {
        // First outputs of the reference implementation for seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn zipf_order_is_a_function_of_the_seed() {
        let a = zipf_order(4096, 1.1, 4096, 42);
        let b = zipf_order(4096, 1.1, 4096, 42);
        let c = zipf_order(4096, 1.1, 4096, 43);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        assert!(a.iter().all(|&r| (r as usize) < 4096));
    }

    #[test]
    fn zipf_order_is_skewed_towards_low_ranks() {
        let order = zipf_order(4096, 1.1, 40_000, 7);
        let head = order.iter().filter(|&&r| r < 41).count() as f64 / order.len() as f64;
        // Zipf(1.1) over 4096 ranks puts about 0.59 of its mass on the top 1 %.
        assert!(head > 0.45 && head < 0.70, "top-1% share {head}");
        let rank0 = order.iter().filter(|&&r| r == 0).count();
        let rank1 = order.iter().filter(|&&r| r == 1).count();
        assert!(rank0 > rank1, "rank 0 must be the most frequent");
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(9, 1), sub_seed(9, 2));
        assert_eq!(sub_seed(9, 1), sub_seed(9, 1));
    }
}
