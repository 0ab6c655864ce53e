//! A small seeded generator (SplitMix64). Every input the benchmark
//! hands the program — op mix, object picks, migrate targets, payload
//! bytes — comes from one of these, so one `--seed` fixes the inputs.

/// SplitMix64: fast, statistically fine for picking inputs, and fully
/// determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a stream number
    /// (one per generator thread or per payload).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut mix = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Rng(mix.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> bytes::Bytes {
        let mut buf = vec![0u8; len];
        self.fill(&mut buf);
        bytes::Bytes::from(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::stream(7, 1);
        let mut y = Rng::stream(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::stream(3, 0);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
