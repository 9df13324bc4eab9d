//! A minimal deterministic PRNG for workload generation and tests.
//!
//! The workspace deliberately has **no external dependencies**, so the
//! seeded randomness used by the workload generators and the randomized
//! tests lives here instead of in the `rand` crate. The generator is xorshift64* (Marsaglia; Vigna's `*` output
//! scrambler) seeded through one round of SplitMix64 — tiny, fast, and
//! more than good enough for generating test inputs. It is **not**
//! cryptographically secure.
//!
//! Streams are stable: for a given seed the sequence of draws is fixed
//! forever, which is what makes `workload::family_workload(kind, n, seed)`
//! and friends reproducible across runs and machines.

/// A seeded xorshift64* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. Any seed is valid; the seed is
    /// passed through SplitMix64 so `0` and small integers still produce
    /// well-mixed streams.
    pub fn seed_from_u64(seed: u64) -> XorShift64 {
        // One SplitMix64 round; the result is never 0 for any input
        // because the final xor-shift of a bijective mix only maps 0 to 0
        // for one specific input, which the added constant avoids.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `range` (half-open, like `rand`'s `gen_range`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: core::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        // Modulo bias is ≤ span/2^64 — irrelevant for test-input sizes.
        range.start + (self.next_u64() % span) as usize
    }

    /// A uniform `f64` in `[lo, hi)` (returns `lo` when `lo == hi`).
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::seed_from_u64(42);
        let mut b = XorShift64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::seed_from_u64(0);
        let draws: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = XorShift64::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut r = XorShift64::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.gen_range(0..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..5 should appear");
        assert_eq!(r.gen_range(3..4), 3);
        assert_eq!(r.gen_range_f64(2.5, 2.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = XorShift64::seed_from_u64(1);
        let _ = r.gen_range(4..4);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = XorShift64::seed_from_u64(9);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = XorShift64::seed_from_u64(5);
        let mut xs: Vec<usize> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // With overwhelming probability the order changed.
        assert_ne!(xs, (0..20).collect::<Vec<_>>());
    }
}
