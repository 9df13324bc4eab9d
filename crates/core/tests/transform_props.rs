//! Seeded property tests for the subset-lattice transforms behind the
//! conformance oracle's `#ccp` cross-check (`joinopt_core::transform`).
//!
//! Dependency-free: randomness comes from an inline SplitMix64, so
//! every run replays the identical lattices. Two properties:
//!
//! 1. fast zeta and Möbius are exact inverses over random `i64`
//!    lattices (both compositions, in wrapping arithmetic);
//! 2. the `O(2^n · n²)` ranked subset convolution equals the direct
//!    `Σ_{T ⊆ S} f(T)·g(S\T)` definition.

use joinopt_core::transform::{mobius_in_place, ranked_subset_convolution, zeta_in_place};

/// SplitMix64 (Steele et al.): tiny, seedable, good enough to fill
/// lattices with adversarially unstructured values.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn lattice_i64(&mut self, n: usize, magnitude: i64) -> Vec<i64> {
        (0..1usize << n)
            .map(|_| (self.next() as i64) % magnitude)
            .collect()
    }
}

#[test]
fn zeta_and_mobius_are_exact_inverses_on_random_lattices() {
    let mut rng = SplitMix64(0x5eed_0001);
    for n in 0..=12 {
        for _ in 0..4 {
            let original = rng.lattice_i64(n, i64::MAX / 4);
            let mut f = original.clone();
            zeta_in_place(&mut f);
            mobius_in_place(&mut f);
            assert_eq!(f, original, "möbius ∘ zeta ≠ id at n={n}");
            let mut g = original.clone();
            mobius_in_place(&mut g);
            zeta_in_place(&mut g);
            assert_eq!(g, original, "zeta ∘ möbius ≠ id at n={n}");
        }
    }
}

#[test]
fn zeta_matches_its_quadratic_definition() {
    let mut rng = SplitMix64(0x5eed_0002);
    for n in 0..=8 {
        let original = rng.lattice_i64(n, 1 << 40);
        let mut fast = original.clone();
        zeta_in_place(&mut fast);
        for (s, &got) in fast.iter().enumerate() {
            let mut want = original[0]; // T = ∅
            let mut t = s;
            while t != 0 {
                want = want.wrapping_add(original[t]);
                t = (t - 1) & s;
            }
            assert_eq!(got, want, "n={n} S={s:#b}");
        }
    }
}

#[test]
fn ranked_convolution_matches_the_definition_on_random_lattices() {
    let mut rng = SplitMix64(0x5eed_0003);
    for n in 0..=8 {
        // Bounded magnitude keeps the exact (non-wrapping) reference
        // sum inside i64: 2^8 terms of 2^20 · 2^20 products.
        let f = rng.lattice_i64(n, 1 << 20);
        let g = rng.lattice_i64(n, 1 << 20);
        let h = ranked_subset_convolution(&f, &g);
        for s in 0..f.len() {
            let mut want = f[0] * g[s];
            let mut t = s;
            while t != 0 {
                want += f[t] * g[s ^ t];
                t = (t - 1) & s;
            }
            assert_eq!(h[s], want, "n={n} S={s:#b}");
        }
    }
}

#[test]
fn ranked_convolution_of_indicators_counts_disjoint_covers() {
    // f = g = indicator of non-empty sets: h[S] counts ordered pairs of
    // disjoint non-empty sets covering S, which is 2^|S| − 2 for
    // |S| ≥ 1 (every proper non-empty T pairs with its complement).
    for n in 0..=10 {
        let size = 1usize << n;
        let mut ind = vec![1i64; size];
        ind[0] = 0;
        let h = ranked_subset_convolution(&ind, &ind);
        for (s, &v) in h.iter().enumerate() {
            let k = (s as u64).count_ones();
            let want = if k == 0 { 0 } else { (1i64 << k) - 2 };
            assert_eq!(v, want, "n={n} S={s:#b}");
        }
    }
}

#[test]
fn convolution_is_commutative_and_has_the_delta_identity() {
    let mut rng = SplitMix64(0x5eed_0006);
    let n = 7;
    let f = rng.lattice_i64(n, 1 << 20);
    let g = rng.lattice_i64(n, 1 << 20);
    assert_eq!(
        ranked_subset_convolution(&f, &g),
        ranked_subset_convolution(&g, &f)
    );
    // δ (1 at ∅, 0 elsewhere) is the ring identity.
    let mut delta = vec![0i64; 1 << n];
    delta[0] = 1;
    assert_eq!(ranked_subset_convolution(&f, &delta), f);
}
