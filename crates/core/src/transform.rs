//! Fast zeta/Möbius transforms and ranked subset convolution over the
//! `2^n` subset lattice, the integer-ring machinery behind the
//! conformance oracle's `#ccp` cross-check.
//!
//! All functions operate on dense arrays indexed by bitmask: index `S`
//! holds the value for the relation set whose bits are `S`. Array
//! lengths must be powers of two (`2^n` for an `n`-element universe).
//!
//! * [`zeta_in_place`] / [`mobius_in_place`] — the textbook
//!   `O(2^n · n)` transforms over `(+, ·)`; exact inverses of each
//!   other (Yates / Björklund et al.).
//! * [`ranked_subset_convolution`] — exact subset convolution
//!   `h(S) = Σ_{T ⊆ S} f(T) · g(S \ T)` in `O(2^n · n²)` via the
//!   rank-indexed zeta trick: convolve rank slices pointwise in zeta
//!   space, invert once per rank. The conformance oracle uses it to
//!   re-derive `#ccp` from the connectivity indicator, independently of
//!   every enumeration algorithm.
//!
//! [`crate::DpConv`] uses none of this. It is an exact `Θ(3^n)` layered
//! enumeration with an array-indexed inner loop: the rank trick needs
//! an additive inverse, which the `(min, +)` semiring of exact `f64`
//! costs lacks. The sub-`3^n` instantiations of arXiv 2409.08013 are
//! not implemented; see `docs/ALGORITHMS.md` §7.

/// Asserts `f.len()` is a power of two and returns `n = log2(len)`.
fn universe_bits(len: usize) -> u32 {
    assert!(
        len.is_power_of_two(),
        "lattice arrays must have power-of-two length, got {len}"
    );
    len.trailing_zeros()
}

/// In-place fast zeta transform: replaces `f[S]` with
/// `Σ_{T ⊆ S} f[T]` for every `S`, in `O(2^n · n)` wrapping additions.
///
/// # Panics
///
/// Panics if `f.len()` is not a power of two.
pub fn zeta_in_place(f: &mut [i64]) {
    let n = universe_bits(f.len());
    for j in 0..n {
        let bit = 1usize << j;
        for s in 0..f.len() {
            if s & bit != 0 {
                f[s] = f[s].wrapping_add(f[s ^ bit]);
            }
        }
    }
}

/// In-place fast Möbius transform, the exact inverse of
/// [`zeta_in_place`]: recovers `f` from its subset sums.
///
/// # Panics
///
/// Panics if `f.len()` is not a power of two.
pub fn mobius_in_place(f: &mut [i64]) {
    let n = universe_bits(f.len());
    for j in 0..n {
        let bit = 1usize << j;
        for s in 0..f.len() {
            if s & bit != 0 {
                f[s] = f[s].wrapping_sub(f[s ^ bit]);
            }
        }
    }
}

/// Exact subset convolution over the integer ring in `O(2^n · n²)`:
/// returns `h` with `h[S] = Σ_{T ⊆ S} f[T] · g[S \ T]`.
///
/// The ranked construction: split `f` and `g` into rank slices
/// (`f_k[S] = f[S]` when `|S| = k`, else 0), zeta-transform every
/// slice, multiply slices pointwise grouped by rank sum, and Möbius
/// back — the cross-rank terms that would double-count non-disjoint
/// pairs cancel because `|T| + |S \ T| = |S|` holds exactly for
/// disjoint decompositions.
///
/// # Panics
///
/// Panics if the inputs differ in length or are not powers of two.
pub fn ranked_subset_convolution(f: &[i64], g: &[i64]) -> Vec<i64> {
    assert_eq!(f.len(), g.len(), "operands must share one lattice");
    let n = universe_bits(f.len()) as usize;
    let size = f.len();
    // Rank-sliced zeta transforms: fhat[k][S] = Σ_{T ⊆ S, |T| = k} f[T].
    let slice = |src: &[i64]| -> Vec<Vec<i64>> {
        (0..=n)
            .map(|k| {
                let mut layer: Vec<i64> = (0..size)
                    .map(|s| {
                        if (s as u64).count_ones() as usize == k {
                            src[s]
                        } else {
                            0
                        }
                    })
                    .collect();
                zeta_in_place(&mut layer);
                layer
            })
            .collect()
    };
    let fhat = slice(f);
    let ghat = slice(g);
    let mut out = vec![0i64; size];
    for rank in 0..=n {
        // Pointwise ring convolution of the rank slices in zeta space,
        // then one Möbius inversion for this output rank.
        let mut h: Vec<i64> = (0..size)
            .map(|s| {
                let mut acc = 0i64;
                for k in 0..=rank {
                    acc = acc.wrapping_add(fhat[k][s].wrapping_mul(ghat[rank - k][s]));
                }
                acc
            })
            .collect();
        mobius_in_place(&mut h);
        for (s, out_s) in out.iter_mut().enumerate() {
            if (s as u64).count_ones() as usize == rank {
                *out_s = h[s];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeta_of_indicator_counts_subsets() {
        // f = all-ones: zeta gives 2^|S| (every subset contributes 1).
        let mut f = vec![1i64; 16];
        zeta_in_place(&mut f);
        for (s, &v) in f.iter().enumerate() {
            assert_eq!(v, 1i64 << (s as u64).count_ones(), "S = {s:#b}");
        }
    }

    #[test]
    fn mobius_inverts_zeta_on_a_small_handcrafted_lattice() {
        let original = vec![3i64, -7, 0, 42, 5, -1, 9, 11];
        let mut f = original.clone();
        zeta_in_place(&mut f);
        assert_ne!(f, original, "zeta must actually mix values");
        mobius_in_place(&mut f);
        assert_eq!(f, original);
    }

    #[test]
    fn ranked_convolution_matches_definition_exhaustively() {
        // n = 4, deterministic values: check h[S] against the direct
        // Σ_{T ⊆ S} f[T]·g[S\T] definition for every S.
        let f: Vec<i64> = (0..16).map(|s| (s as i64) * 3 - 7).collect();
        let g: Vec<i64> = (0..16).map(|s| 11 - (s as i64) * (s as i64)).collect();
        let h = ranked_subset_convolution(&f, &g);
        for s in 0..16usize {
            let mut want = f[0] * g[s];
            let mut t = s;
            while t != 0 {
                want += f[t] * g[s ^ t];
                t = (t - 1) & s;
            }
            assert_eq!(h[s], want, "S = {s:#b}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_lattices_are_rejected() {
        let mut f = vec![0i64; 6];
        zeta_in_place(&mut f);
    }

    #[test]
    #[should_panic(expected = "share one lattice")]
    fn mismatched_operands_are_rejected() {
        let _ = ranked_subset_convolution(&[0; 4], &[0; 8]);
    }
}
