//! Independence-assumption cardinality estimation, as one set-only fold.

use joinopt_qgraph::hypergraph::Hypergraph;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::{RelIdx, RelSet};

use crate::catalog::Catalog;
use crate::error::CostError;

/// Guards a derived estimate at the estimator/optimizer boundary:
/// finite values pass through, overflowed or NaN values become a typed
/// [`CostError::NonFiniteEstimate`] instead of silently poisoning `<`
/// plan comparison downstream.
#[inline]
pub fn ensure_finite(what: &'static str, value: f64) -> Result<f64, CostError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(CostError::NonFiniteEstimate { what, value })
    }
}

/// The classical System-R cardinality estimator, for simple query
/// graphs and hypergraphs alike.
///
/// Under the independence assumption the cardinality of a set `S` is
///
/// ```text
/// |S| = ∏ { |R| : R ∈ S } · ∏ { f_e : every relation e references is in S }
/// ```
///
/// a function of the set alone. [`CardinalityEstimator::set_cardinality`]
/// evaluates it as one fold in a fixed order, so every engine that asks
/// for the same set gets the same bits, whichever split reached it
/// first. The order:
///
/// 1. the relations `v` of `S` in ascending index order, and for each
/// 2. `|v|`, then
/// 3. the selectivities of the simple predicates `(u, v)` with `u < v`
///    and `u ∈ S`, in ascending `u`, then
/// 4. the selectivities of the complex predicates whose highest
///    referenced relation is `v` and which lie inside `S`, in edge-id
///    order.
///
/// A graph and the singleton-edge hypergraph lifted from it therefore
/// fold to identical bits. Simple predicates are walked as bitmasks of
/// lower neighbours, so a set costs `O(|S| + predicates inside S)`
/// multiplications and no allocation.
///
/// Steps 2–4 for one relation `v` are
/// [`CardinalityEstimator::extend_cardinality`], and the fold is the
/// chain of those steps over the prefixes of `S`. An engine that
/// already holds the fold of `S ∖ {max S}` finishes the fold of `S` in
/// one step, `O(|S|)` instead of `O(|S|²)` on a dense graph, with the
/// same bits.
#[derive(Debug, Clone)]
pub struct CardinalityEstimator {
    cards: Vec<f64>,
    /// `lower[v]`: the relations `u < v` joined to `v` by a simple
    /// predicate.
    lower: Vec<u64>,
    /// `sel[v · n + u]`: the selectivity of the simple predicate between
    /// `u < v`.
    sel: Vec<f64>,
    /// Complex predicates as `(highest relation, referenced set,
    /// selectivity)`, sorted by highest relation, then edge id.
    complex: Vec<(RelIdx, RelSet, f64)>,
}

impl CardinalityEstimator {
    /// Builds an estimator for `g` with statistics from `cat`.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::ShapeMismatch`] if `cat` was built for a
    /// different graph shape.
    pub fn new(g: &QueryGraph, cat: &Catalog) -> Result<CardinalityEstimator, CostError> {
        cat.check_shape(g)?;
        let predicates = g.edges().iter().enumerate().map(|(id, e)| {
            let (u, v) = (RelSet::single(e.u), RelSet::single(e.v));
            (u, v, cat.selectivity(id))
        });
        Ok(CardinalityEstimator::build(cat.cardinalities(), predicates))
    }

    /// Builds an estimator for the hypergraph `h` with statistics from
    /// `cat` (one selectivity per hyperedge, in edge-id order).
    ///
    /// # Errors
    ///
    /// Returns [`CostError::ShapeMismatch`] if `cat`'s shape does not
    /// match `h` (one cardinality per relation, one selectivity per
    /// hyperedge).
    pub fn for_hypergraph(
        h: &Hypergraph,
        cat: &Catalog,
    ) -> Result<CardinalityEstimator, CostError> {
        let catalog = (cat.num_relations(), cat.num_edges());
        let graph = (h.num_relations(), h.num_edges());
        if catalog != graph {
            return Err(CostError::ShapeMismatch { catalog, graph });
        }
        let predicates = h
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| (e.u, e.v, cat.selectivity(id)));
        Ok(CardinalityEstimator::build(cat.cardinalities(), predicates))
    }

    /// Indexes predicates `(side, side, selectivity)` in edge-id order.
    fn build(
        cards: &[f64],
        predicates: impl Iterator<Item = (RelSet, RelSet, f64)>,
    ) -> CardinalityEstimator {
        let n = cards.len();
        let mut lower = vec![0u64; n];
        let mut sel = vec![1.0; n * n];
        let mut complex = Vec::new();
        for (a, b, f) in predicates {
            let refs = a | b;
            let (Some(lo), Some(hi)) = (refs.min_index(), refs.max_index()) else {
                continue;
            };
            if a.is_singleton() && b.is_singleton() {
                lower[hi] |= 1u64 << lo;
                sel[hi * n + lo] = f;
            } else {
                complex.push((hi, refs, f));
            }
        }
        // Stable: edge-id order within one highest relation.
        complex.sort_by_key(|&(hi, _, _)| hi);
        CardinalityEstimator {
            cards: cards.to_vec(),
            lower,
            sel,
            complex,
        }
    }

    /// Number of relations covered.
    pub fn num_relations(&self) -> usize {
        self.cards.len()
    }

    /// Base cardinality of a single relation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn base_cardinality(&self, i: RelIdx) -> f64 {
        self.cards[i]
    }

    /// Estimated cardinality of the set `s`: the fold in the order the
    /// type documents, as one [`extend_cardinality`] step per relation
    /// of `s` in ascending order. A singleton folds to its base
    /// cardinality, the empty set to `1.0`.
    ///
    /// [`extend_cardinality`]: CardinalityEstimator::extend_cardinality
    ///
    /// # Panics
    ///
    /// Panics if `s` names a relation out of range.
    pub fn set_cardinality(&self, s: RelSet) -> f64 {
        let mut card = 1.0;
        let mut prefix = 0u64;
        let mut rest = s.bits();
        while rest != 0 {
            prefix |= rest & rest.wrapping_neg();
            rest &= rest - 1;
            card = self.extend_cardinality(card, RelSet::from_bits(prefix));
        }
        card
    }

    /// The last step of [`set_cardinality`]'s fold for the non-empty set
    /// `s`: `below`, the fold of `s ∖ {max s}`, times `|max s|` and the
    /// selectivities of the predicates whose highest relation is
    /// `max s` and which lie inside `s`, in the documented order. So
    /// `extend_cardinality(set_cardinality(s ∖ {max s}), s)` is
    /// `set_cardinality(s)` bit for bit.
    ///
    /// [`set_cardinality`]: CardinalityEstimator::set_cardinality
    ///
    /// # Panics
    ///
    /// Panics if `s` is empty or names a relation out of range.
    #[inline]
    pub fn extend_cardinality(&self, below: f64, s: RelSet) -> f64 {
        let n = self.cards.len();
        let bits = s.bits();
        let v = 63 - bits.leading_zeros() as usize;
        let mut card = below * self.cards[v];
        let row = &self.sel[v * n..v * n + v];
        let mut lower = self.lower[v] & bits;
        while lower != 0 {
            card *= row[lower.trailing_zeros() as usize];
            lower &= lower - 1;
        }
        // A graph has no complex predicates, so this is an empty search.
        let first = self.complex.partition_point(|&(hi, _, _)| hi < v);
        for &(hi, refs, f) in &self.complex[first..] {
            if hi > v {
                break;
            }
            if refs.is_subset(s) {
                card *= f;
            }
        }
        card
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_qgraph::generators;

    fn chain3() -> (QueryGraph, Catalog) {
        let g = generators::chain(3).unwrap();
        let mut cat = Catalog::new(&g);
        cat.set_cardinality(0, 1000.0).unwrap();
        cat.set_cardinality(1, 100.0).unwrap();
        cat.set_cardinality(2, 10.0).unwrap();
        cat.set_selectivity(0, 0.01).unwrap();
        cat.set_selectivity(1, 0.5).unwrap();
        (g, cat)
    }

    fn set(ix: impl IntoIterator<Item = usize>) -> RelSet {
        RelSet::from_indices(ix)
    }

    /// `R0 — R1` simple, `{R0, R1} — {R2}` complex.
    fn hyper_sample() -> (Hypergraph, Catalog) {
        let mut h = Hypergraph::new(3).unwrap();
        h.add_edge(set([0]), set([1])).unwrap();
        h.add_edge(set([0, 1]), set([2])).unwrap();
        let mut cat = Catalog::with_shape(3, 2);
        cat.set_cardinality(0, 100.0).unwrap();
        cat.set_cardinality(1, 200.0).unwrap();
        cat.set_cardinality(2, 50.0).unwrap();
        cat.set_selectivity(0, 0.01).unwrap();
        cat.set_selectivity(1, 0.1).unwrap();
        (h, cat)
    }

    #[test]
    fn base_and_set_cardinalities() {
        let (g, cat) = chain3();
        let est = CardinalityEstimator::new(&g, &cat).unwrap();
        assert_eq!(est.base_cardinality(0), 1000.0);
        assert_eq!(est.set_cardinality(RelSet::single(1)), 100.0);
        // {0,1}: 1000·100·0.01 = 1000
        assert_eq!(est.set_cardinality(set([0, 1])), 1000.0);
        // {0,1,2}: 1000·100·10·0.01·0.5 = 5000
        assert_eq!(est.set_cardinality(RelSet::full(3)), 5000.0);
        // {0,2}: no predicate between them → cross product 10000
        assert_eq!(est.set_cardinality(set([0, 2])), 10_000.0);
    }

    #[test]
    fn fold_order_is_the_documented_one() {
        // Cardinalities and selectivities whose products round
        // differently in different orders: the fold must match the
        // documented order bit for bit.
        let g = generators::clique(4).unwrap();
        let mut cat = Catalog::new(&g);
        for i in 0..4 {
            cat.set_cardinality(i, 1.0 + 0.1 * (i as f64 + 1.0) / 3.0)
                .unwrap();
        }
        for e in 0..g.num_edges() {
            cat.set_selectivity(e, 0.3 / (e as f64 + 1.7)).unwrap();
        }
        let est = CardinalityEstimator::new(&g, &cat).unwrap();
        let full = g.all_relations();
        let mut want = 1.0;
        for v in 0..4 {
            want *= cat.cardinality(v);
            for u in 0..v {
                want *= cat.selectivity(g.edge_between(u, v).unwrap());
            }
        }
        assert_eq!(est.set_cardinality(full).to_bits(), want.to_bits());
    }

    #[test]
    fn graph_and_lifted_hypergraph_fold_identically() {
        let g = generators::cycle(6).unwrap();
        let mut cat = Catalog::new(&g);
        for i in 0..6 {
            cat.set_cardinality(i, (i as f64 + 2.0) * 37.3).unwrap();
        }
        for e in 0..g.num_edges() {
            cat.set_selectivity(e, 0.7 / (e as f64 + 3.1)).unwrap();
        }
        let simple = CardinalityEstimator::new(&g, &cat).unwrap();
        let lifted = Hypergraph::from_query_graph(&g);
        let hyper = CardinalityEstimator::for_hypergraph(&lifted, &cat).unwrap();
        for s in g.all_relations().non_empty_subsets() {
            assert_eq!(
                simple.set_cardinality(s).to_bits(),
                hyper.set_cardinality(s).to_bits(),
                "{s}"
            );
        }
    }

    #[test]
    fn complex_predicates_apply_only_when_covered() {
        let (h, cat) = hyper_sample();
        let est = CardinalityEstimator::for_hypergraph(&h, &cat).unwrap();
        assert_eq!(est.base_cardinality(2), 50.0);
        // {0,1}: 100·200·0.01 = 200
        assert_eq!(est.set_cardinality(set([0, 1])), 200.0);
        // {1,2} and {0,2}: no fully covered predicate
        assert_eq!(est.set_cardinality(set([1, 2])), 10_000.0);
        assert_eq!(est.set_cardinality(set([0, 2])), 5_000.0);
        // Full: 100·200·50·0.01·0.1 = 1000
        assert_eq!(est.set_cardinality(set([0, 1, 2])), 1_000.0);
    }

    /// The documented fold written out over `(side, side, selectivity)`
    /// predicates in edge-id order: relations ascending and, per
    /// relation `v`, `|v|`, the simple predicates `(u, v)` with `u < v`
    /// in ascending `u`, then the complex predicates whose highest
    /// relation is `v`, in edge-id order.
    fn reference_fold(cards: &[f64], preds: &[(RelSet, RelSet, f64)], s: RelSet) -> f64 {
        let n = cards.len();
        let mut simple = vec![None; n * n];
        let mut complex = Vec::new();
        for &(a, b, f) in preds {
            let refs = a | b;
            let (lo, hi) = (refs.min_index().unwrap(), refs.max_index().unwrap());
            if a.is_singleton() && b.is_singleton() {
                simple[hi * n + lo] = Some(f);
            } else {
                complex.push((hi, refs, f));
            }
        }
        let mut card = 1.0;
        for v in s.iter() {
            card *= cards[v];
            for u in (0..v).filter(|&u| s.contains(u)) {
                if let Some(f) = simple[v * n + u] {
                    card *= f;
                }
            }
            for &(hi, refs, f) in &complex {
                if hi == v && refs.is_subset(s) {
                    card *= f;
                }
            }
        }
        card
    }

    /// Every set of at least two relations: one extension step from the
    /// fold of `S ∖ {max S}` is the fold of `S`, and both are the
    /// documented fold, bit for bit.
    fn assert_fold_identity(
        est: &CardinalityEstimator,
        preds: &[(RelSet, RelSet, f64)],
        ctx: &str,
    ) {
        let cards: Vec<f64> = (0..est.num_relations())
            .map(|i| est.base_cardinality(i))
            .collect();
        for s in RelSet::full(cards.len()).non_empty_subsets() {
            let want = reference_fold(&cards, preds, s);
            assert_eq!(
                est.set_cardinality(s).to_bits(),
                want.to_bits(),
                "{ctx} {s}"
            );
            if s.len() < 2 {
                continue;
            }
            let below = s.without(s.max_index().unwrap());
            let extended = est.extend_cardinality(est.set_cardinality(below), s);
            assert_eq!(extended.to_bits(), want.to_bits(), "{ctx} {s}");
        }
    }

    #[test]
    fn one_extension_step_continues_the_fold() {
        use crate::workload::random_workload;
        use joinopt_relset::XorShift64;

        for n in 2..=12 {
            for (i, density) in [0.0, 0.3, 0.7, 1.0].into_iter().enumerate() {
                let seed = (n * 4 + i) as u64;
                let w = random_workload(n, density, seed);
                let est = CardinalityEstimator::new(&w.graph, &w.catalog).unwrap();
                let preds: Vec<_> = w
                    .graph
                    .edges()
                    .iter()
                    .enumerate()
                    .map(|(id, e)| {
                        let (u, v) = (RelSet::single(e.u), RelSet::single(e.v));
                        (u, v, w.catalog.selectivity(id))
                    })
                    .collect();
                assert_fold_identity(&est, &preds, &format!("graph n={n} p={density}"));
            }
        }

        // Hypergraphs: a spanning chain of simple predicates plus
        // complex ones between random disjoint sides.
        for n in 3..=12 {
            let mut rng = XorShift64::seed_from_u64(n as u64);
            let mut h = Hypergraph::new(n).unwrap();
            for v in 1..n {
                h.add_edge(set([rng.gen_range(0..v)]), set([v])).unwrap();
            }
            h.add_edge(set([0, 1]), set([n - 1])).unwrap();
            for _ in 0..n {
                let a = RelSet::from_bits(rng.next_u64() & RelSet::full(n).bits());
                let b = RelSet::from_bits(rng.next_u64() & RelSet::full(n).bits()) - a;
                // Both sides non-empty, at least one of two relations.
                if !a.is_empty() && !b.is_empty() && a.len() + b.len() > 2 {
                    // Exact duplicates are refused; skip them.
                    let _ = h.add_edge(a, b);
                }
            }
            let mut cat = Catalog::with_shape(n, h.num_edges());
            for i in 0..n {
                cat.set_cardinality(i, 1.0 + 1e5 * rng.next_f64()).unwrap();
            }
            for e in 0..h.num_edges() {
                cat.set_selectivity(e, 0.05 + 0.9 * rng.next_f64()).unwrap();
            }
            let est = CardinalityEstimator::for_hypergraph(&h, &cat).unwrap();
            let preds: Vec<_> = h
                .edges()
                .iter()
                .enumerate()
                .map(|(id, e)| (e.u, e.v, cat.selectivity(id)))
                .collect();
            assert_fold_identity(&est, &preds, &format!("hypergraph n={n}"));
        }
    }

    #[test]
    fn ensure_finite_guards_overflow_and_nan() {
        assert_eq!(ensure_finite("cost", 1.5), Ok(1.5));
        assert_eq!(
            ensure_finite("cardinality", f64::INFINITY),
            Err(CostError::NonFiniteEstimate {
                what: "cardinality",
                value: f64::INFINITY
            })
        );
        assert!(ensure_finite("cost", f64::NAN).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g3 = generators::chain(3).unwrap();
        let g4 = generators::chain(4).unwrap();
        let cat = Catalog::new(&g3);
        assert!(CardinalityEstimator::new(&g4, &cat).is_err());
        let (h, _) = hyper_sample();
        assert!(matches!(
            CardinalityEstimator::for_hypergraph(&h, &Catalog::with_shape(3, 1)),
            Err(CostError::ShapeMismatch { .. })
        ));
    }
}
