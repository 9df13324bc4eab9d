//! Owned, hashable forms of a query: [`QuerySpec`] and [`CatalogSpec`].
//!
//! The borrowed pair `(&QueryGraph, &Catalog)` stays the zero-cost fast
//! path for embedded use. A service needs more: requests that can be
//! queued, compared, hashed and cached, which means owning the data and
//! giving the `f64` statistics a total equality (`to_bits` — catalogs
//! reject non-finite values on construction, so bit equality is value
//! equality with no NaN corner).

use std::hash::{Hash, Hasher};

use joinopt_core::OptimizeError;
use joinopt_cost::Catalog;
use joinopt_qgraph::{QueryGraph, RelIdx};

/// Owned statistics: one cardinality per relation, one selectivity per
/// join edge (indexed like the edges of the owning [`QuerySpec`]).
///
/// Equality and hashing go through [`f64::to_bits`], so two specs are
/// equal exactly when they would rebuild bit-identical [`Catalog`]s.
#[derive(Debug, Clone)]
pub struct CatalogSpec {
    cardinalities: Vec<f64>,
    selectivities: Vec<f64>,
}

impl CatalogSpec {
    /// The relation cardinalities, indexed by relation.
    pub fn cardinalities(&self) -> &[f64] {
        &self.cardinalities
    }

    /// The edge selectivities, indexed like the spec's edge list.
    pub fn selectivities(&self) -> &[f64] {
        &self.selectivities
    }
}

impl PartialEq for CatalogSpec {
    fn eq(&self, other: &Self) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.cardinalities) == bits(&other.cardinalities)
            && bits(&self.selectivities) == bits(&other.selectivities)
    }
}

impl Eq for CatalogSpec {}

impl Hash for CatalogSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for x in &self.cardinalities {
            x.to_bits().hash(state);
        }
        for x in &self.selectivities {
            x.to_bits().hash(state);
        }
    }
}

/// An owned query: relation count, join edges and statistics.
///
/// A `QuerySpec` is the cacheable/queueable form of the borrowed
/// `(&QueryGraph, &Catalog)` pair — construction validates the shapes
/// against each other once, so [`QuerySpec::instantiate`] cannot fail
/// for shape reasons. Edge *order* is preserved (selectivities are
/// indexed by edge id), but does not affect the canonical fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    relations: usize,
    edges: Vec<(RelIdx, RelIdx)>,
    catalog: CatalogSpec,
}

impl QuerySpec {
    /// Captures a borrowed graph + catalog pair into an owned spec.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Cost`] when the catalog's shape does not
    /// match the graph.
    pub fn capture(graph: &QueryGraph, catalog: &Catalog) -> Result<QuerySpec, OptimizeError> {
        catalog.check_shape(graph)?;
        Ok(QuerySpec {
            relations: graph.num_relations(),
            edges: graph.edges().iter().map(|e| (e.u, e.v)).collect(),
            catalog: CatalogSpec {
                cardinalities: catalog.cardinalities().to_vec(),
                selectivities: catalog.selectivities().to_vec(),
            },
        })
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations
    }

    /// Number of join edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The join edges in spec order (each normalized `u < v`).
    pub fn edges(&self) -> &[(RelIdx, RelIdx)] {
        &self.edges
    }

    /// The owned statistics.
    pub fn catalog(&self) -> &CatalogSpec {
        &self.catalog
    }

    /// Rebuilds the borrowed types the algorithms consume.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Graph`] / [`OptimizeError::Cost`] when
    /// the spec is malformed (only reachable for specs not built via
    /// [`QuerySpec::capture`], which validates on entry).
    pub fn instantiate(&self) -> Result<(QueryGraph, Catalog), OptimizeError> {
        let graph = QueryGraph::from_edges(self.relations, self.edges.iter().copied())?;
        let mut catalog = Catalog::with_shape(self.relations, self.edges.len());
        for (i, &card) in self.catalog.cardinalities.iter().enumerate() {
            catalog.set_cardinality(i, card)?;
        }
        for (e, &sel) in self.catalog.selectivities.iter().enumerate() {
            catalog.set_selectivity(e, sel)?;
        }
        Ok((graph, catalog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::workload;
    use joinopt_qgraph::GraphKind;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(spec: &QuerySpec) -> u64 {
        let mut h = DefaultHasher::new();
        spec.hash(&mut h);
        h.finish()
    }

    #[test]
    fn capture_round_trips_bit_exactly() {
        let w = workload::family_workload(GraphKind::Star, 6, 7);
        let spec = QuerySpec::capture(&w.graph, &w.catalog).unwrap();
        // The service resolves `Auto` from these two counts.
        assert_eq!(spec.num_relations(), w.graph.num_relations());
        assert_eq!(spec.num_edges(), w.graph.num_edges());
        let (graph, catalog) = spec.instantiate().unwrap();
        assert_eq!(graph.num_relations(), w.graph.num_relations());
        assert_eq!(graph.edges(), w.graph.edges());
        for i in 0..graph.num_relations() {
            assert_eq!(
                catalog.cardinality(i).to_bits(),
                w.catalog.cardinality(i).to_bits()
            );
        }
        for e in 0..graph.num_edges() {
            assert_eq!(
                catalog.selectivity(e).to_bits(),
                w.catalog.selectivity(e).to_bits()
            );
        }
    }

    #[test]
    fn equality_and_hash_track_the_statistics() {
        let w = workload::family_workload(GraphKind::Chain, 5, 1);
        let a = QuerySpec::capture(&w.graph, &w.catalog).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));

        let mut tweaked = w.catalog.clone();
        tweaked.set_cardinality(0, 123.0).unwrap();
        let c = QuerySpec::capture(&w.graph, &tweaked).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn capture_rejects_shape_mismatch() {
        let w = workload::family_workload(GraphKind::Chain, 5, 1);
        let other = workload::family_workload(GraphKind::Clique, 5, 1);
        assert!(QuerySpec::capture(&w.graph, &other.catalog).is_err());
    }
}
