//! The [`QueryGraph`] type.

use core::fmt;

use joinopt_relset::{RelIdx, RelSet, MAX_RELATIONS};

use crate::error::QueryGraphError;

/// Identifier of an edge (join predicate) within a [`QueryGraph`].
pub type EdgeId = usize;

/// An undirected edge between two relations, stored with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: RelIdx,
    /// Larger endpoint.
    pub v: RelIdx,
}

impl Edge {
    /// Normalizes an endpoint pair into an `Edge` (`u < v`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loop).
    #[inline]
    pub fn new(a: RelIdx, b: RelIdx) -> Edge {
        assert!(a != b, "self-loop is not a valid edge");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The two endpoints as a set.
    #[inline]
    pub fn as_set(self) -> RelSet {
        RelSet::single(self.u) | RelSet::single(self.v)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{} — R{}", self.u, self.v)
    }
}

/// An undirected query graph over relations `R_0 … R_{n-1}`.
///
/// The adjacency structure is a `Vec<RelSet>`: `adj[v]` is the neighborhood
/// `𝒩(v)` as a bitset, which makes the set-level operations the paper's
/// algorithms need (neighborhood of a set, connectivity of an induced
/// subgraph, connectivity between two sets) loops over machine words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    n: usize,
    adj: Vec<RelSet>,
    edges: Vec<Edge>,
}

impl QueryGraph {
    /// Creates an edgeless graph with `n` relations.
    ///
    /// # Errors
    ///
    /// Returns [`QueryGraphError::TooManyRelations`] if `n > 64`.
    pub fn new(n: usize) -> Result<QueryGraph, QueryGraphError> {
        if n > MAX_RELATIONS {
            return Err(QueryGraphError::TooManyRelations { n });
        }
        Ok(QueryGraph {
            n,
            adj: vec![RelSet::EMPTY; n],
            edges: Vec::new(),
        })
    }

    /// Number of relations (nodes).
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.n
    }

    /// Number of join predicates (edges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The set of all relations `{R_0, …, R_{n-1}}`.
    #[inline]
    pub fn all_relations(&self) -> RelSet {
        RelSet::full(self.n)
    }

    /// Adds an undirected edge (join predicate) between `a` and `b`.
    ///
    /// Returns the new edge's [`EdgeId`].
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self-loops and duplicate edges.
    pub fn add_edge(&mut self, a: RelIdx, b: RelIdx) -> Result<EdgeId, QueryGraphError> {
        if a >= self.n {
            return Err(QueryGraphError::NodeOutOfRange { node: a, n: self.n });
        }
        if b >= self.n {
            return Err(QueryGraphError::NodeOutOfRange { node: b, n: self.n });
        }
        if a == b {
            return Err(QueryGraphError::SelfLoop { node: a });
        }
        if self.adj[a].contains(b) {
            let e = Edge::new(a, b);
            return Err(QueryGraphError::DuplicateEdge { u: e.u, v: e.v });
        }
        self.adj[a].insert(b);
        self.adj[b].insert(a);
        self.edges.push(Edge::new(a, b));
        Ok(self.edges.len() - 1)
    }

    /// Convenience constructor from an edge list.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`QueryGraph::new`] and
    /// [`QueryGraph::add_edge`].
    pub fn from_edges<I>(n: usize, edges: I) -> Result<QueryGraph, QueryGraphError>
    where
        I: IntoIterator<Item = (RelIdx, RelIdx)>,
    {
        let mut g = QueryGraph::new(n)?;
        for (a, b) in edges {
            g.add_edge(a, b)?;
        }
        Ok(g)
    }

    /// The neighborhood `𝒩(v)` of a single node, as a bitset.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: RelIdx) -> RelSet {
        self.adj[v]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: RelIdx) -> usize {
        self.adj[v].len()
    }

    /// The edges, indexable by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up the id of the edge between `a` and `b`, if present.
    pub fn edge_between(&self, a: RelIdx, b: RelIdx) -> Option<EdgeId> {
        if a >= self.n || !self.adj[a].contains(b) {
            return None;
        }
        let want = Edge::new(a, b);
        self.edges.iter().position(|e| *e == want)
    }

    /// The neighborhood of a set, `𝒩(S) := ⋃_{v∈S} 𝒩(v) \ S`
    /// (paper, Section 3.2).
    #[inline]
    pub fn neighborhood(&self, s: RelSet) -> RelSet {
        let mut acc = RelSet::EMPTY;
        for v in s.iter() {
            acc |= self.adj[v];
        }
        acc - s
    }

    /// `true` iff the subgraph induced by `s` is connected.
    ///
    /// The empty set is *not* connected; singletons are.
    pub fn is_connected_set(&self, s: RelSet) -> bool {
        let Some(start) = s.min_index() else {
            return false;
        };
        let mut reached = RelSet::single(start);
        let mut frontier = reached;
        while !frontier.is_empty() {
            let mut next = RelSet::EMPTY;
            for v in frontier.iter() {
                next |= self.adj[v];
            }
            next = (next & s) - reached;
            reached |= next;
            frontier = next;
        }
        reached == s
    }

    /// `true` iff there is at least one join predicate with one endpoint in
    /// `s1` and the other in `s2` ("S₁ connected to S₂" in the paper).
    ///
    /// Does **not** require or check disjointness.
    #[inline]
    pub fn sets_connected(&self, s1: RelSet, s2: RelSet) -> bool {
        // Iterate the smaller side.
        let (small, big) = if s1.len() <= s2.len() {
            (s1, s2)
        } else {
            (s2, s1)
        };
        small.iter().any(|v| self.adj[v].overlaps(big))
    }

    /// `true` iff the whole graph is connected (and non-empty).
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.n > 0 && self.is_connected_set(self.all_relations())
    }

    /// Validates that the graph is a usable join-ordering input:
    /// non-empty and connected.
    ///
    /// # Errors
    ///
    /// Returns [`QueryGraphError::Disconnected`] otherwise.
    pub fn require_connected(&self) -> Result<(), QueryGraphError> {
        if self.is_connected() {
            Ok(())
        } else {
            Err(QueryGraphError::Disconnected)
        }
    }

    /// Iterates over the edges crossing the cut between `s1` and `s2`.
    pub fn edges_between_sets<'a>(
        &'a self,
        s1: RelSet,
        s2: RelSet,
    ) -> impl Iterator<Item = EdgeId> + 'a {
        self.edges.iter().enumerate().filter_map(move |(id, e)| {
            let (inu, inv) = (s1.contains(e.u), s1.contains(e.v));
            let (ju, jv) = (s2.contains(e.u), s2.contains(e.v));
            if (inu && jv) || (inv && ju) {
                Some(id)
            } else {
                None
            }
        })
    }

    /// Renders the graph in Graphviz DOT syntax (undirected).
    pub fn to_dot(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::from("graph query {\n");
        for v in 0..self.n {
            let _ = writeln!(out, "    R{v};");
        }
        for e in &self.edges {
            let _ = writeln!(out, "    R{} -- R{};", e.u, e.v);
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryGraph(n={}, m={})", self.n, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> QueryGraph {
        QueryGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = path4();
        assert_eq!(g.num_relations(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.all_relations(), RelSet::full(4));
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = QueryGraph::new(3).unwrap();
        assert_eq!(
            g.add_edge(0, 3),
            Err(QueryGraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(g.add_edge(1, 1), Err(QueryGraphError::SelfLoop { node: 1 }));
        g.add_edge(0, 1).unwrap();
        assert_eq!(
            g.add_edge(1, 0),
            Err(QueryGraphError::DuplicateEdge { u: 0, v: 1 })
        );
    }

    #[test]
    fn rejects_too_many_relations() {
        assert_eq!(
            QueryGraph::new(65),
            Err(QueryGraphError::TooManyRelations { n: 65 })
        );
        assert!(QueryGraph::new(64).is_ok());
    }

    #[test]
    fn neighbors_and_degree() {
        let g = path4();
        assert_eq!(g.neighbors(0), RelSet::single(1));
        assert_eq!(g.neighbors(1), RelSet::from_indices([0, 2]));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn set_neighborhood() {
        let g = path4();
        assert_eq!(
            g.neighborhood(RelSet::from_indices([1, 2])),
            RelSet::from_indices([0, 3])
        );
        assert_eq!(g.neighborhood(RelSet::single(0)), RelSet::single(1));
        assert_eq!(g.neighborhood(RelSet::full(4)), RelSet::EMPTY);
        assert_eq!(g.neighborhood(RelSet::EMPTY), RelSet::EMPTY);
    }

    #[test]
    fn neighborhood_union_law() {
        // 𝒩(S ∪ S') = (𝒩(S) ∪ 𝒩(S')) \ (S ∪ S')   (paper, Section 3.2)
        let g = path4();
        let s = RelSet::single(0);
        let t = RelSet::single(2);
        let lhs = g.neighborhood(s | t);
        let rhs = (g.neighborhood(s) | g.neighborhood(t)) - (s | t);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn connected_sets() {
        let g = path4();
        assert!(g.is_connected_set(RelSet::single(2)));
        assert!(g.is_connected_set(RelSet::from_indices([0, 1, 2])));
        assert!(!g.is_connected_set(RelSet::from_indices([0, 2])));
        assert!(!g.is_connected_set(RelSet::EMPTY));
        assert!(g.is_connected());
    }

    #[test]
    fn sets_connected_cross_edges() {
        let g = path4();
        assert!(g.sets_connected(RelSet::from_indices([0, 1]), RelSet::from_indices([2, 3])));
        assert!(!g.sets_connected(RelSet::single(0), RelSet::from_indices([2, 3])));
        assert!(!g.sets_connected(RelSet::EMPTY, RelSet::full(4)));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.require_connected(), Err(QueryGraphError::Disconnected));
    }

    #[test]
    fn empty_graph_not_connected() {
        let g = QueryGraph::new(0).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn single_node_graph_connected() {
        let g = QueryGraph::new(1).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn edge_lookup() {
        let g = path4();
        assert_eq!(g.edge_between(1, 0), Some(0));
        assert_eq!(g.edge_between(2, 1), Some(1));
        assert_eq!(g.edge_between(0, 2), None);
        assert_eq!(g.edge_between(0, 9), None);
    }

    #[test]
    fn cut_edges() {
        let g = path4();
        let left = RelSet::from_indices([0, 1]);
        let right = RelSet::from_indices([2, 3]);
        let cut: Vec<_> = g.edges_between_sets(left, right).collect();
        assert_eq!(cut, vec![1]); // the (1,2) edge
    }

    #[test]
    fn dot_output_contains_edges() {
        let dot = path4().to_dot();
        assert!(dot.contains("R0 -- R1"));
        assert!(dot.contains("R2 -- R3"));
        assert!(dot.starts_with("graph query {"));
    }

    #[test]
    fn edge_normalization_and_display() {
        let e = Edge::new(5, 2);
        assert_eq!(e, Edge { u: 2, v: 5 });
        assert_eq!(e.as_set(), RelSet::from_indices([2, 5]));
        assert_eq!(e.to_string(), "R2 — R5");
    }
}
