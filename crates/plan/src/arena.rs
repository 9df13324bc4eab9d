//! Append-only plan storage: [`PlanArena`].

use joinopt_cost::PlanStats;
use joinopt_relset::{RelIdx, RelSet};

use crate::tree::JoinTree;

/// Index of a plan node inside a [`PlanArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(u32);

impl PlanId {
    /// Sentinel id for "no plan yet" slots in direct-addressed DP
    /// tables. Never valid to dereference; arenas panic long before
    /// `u32::MAX` nodes.
    pub const SENTINEL: PlanId = PlanId(u32::MAX);

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operator at a plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanNodeKind {
    /// A base-table scan of one relation.
    Scan(RelIdx),
    /// A join of two previously built sub-plans.
    Join(PlanId, PlanId),
}

#[derive(Debug, Clone)]
struct Node {
    kind: PlanNodeKind,
    set: RelSet,
    stats: PlanStats,
}

/// Append-only storage of plan nodes.
///
/// `CreateJoinTree(p1, p2)` from the paper is [`PlanArena::add_join`];
/// it costs one `Vec` push. Discarded candidates simply stay in the arena
/// unreferenced — for the DP algorithms in this workspace the arena size
/// is bounded by the number of *accepted* plans plus one in-flight
/// candidate, because the enumerators only materialize a node once it is
/// known to improve the table (they compute the candidate's cost first).
#[derive(Debug, Clone, Default)]
pub struct PlanArena {
    nodes: Vec<Node>,
}

impl PlanArena {
    /// Creates an empty arena.
    pub fn new() -> PlanArena {
        PlanArena { nodes: Vec::new() }
    }

    /// Creates an arena pre-sized for `cap` nodes.
    pub fn with_capacity(cap: usize) -> PlanArena {
        PlanArena {
            nodes: Vec::with_capacity(cap),
        }
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff no node has been stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes of node storage currently allocated (capacity, not just the
    /// occupied prefix) — the arena's memory footprint for telemetry.
    pub fn bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
    }

    /// Bytes of node storage `nodes` nodes occupy.
    pub fn bytes_for(nodes: usize) -> usize {
        nodes * std::mem::size_of::<Node>()
    }

    /// Drops every node while keeping the allocation, so a pooled arena
    /// (an optimizer session reused across queries) pays the node
    /// storage only once. Previously issued [`PlanId`]s are invalidated.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Adds a base-table scan of `relation` with the given cardinality.
    pub fn add_scan(&mut self, relation: RelIdx, cardinality: f64) -> PlanId {
        self.push(Node {
            kind: PlanNodeKind::Scan(relation),
            set: RelSet::single(relation),
            stats: PlanStats::base(cardinality),
        })
    }

    /// Adds a join of two existing sub-plans (`CreateJoinTree`).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the operands' relation sets overlap —
    /// a join tree must contain every relation once.
    pub fn add_join(&mut self, left: PlanId, right: PlanId, stats: PlanStats) -> PlanId {
        let set = {
            let (l, r) = (&self.nodes[left.index()], &self.nodes[right.index()]);
            debug_assert!(
                l.set.is_disjoint(r.set),
                "join operands overlap: {} vs {}",
                l.set,
                r.set
            );
            l.set | r.set
        };
        self.push(Node {
            kind: PlanNodeKind::Join(left, right),
            set,
            stats,
        })
    }

    fn push(&mut self, node: Node) -> PlanId {
        assert!(
            self.nodes.len() < u32::MAX as usize,
            "plan arena overflow: {} nodes",
            self.nodes.len()
        );
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        PlanId(id)
    }

    /// The operator at `id`.
    pub fn kind(&self, id: PlanId) -> PlanNodeKind {
        self.nodes[id.index()].kind
    }

    /// The set of relations covered by the sub-plan at `id`.
    pub fn set(&self, id: PlanId) -> RelSet {
        self.nodes[id.index()].set
    }

    /// Cardinality and cost of the sub-plan at `id`.
    pub fn stats(&self, id: PlanId) -> PlanStats {
        self.nodes[id.index()].stats
    }

    /// Extracts the sub-plan rooted at `id` as an owned [`JoinTree`].
    pub fn extract(&self, id: PlanId) -> JoinTree {
        let node = &self.nodes[id.index()];
        match node.kind {
            PlanNodeKind::Scan(rel) => JoinTree::Scan {
                relation: rel,
                cardinality: node.stats.cardinality,
            },
            PlanNodeKind::Join(l, r) => JoinTree::Join {
                left: Box::new(self.extract(l)),
                right: Box::new(self.extract(r)),
                cardinality: node.stats.cardinality,
                cost: node.stats.cost,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_nodes() {
        let mut a = PlanArena::new();
        assert!(a.is_empty());
        let id = a.add_scan(3, 123.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.kind(id), PlanNodeKind::Scan(3));
        assert_eq!(a.set(id), RelSet::single(3));
        assert_eq!(a.stats(id).cardinality, 123.0);
        assert_eq!(a.stats(id).cost, 0.0);
    }

    #[test]
    fn join_nodes_union_sets() {
        let mut a = PlanArena::with_capacity(8);
        let r0 = a.add_scan(0, 10.0);
        let r1 = a.add_scan(1, 20.0);
        let j = a.add_join(
            r0,
            r1,
            PlanStats {
                cardinality: 15.0,
                cost: 15.0,
            },
        );
        assert_eq!(a.set(j), RelSet::from_indices([0, 1]));
        assert_eq!(a.kind(j), PlanNodeKind::Join(r0, r1));
        assert_eq!(a.stats(j).cost, 15.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlap")]
    fn overlapping_join_panics_in_debug() {
        let mut a = PlanArena::new();
        let r0 = a.add_scan(0, 10.0);
        let r0b = a.add_scan(0, 10.0);
        let _ = a.add_join(
            r0,
            r0b,
            PlanStats {
                cardinality: 1.0,
                cost: 1.0,
            },
        );
    }

    #[test]
    fn extract_builds_recursive_tree() {
        let mut a = PlanArena::new();
        let r0 = a.add_scan(0, 10.0);
        let r1 = a.add_scan(1, 20.0);
        let r2 = a.add_scan(2, 30.0);
        let j01 = a.add_join(
            r0,
            r1,
            PlanStats {
                cardinality: 5.0,
                cost: 5.0,
            },
        );
        let top = a.add_join(
            j01,
            r2,
            PlanStats {
                cardinality: 2.0,
                cost: 7.0,
            },
        );
        let tree = a.extract(top);
        assert_eq!(tree.num_joins(), 2);
        assert_eq!(tree.relations(), RelSet::full(3));
        assert_eq!(tree.cost(), 7.0);
        assert_eq!(tree.cardinality(), 2.0);
    }
}
