//! Randomized property tests for query-graph invariants and the csg/ccp
//! enumeration, on seeded random connected graphs (deterministic — the
//! in-repo xorshift replaces any external property-test framework).

use joinopt_qgraph::{bfs, csg, generators, profile::CsgProfile, QueryGraph, RelSet};
use joinopt_relset::XorShift64;
use std::collections::HashSet;

const CASES: usize = 64;

/// A seeded random connected graph with 2..=9 nodes.
fn arb_graph(rng: &mut XorShift64) -> QueryGraph {
    let n = rng.gen_range(2..10);
    let density = rng.gen_range(0..11) as f64 / 10.0;
    generators::random_connected(n, density, rng).unwrap()
}

#[test]
fn neighborhood_union_law() {
    let mut rng = XorShift64::seed_from_u64(101);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let bits = rng.next_u64();
        let n = g.num_relations();
        let all = g.all_relations();
        let s = RelSet::from_bits(bits) & all;
        let t = RelSet::from_bits(bits.rotate_left(n as u32 / 2)) & all;
        let lhs = g.neighborhood(s | t);
        let rhs = (g.neighborhood(s) | g.neighborhood(t)) - (s | t);
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn neighborhood_disjoint_from_set() {
    let mut rng = XorShift64::seed_from_u64(102);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let s = RelSet::from_bits(rng.next_u64()) & g.all_relations();
        assert!(g.neighborhood(s).is_disjoint(s));
    }
}

#[test]
fn connected_set_union_with_neighbor_subset_stays_connected() {
    // Paper Section 3.2: if S is connected and S' ⊆ 𝒩(S), then S ∪ S'
    // is connected.
    let mut rng = XorShift64::seed_from_u64(103);
    let mut checked = 0;
    while checked < CASES {
        let g = arb_graph(&mut rng);
        let s = RelSet::from_bits(rng.next_u64()) & g.all_relations();
        let pick = rng.next_u64();
        if s.is_empty() || !g.is_connected_set(s) {
            continue;
        }
        checked += 1;
        let nb = g.neighborhood(s);
        let sp = RelSet::from_bits(pick) & nb;
        assert!(g.is_connected_set(s | sp) || sp.is_empty());
    }
}

#[test]
fn csg_enumeration_exact() {
    let mut rng = XorShift64::seed_from_u64(104);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let n = g.num_relations();
        let emitted: Vec<RelSet> = csg::collect_csgs(&g);
        let uniq: HashSet<RelSet> = emitted.iter().copied().collect();
        assert_eq!(emitted.len(), uniq.len(), "duplicate emission");
        let mut brute = HashSet::new();
        for bits in 1..(1u64 << n) {
            let s = RelSet::from_bits(bits);
            if g.is_connected_set(s) {
                brute.insert(s);
            }
        }
        assert_eq!(uniq, brute);
    }
}

#[test]
fn ccp_pairs_valid_and_unique() {
    let mut rng = XorShift64::seed_from_u64(105);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let pairs = csg::collect_ccps(&g);
        let mut seen = HashSet::new();
        for &(s1, s2) in &pairs {
            assert!(s1.is_disjoint(s2));
            assert!(g.is_connected_set(s1));
            assert!(g.is_connected_set(s2));
            assert!(g.sets_connected(s1, s2));
            let canon = if s1.min_index() < s2.min_index() {
                (s1, s2)
            } else {
                (s2, s1)
            };
            assert!(seen.insert(canon), "pair ({}, {}) emitted twice", s1, s2);
        }
    }
}

#[test]
fn ccp_count_matches_brute_force() {
    let mut rng = XorShift64::seed_from_u64(106);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let n = g.num_relations();
        let mut csgs = Vec::new();
        for bits in 1..(1u64 << n) {
            let s = RelSet::from_bits(bits);
            if g.is_connected_set(s) {
                csgs.push(s);
            }
        }
        let mut brute = 0u64;
        for &s1 in &csgs {
            for &s2 in &csgs {
                if s1.is_disjoint(s2) && g.sets_connected(s1, s2) {
                    brute += 1;
                }
            }
        }
        assert_eq!(csg::count_ccp_distinct(&g) * 2, brute);
    }
}

#[test]
fn profile_sums_to_csg_count() {
    let mut rng = XorShift64::seed_from_u64(107);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let p = CsgProfile::compute(&g);
        assert_eq!(p.csg_count(), u128::from(csg::count_csg(&g)));
    }
}

#[test]
fn bfs_renumber_preserves_structure() {
    let mut rng = XorShift64::seed_from_u64(108);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let (h, order) = bfs::bfs_renumber(&g).unwrap();
        assert!(bfs::is_bfs_numbering(&h));
        assert_eq!(h.num_edges(), g.num_edges());
        // Connected subsets are in bijection: same csg count.
        assert_eq!(csg::count_csg(&h), csg::count_csg(&g));
        assert_eq!(csg::count_ccp_distinct(&h), csg::count_ccp_distinct(&g));
        assert_eq!(order.len(), g.num_relations());
    }
}

#[test]
fn is_connected_set_agrees_with_bfs_reachability() {
    let mut rng = XorShift64::seed_from_u64(109);
    let mut checked = 0;
    while checked < CASES {
        let g = arb_graph(&mut rng);
        let s = RelSet::from_bits(rng.next_u64()) & g.all_relations();
        if s.is_empty() {
            continue;
        }
        checked += 1;
        // Reference: grow from the minimum element edge by edge.
        let start = s.min_index().unwrap();
        let mut reach = RelSet::single(start);
        loop {
            let grow = (g.neighborhood(reach) & s) - reach;
            if grow.is_empty() {
                break;
            }
            reach |= grow;
        }
        assert_eq!(g.is_connected_set(s), reach == s);
    }
}

#[test]
fn sets_connected_iff_cut_edge_exists() {
    let mut rng = XorShift64::seed_from_u64(110);
    for _ in 0..CASES {
        let g = arb_graph(&mut rng);
        let all = g.all_relations();
        let s1 = RelSet::from_bits(rng.next_u64()) & all;
        let s2 = (RelSet::from_bits(rng.next_u64()) & all) - s1;
        let has_cut = g.edges_between_sets(s1, s2).next().is_some();
        assert_eq!(g.sets_connected(s1, s2), has_cut);
    }
}

#[test]
fn every_split_of_a_connected_set_has_a_cut_edge() {
    // The fact Filtered DPsub relies on to skip its S₁–S₂ edge test:
    // once S is known to be connected, every split into two connected
    // halves is joined by an edge (in fact every split into two
    // non-empty parts is, which is checked too).
    let mut rng = XorShift64::seed_from_u64(111);
    let mut connected_splits = 0u64;
    for _ in 0..CASES {
        let n = rng.gen_range(2..11);
        let density = rng.gen_range(0..11) as f64 / 10.0;
        let g = generators::random_connected(n, density, &mut rng).unwrap();
        for bits in 1..1u64 << n {
            let s = RelSet::from_bits(bits);
            if !g.is_connected_set(s) {
                continue;
            }
            for s1 in s.non_empty_proper_subsets() {
                let s2 = s - s1;
                connected_splits += u64::from(g.is_connected_set(s1) && g.is_connected_set(s2));
                assert!(g.sets_connected(s1, s2), "{s1} | {s2} of {s}");
            }
        }
    }
    assert!(connected_splits > 10_000, "{connected_splits}");
}

#[test]
fn arbitrary_renumbering_keeps_enumeration_exact() {
    // Shuffle labels (not BFS!) and check the enumeration still matches
    // brute force — the numbering-independence claim in the module docs.
    let mut rng = XorShift64::seed_from_u64(77);
    for trial in 0..20 {
        let g = generators::random_connected(8, 0.25, &mut rng).unwrap();
        let mut perm: Vec<usize> = (0..8).collect();
        rng.shuffle(&mut perm);
        let h = bfs::renumber(&g, &perm);
        let emitted: HashSet<RelSet> = csg::collect_csgs(&h).into_iter().collect();
        let mut brute = HashSet::new();
        for bits in 1..(1u64 << 8) {
            let s = RelSet::from_bits(bits);
            if h.is_connected_set(s) {
                brute.insert(s);
            }
        }
        assert_eq!(emitted, brute, "trial {trial}");
        assert_eq!(
            csg::count_ccp_distinct(&h),
            csg::count_ccp_distinct(&g),
            "trial {trial}: ccp count changed under relabeling"
        );
    }
}
