//! Acceptance tests for plan provenance: the candidate stream is
//! strictly opt-in ([`Observer::wants_provenance`]), costs nothing when
//! not requested, and — when requested — reconstructs exactly the
//! decisions the optimizer made.

use std::cell::Cell;

use joinopt_core::{
    Algorithm, DpCcp, DpSize, DpSizeLeftDeep, DpSizeNaive, DpSub, DpSubCrossProducts,
    DpSubUnfiltered, Idp, JoinOrderer, OptimizeRequest, TopDown,
};
use joinopt_cost::{workload, Cout};
use joinopt_plan::JoinTree;
use joinopt_qgraph::GraphKind;
use joinopt_telemetry::{Event, NoopObserver, Observer, ProvenanceCollector};

/// Enabled for the regular event stream, but does *not* override
/// [`Observer::wants_provenance`] — so receiving a provenance event is
/// a contract violation, not a surprise.
#[derive(Default)]
struct NoProvenancePlease {
    events: Cell<u64>,
}

impl Observer for NoProvenancePlease {
    fn on_event(&self, event: Event) {
        if matches!(
            event,
            Event::PlanCandidate { .. } | Event::SearchPruned { .. }
        ) {
            panic!(
                "observer without wants_provenance received {:?}",
                event.name()
            );
        }
        self.events.set(self.events.get() + 1);
    }
}

/// Collects every join node's (union, left, right) relation-set split.
fn tree_splits(tree: &JoinTree, out: &mut Vec<(u64, u64, u64)>) {
    if let JoinTree::Join { left, right, .. } = tree {
        let l = left.relations().bits();
        let r = right.relations().bits();
        out.push((l | r, l, r));
        tree_splits(left, out);
        tree_splits(right, out);
    }
}

#[test]
fn enabled_observers_without_the_opt_in_see_no_provenance_events() {
    let w = workload::random_workload(7, 0.5, 11);
    // The served algorithms, then the ablations and IDP, which run
    // through their orderers.
    let others: [&dyn JoinOrderer; 6] = [
        &DpSizeNaive,
        &DpSubUnfiltered,
        &DpSubCrossProducts,
        &TopDown { pruning: true },
        &DpSizeLeftDeep,
        &Idp::with_block_size(10),
    ];
    let orderers = Algorithm::CONCRETE.map(|alg| alg.orderer(&w.graph));
    for orderer in orderers.into_iter().chain(others) {
        let alg = orderer.name();
        let baseline = orderer.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let sink = NoProvenancePlease::default();
        let observed = orderer
            .optimize_observed(&w.graph, &w.catalog, &Cout, &sink)
            .unwrap();
        // The regular stream still flows, and nothing observed changes
        // what is computed.
        assert!(sink.events.get() > 0, "{alg} emitted no events");
        assert_eq!(
            baseline.cost.to_bits(),
            observed.cost.to_bits(),
            "{alg} cost"
        );
        assert_eq!(baseline.tree, observed.tree, "{alg} plan");
        assert_eq!(baseline.counters, observed.counters, "{alg} counters");
    }
}

#[test]
fn collector_reconstructs_every_decision_the_winning_plan_made() {
    let cases: [(GraphKind, &dyn JoinOrderer); 4] = [
        (GraphKind::Star, &DpSize),
        (GraphKind::Chain, &DpSub),
        (GraphKind::Cycle, &DpCcp),
        (GraphKind::Star, &TopDown { pruning: true }),
    ];
    for (kind, orderer) in cases {
        let alg = orderer.name();
        let w = workload::family_workload(kind, 8, 0);
        let prov = ProvenanceCollector::new();
        let result = orderer
            .optimize_observed(&w.graph, &w.catalog, &Cout, &prov)
            .unwrap();

        assert_eq!(prov.relations(), 8);
        assert!(prov.total_candidates() > 0, "{alg}");

        // Every join in the winning tree must be the recorded winner
        // for its relation set, with the same operand orientation.
        let mut splits = Vec::new();
        tree_splits(&result.tree, &mut splits);
        assert_eq!(splits.len(), 7, "{alg}");
        for (set, left, right) in splits {
            let rec = prov
                .record(set)
                .unwrap_or_else(|| panic!("{alg}: no record for set {set:#b}"));
            let winner = rec.winner.expect("winner");
            assert_eq!((winner.left, winner.right), (left, right), "{alg} {set:#b}");
            assert!(winner.cost.is_finite());
            // The runner-up never beats the winner.
            if let Some(delta) = rec.cost_delta() {
                assert!(delta >= 0.0, "{alg} {set:#b}: negative delta {delta}");
            }
            assert!(rec.candidates >= 1);
        }
    }
}

#[test]
fn dpsub_emits_candidates_only_on_request_and_records_them_exactly() {
    let w = workload::family_workload(GraphKind::Star, 12, 0);
    let run = |obs: &dyn Observer| {
        OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_observer(obs)
            .run()
            .unwrap()
            .into_result()
    };

    // A metrics-only observer gets the regular stream and no candidate.
    let plain = run(&NoopObserver);
    let sink = NoProvenancePlease::default();
    let observed = run(&sink);
    assert!(sink.events.get() > 0);

    // A provenance run changes nothing about the result.
    let prov = ProvenanceCollector::new();
    let traced = run(&prov);
    assert_eq!(plain.cost.to_bits(), observed.cost.to_bits());
    assert_eq!(plain.cost.to_bits(), traced.cost.to_bits());
    assert_eq!(plain.tree, observed.tree);
    assert_eq!(plain.tree, traced.tree);
    assert_eq!(plain.counters, traced.counters);

    // The stream reconstructs the run's decisions: every join of the
    // winning tree is its set's recorded winner, and the candidate count
    // equals the csg-cmp-pairs considered.
    let mut splits = Vec::new();
    tree_splits(&traced.tree, &mut splits);
    for (set, left, right) in splits {
        let rec = prov.record(set).expect("record for tree split");
        let winner = rec.winner.expect("winner");
        assert_eq!((winner.left, winner.right), (left, right), "{set:#b}");
    }
    assert_eq!(
        prov.total_candidates(),
        traced.counters.csg_cmp_pairs,
        "candidates must equal csg-cmp-pairs considered"
    );

    // Deterministic: a second run records the same decisions.
    let again = ProvenanceCollector::new();
    run(&again);
    assert_eq!(again.records(), prov.records());
}
