//! Self-tests of the workloads, the answer checks, the metric names and
//! the report format.

use joinopt_benchmark::check::{check_reply, generator_spec, reference_cost};
use joinopt_benchmark::compare::{bounds, verdict, Verdict};
use joinopt_benchmark::report::{
    check_report, parse_report, report_json, Machine, Metric, Outcome, RunSettings, END_TO_END,
    PER_LAYER, RUN_ONLY,
};
use joinopt_benchmark::workload::{self, build, dsl, sql, QueryId, Shape, Stream, NAMES};
use joinopt_core::Algorithm;
use joinopt_qgraph::GraphKind;
use joinopt_service::server::parse_query_text;
use joinopt_service::{CacheConfig, OptimizerService, ServiceConfig, ServiceRequest};
use joinopt_telemetry::NoopObserver;

fn lines(s: &Stream) -> Vec<&str> {
    (0..s.texts.len() as u32).map(|t| s.line(t)).collect()
}

#[test]
fn streams_repeat_byte_for_byte_per_seed_and_differ_across_seeds() {
    for name in NAMES {
        let a = build(name, 11, 1.0).unwrap();
        let b = build(name, 11, 1.0).unwrap();
        let c = build(name, 12, 1.0).unwrap();
        assert_eq!(lines(&a), lines(&b), "{name}");
        assert_eq!((&a.warmup, &a.timed), (&b.warmup, &b.timed), "{name}");
        assert_ne!(lines(&a), lines(&c), "{name}");
    }
    assert!(build("no-such-workload", 1, 1.0).is_none());
}

/// Runs `texts` of `s` through a service with the default cache.
fn serve_all(service: &OptimizerService, s: &Stream, texts: &[u32]) {
    let mut session = None;
    for &t in texts {
        let line = joinopt_telemetry::json::JsonValue::parse(s.line(t).trim_end()).unwrap();
        let query = line.get("query").and_then(|q| q.as_str()).unwrap();
        let req = ServiceRequest::new(parse_query_text(query).unwrap());
        service
            .submit_one(&req, &mut session, &NoopObserver)
            .unwrap();
    }
}

#[test]
fn hot_pool_fits_the_default_cache_and_cold_warmup_overflows_it() {
    assert_eq!(ServiceConfig::default().cache, Some(CacheConfig::default()));

    let hot = build("hot-small", 3, 0.01).unwrap();
    let service = OptimizerService::default();
    serve_all(&service, &hot, &hot.warmup);
    serve_all(&service, &hot, &hot.timed);
    let stats = service.cache().unwrap().stats();
    assert_eq!((stats.entries, stats.evictions), (workload::POOL, 0));
    assert_eq!(stats.hits, hot.timed.len() as u64);

    let cold = build("cold-small", 3, 0.01).unwrap();
    let service = OptimizerService::default();
    serve_all(&service, &cold, &cold.warmup);
    let before = service.cache().unwrap().stats();
    assert!(before.evictions > 0, "the warm-up fills the cache");
    serve_all(&service, &cold, &cold.timed);
    let after = service.cache().unwrap().stats();
    assert_eq!(after.hits, 0);
    assert!(after.evictions - before.evictions >= cold.timed.len() as u64 / 2);
}

#[test]
fn dense_engine_straddles_the_auto_density_threshold() {
    let dense = build("dense-engine", 5, 1.0).unwrap();
    let density = |t: &u32| {
        let spec = generator_spec(&dense, *t);
        let n = spec.num_relations();
        spec.num_edges() as f64 / (n * (n - 1) / 2) as f64
    };
    assert!(dense.timed.iter().any(|t| density(t) >= 0.9));
    assert!(dense.timed.iter().any(|t| density(t) < 0.9));
    let near = QueryId {
        shape: Shape::NearClique(12),
        seed: 0,
    };
    let below = (0..400u64)
        .map(|seed| QueryId { seed, ..near }.build())
        .filter(|w| (w.graph.num_edges() as f64) < 0.9 * 66.0)
        .count();
    assert!(
        below > 0 && below < 400,
        "near-cliques fall on both sides: {below}"
    );
}

#[test]
fn dsl_and_sql_forms_give_identical_cost_bits() {
    for seed in 0..40u64 {
        for shape in [
            Shape::Family(GraphKind::Chain, 5),
            Shape::Family(GraphKind::Cycle, 7),
            Shape::Family(GraphKind::Clique, 6),
            Shape::Family(GraphKind::Star, 9),
            Shape::NearClique(8),
        ] {
            let w = QueryId { shape, seed }.build();
            let from_dsl = parse_query_text(&dsl(&w)).unwrap();
            let from_sql = parse_query_text(&sql(&w)).unwrap();
            assert_eq!(from_dsl, from_sql);
            for alg in [Algorithm::DpCcp, Algorithm::DpSub] {
                let a = reference_cost(&from_dsl, alg).unwrap();
                let b = reference_cost(&from_sql, alg).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{shape:?} seed {seed}");
            }
        }
    }
}

#[test]
fn answer_checks_accept_the_server_reply_and_reject_a_wrong_cost() {
    let s = build("mixed-2conn", 9, 0.1).unwrap();
    let service = OptimizerService::new(ServiceConfig {
        cache: None,
        ..ServiceConfig::default()
    });
    for t in [0, 300] {
        let spec = generator_spec(&s, t);
        let out = service
            .submit_one(&ServiceRequest::new(spec.clone()), &mut None, &NoopObserver)
            .unwrap();
        let reply = |cost: f64| {
            format!(
                "{{\"status\":\"ok\",\"id\":\"{t}\",\"cost\":{cost},\"relations\":{},\"algorithm\":\"{}\"}}",
                spec.num_relations(),
                joinopt_service::server::algorithm_name(out.algorithm)
            )
        };
        check_reply(&s, t, &reply(out.result.cost)).unwrap();
        let off = f64::from_bits(out.result.cost.to_bits() + 1);
        assert!(check_reply(&s, t, &reply(off)).is_err());
        assert!(check_reply(&s, t + 1, &reply(out.result.cost)).is_err());
    }
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let well_formed = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&RUN_ONLY)
        .map(|m| m.0)
        .chain(PER_LAYER.iter().map(|m| m.0))
        .chain(NAMES)
        .collect();
    for n in &names {
        assert!(well_formed(n) && n.len() <= 64, "{n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len());

    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let listed: Vec<String> = bounds(&text).unwrap().into_iter().map(|b| b.name).collect();
    assert_eq!(listed, END_TO_END.map(|m| m.0.to_string()));
    let doc = joinopt_telemetry::json::JsonValue::parse(&text).unwrap();
    let listed = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get(field).and_then(|f| f.as_str()).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        listed("per_layer", "name"),
        PER_LAYER.map(|m| m.0.to_string())
    );
    assert_eq!(
        listed("per_layer", "unit"),
        PER_LAYER.map(|m| m.1.to_string())
    );
    assert_eq!(
        listed("per_layer", "better"),
        PER_LAYER.map(|m| if m.2 { "higher" } else { "lower" }.to_string())
    );
    assert_eq!(listed("workloads", "name"), NAMES.map(str::to_string));
}

#[test]
fn report_round_trips_through_the_telemetry_json_reader() {
    let metric = |(name, unit): (&'static str, &'static str), value: f64| Metric {
        name,
        unit,
        value,
        iqr: None,
    };
    let outcomes: Vec<Outcome> = NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| Outcome {
            workload: name,
            attempted: 1000 + i as u64,
            failed: 0,
            end_to_end: END_TO_END
                .into_iter()
                .chain(RUN_ONLY)
                .enumerate()
                .map(|(j, m)| metric(m, 0.1 * j as f64 + 1.0 / 3.0))
                .collect(),
            per_layer: PER_LAYER
                .iter()
                .map(|&(name, unit, _)| Metric {
                    iqr: Some(2.5),
                    ..metric((name, unit), 1e-7 * (i + 1) as f64)
                })
                .collect(),
            errors: Vec::new(),
        })
        .collect();
    let settings = RunSettings {
        seed: 2006,
        seconds: 10.0,
        trace: true,
        quick: false,
    };
    let machine = Machine {
        nproc: 2,
        cpu: "cpu \"quoted\"".into(),
        rustc: "rustc".into(),
        commit: "abc".into(),
    };
    let text = report_json(settings, &machine, &outcomes);
    check_report(&text).unwrap();
    let (_, parsed) = parse_report(&text).unwrap();
    for (o, p) in outcomes.iter().zip(&parsed) {
        assert_eq!(p.name, o.workload);
        let expected: Vec<(String, f64, String)> = o
            .end_to_end
            .iter()
            .chain(&o.per_layer)
            .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
            .collect();
        assert_eq!(p.metrics, expected);
    }
}

#[test]
fn compare_verdicts() {
    let a = [10.0, 10.1, 9.9, 10.0, 10.2];
    assert_eq!(
        verdict(&a, &[10.1, 10.0, 10.2, 9.9, 10.0], false, 0.1),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.2], false, 0.1),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.2], true, 0.1),
        Verdict::Ok
    );
    let wide = [5.0, 15.0, 10.0, 20.0, 2.0];
    assert_eq!(verdict(&a, &wide, false, 0.1), Verdict::Unresolved);
    // A wide spread still resolves when every run of one side wins.
    assert_eq!(
        verdict(&[1.0, 2.0, 3.0], &[4.0, 8.0, 12.0], false, 0.1),
        Verdict::Worse
    );
}
