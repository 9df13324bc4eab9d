//! Pins the exact bytes of the window and registry snapshots. The
//! expected strings below were produced before their stores were keyed
//! by borrowed names; they fix the (tenant, verb, stage) and
//! (name, labels) orders, including the empty tenant `""` sorting first
//! and labels given in any order landing in one sorted series.

use joinopt_telemetry::{MetricsRegistry, RequestTrace, WindowConfig, WindowedMetrics};

const SEC: u64 = 1_000_000_000;

/// Six traces over the tenants `"b"`, `""`, `"ab"` and `"a"`, with
/// spans filed out of stage order.
fn traces() -> Vec<RequestTrace> {
    let mut out = Vec::new();
    let mut t = RequestTrace::new("t1".into(), "b", "optimize", 1_000);
    t.span("respond", 5_000, 6_500);
    t.span("accept", 1_000, 1_200);
    t.begin("breaker", 1_200);
    t.end(1_900);
    t.span("optimize", 2_000, 4_800);
    t.finish("ok", 7_000);
    out.push(t);
    let mut t = RequestTrace::new("t2".into(), "", "optimize", 10_000);
    t.span("cache-lookup", 10_500, 13_000);
    t.span("accept", 10_000, 10_400);
    t.span("shed-check", 10_400, 10_450);
    t.span("respond", 13_000, 14_000);
    t.finish("ok", 14_100);
    out.push(t);
    let mut t = RequestTrace::new("t3".into(), "ab", "optimize", 20_000);
    t.span("optimize", 21_000, 90_000);
    t.span("accept", 20_000, 20_700);
    t.finish("error", 91_000);
    out.push(t);
    let mut t = RequestTrace::new("t4".into(), "a", "trace", 30_000);
    t.span("respond", 30_100, 30_900);
    t.finish("ok", 31_000);
    out.push(t);
    let mut t = RequestTrace::new("t5".into(), "a", "optimize", SEC + 5);
    t.span("breaker", SEC + 300, SEC + 800);
    t.span("accept", SEC + 5, SEC + 300);
    t.begin_attempt("optimize", 1, SEC + 900);
    t.end(SEC + 40_000);
    t.finish("ok", SEC + 41_000);
    out.push(t);
    let mut t = RequestTrace::new("t6".into(), "", "optimize", SEC + 50_000);
    t.span("respond", SEC + 60_000, SEC + 75_000);
    t.span("accept", SEC + 50_000, SEC + 51_000);
    t.span("cache-lookup", SEC + 51_000, SEC + 59_000);
    t.finish("ok", SEC + 76_000);
    out.push(t);
    out
}

#[test]
fn window_snapshot_bytes_are_pinned() {
    let mut windows = WindowedMetrics::new(WindowConfig {
        bucket_width_ns: SEC,
        buckets: 4,
    });
    for trace in traces() {
        windows.record_trace(&trace);
    }
    let snap = windows.snapshot(2 * SEC);
    assert_eq!(snap.to_json(), WINDOW_JSON);
    assert_eq!(snap.to_prometheus(), WINDOW_PROMETHEUS);
}

#[test]
fn registry_snapshot_bytes_are_pinned() {
    let reg = MetricsRegistry::new();
    reg.inc("joinopt_b_total", &[("z", "1"), ("a", "2")], 3);
    reg.inc("joinopt_b_total", &[("a", "2"), ("z", "1")], 4);
    reg.inc("joinopt_b_total", &[("a", "1")], 1);
    reg.inc("joinopt_b_total", &[("a", "")], 2);
    reg.inc("joinopt_b_total", &[], 9);
    reg.set_gauge("joinopt_a_bytes", &[], 42);
    reg.set_gauge("joinopt_a_bytes", &[("shard", "1")], -7);
    reg.record(
        "joinopt_c_ns",
        &[("phase", "x"), ("algorithm", "DPccp")],
        100,
    );
    reg.record(
        "joinopt_c_ns",
        &[("algorithm", "DPccp"), ("phase", "x")],
        200,
    );
    reg.record(
        "joinopt_c_ns",
        &[("phase", "x"), ("algorithm", "DPccp")],
        3000,
    );
    reg.record("joinopt_c_ns", &[("algorithm", "DPccp")], 5);
    reg.inc("joinopt_d_total", &[("m", "2"), ("z", "0"), ("b", "9")], 1);
    reg.inc("joinopt_d_total", &[("z", "0"), ("b", "9"), ("m", "2")], 1);
    let snap = reg.snapshot();
    assert_eq!(snap.to_json(), REGISTRY_JSON);
    assert_eq!(snap.to_prometheus(), REGISTRY_PROMETHEUS);
}

const WINDOW_JSON: &str = concat!(
    "{\"window_ns\":4000000000,\"stages\":[{\"tenant\":\"\",\"verb\":\"optimize\",\"stage\":\"accept\",\"count\":2,\"rate_per_sec\":0.500,\"p50_ns\":400,\"p99_ns\":992,\"max_ns\":1000},",
    "{\"tenant\":\"\",\"verb\":\"optimize\",\"stage\":\"cache-lookup\",\"count\":2,\"rate_per_sec\":0.500,\"p50_ns\":2500,\"p99_ns\":7936,\"max_ns\":8000},",
    "{\"tenant\":\"\",\"verb\":\"optimize\",\"stage\":\"respond\",\"count\":2,\"rate_per_sec\":0.500,\"p50_ns\":1000,\"p99_ns\":14848,\"max_ns\":15000},",
    "{\"tenant\":\"\",\"verb\":\"optimize\",\"stage\":\"shed-check\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":50,\"p99_ns\":50,\"max_ns\":50},",
    "{\"tenant\":\"\",\"verb\":\"optimize\",\"stage\":\"total\",\"count\":2,\"rate_per_sec\":0.500,\"p50_ns\":4100,\"p99_ns\":25600,\"max_ns\":26000},",
    "{\"tenant\":\"a\",\"verb\":\"optimize\",\"stage\":\"accept\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":295,\"p99_ns\":295,\"max_ns\":295},",
    "{\"tenant\":\"a\",\"verb\":\"optimize\",\"stage\":\"breaker\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":500,\"p99_ns\":500,\"max_ns\":500},",
    "{\"tenant\":\"a\",\"verb\":\"optimize\",\"stage\":\"optimize\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":39100,\"p99_ns\":39100,\"max_ns\":39100},",
    "{\"tenant\":\"a\",\"verb\":\"optimize\",\"stage\":\"total\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":40995,\"p99_ns\":40995,\"max_ns\":40995},",
    "{\"tenant\":\"a\",\"verb\":\"trace\",\"stage\":\"respond\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":800,\"p99_ns\":800,\"max_ns\":800},",
    "{\"tenant\":\"a\",\"verb\":\"trace\",\"stage\":\"total\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":1000,\"p99_ns\":1000,\"max_ns\":1000},",
    "{\"tenant\":\"ab\",\"verb\":\"optimize\",\"stage\":\"accept\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":700,\"p99_ns\":700,\"max_ns\":700},",
    "{\"tenant\":\"ab\",\"verb\":\"optimize\",\"stage\":\"optimize\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":69000,\"p99_ns\":69000,\"max_ns\":69000},",
    "{\"tenant\":\"ab\",\"verb\":\"optimize\",\"stage\":\"total\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":71000,\"p99_ns\":71000,\"max_ns\":71000},",
    "{\"tenant\":\"b\",\"verb\":\"optimize\",\"stage\":\"accept\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":200,\"p99_ns\":200,\"max_ns\":200},",
    "{\"tenant\":\"b\",\"verb\":\"optimize\",\"stage\":\"breaker\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":700,\"p99_ns\":700,\"max_ns\":700},",
    "{\"tenant\":\"b\",\"verb\":\"optimize\",\"stage\":\"optimize\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":2800,\"p99_ns\":2800,\"max_ns\":2800},",
    "{\"tenant\":\"b\",\"verb\":\"optimize\",\"stage\":\"respond\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":1500,\"p99_ns\":1500,\"max_ns\":1500},",
    "{\"tenant\":\"b\",\"verb\":\"optimize\",\"stage\":\"total\",\"count\":1,\"rate_per_sec\":0.250,\"p50_ns\":6000,\"p99_ns\":6000,\"max_ns\":6000}]}",
);

const WINDOW_PROMETHEUS: &str = r#"joinopt_serve_stage_window_count{tenant="",verb="optimize",stage="accept"} 2
joinopt_serve_stage_window_count{tenant="",verb="optimize",stage="cache-lookup"} 2
joinopt_serve_stage_window_count{tenant="",verb="optimize",stage="respond"} 2
joinopt_serve_stage_window_count{tenant="",verb="optimize",stage="shed-check"} 1
joinopt_serve_stage_window_count{tenant="",verb="optimize",stage="total"} 2
joinopt_serve_stage_window_count{tenant="a",verb="optimize",stage="accept"} 1
joinopt_serve_stage_window_count{tenant="a",verb="optimize",stage="breaker"} 1
joinopt_serve_stage_window_count{tenant="a",verb="optimize",stage="optimize"} 1
joinopt_serve_stage_window_count{tenant="a",verb="optimize",stage="total"} 1
joinopt_serve_stage_window_count{tenant="a",verb="trace",stage="respond"} 1
joinopt_serve_stage_window_count{tenant="a",verb="trace",stage="total"} 1
joinopt_serve_stage_window_count{tenant="ab",verb="optimize",stage="accept"} 1
joinopt_serve_stage_window_count{tenant="ab",verb="optimize",stage="optimize"} 1
joinopt_serve_stage_window_count{tenant="ab",verb="optimize",stage="total"} 1
joinopt_serve_stage_window_count{tenant="b",verb="optimize",stage="accept"} 1
joinopt_serve_stage_window_count{tenant="b",verb="optimize",stage="breaker"} 1
joinopt_serve_stage_window_count{tenant="b",verb="optimize",stage="optimize"} 1
joinopt_serve_stage_window_count{tenant="b",verb="optimize",stage="respond"} 1
joinopt_serve_stage_window_count{tenant="b",verb="optimize",stage="total"} 1
joinopt_serve_stage_p50_ns{tenant="",verb="optimize",stage="accept"} 400
joinopt_serve_stage_p50_ns{tenant="",verb="optimize",stage="cache-lookup"} 2500
joinopt_serve_stage_p50_ns{tenant="",verb="optimize",stage="respond"} 1000
joinopt_serve_stage_p50_ns{tenant="",verb="optimize",stage="shed-check"} 50
joinopt_serve_stage_p50_ns{tenant="",verb="optimize",stage="total"} 4100
joinopt_serve_stage_p50_ns{tenant="a",verb="optimize",stage="accept"} 295
joinopt_serve_stage_p50_ns{tenant="a",verb="optimize",stage="breaker"} 500
joinopt_serve_stage_p50_ns{tenant="a",verb="optimize",stage="optimize"} 39100
joinopt_serve_stage_p50_ns{tenant="a",verb="optimize",stage="total"} 40995
joinopt_serve_stage_p50_ns{tenant="a",verb="trace",stage="respond"} 800
joinopt_serve_stage_p50_ns{tenant="a",verb="trace",stage="total"} 1000
joinopt_serve_stage_p50_ns{tenant="ab",verb="optimize",stage="accept"} 700
joinopt_serve_stage_p50_ns{tenant="ab",verb="optimize",stage="optimize"} 69000
joinopt_serve_stage_p50_ns{tenant="ab",verb="optimize",stage="total"} 71000
joinopt_serve_stage_p50_ns{tenant="b",verb="optimize",stage="accept"} 200
joinopt_serve_stage_p50_ns{tenant="b",verb="optimize",stage="breaker"} 700
joinopt_serve_stage_p50_ns{tenant="b",verb="optimize",stage="optimize"} 2800
joinopt_serve_stage_p50_ns{tenant="b",verb="optimize",stage="respond"} 1500
joinopt_serve_stage_p50_ns{tenant="b",verb="optimize",stage="total"} 6000
joinopt_serve_stage_p99_ns{tenant="",verb="optimize",stage="accept"} 992
joinopt_serve_stage_p99_ns{tenant="",verb="optimize",stage="cache-lookup"} 7936
joinopt_serve_stage_p99_ns{tenant="",verb="optimize",stage="respond"} 14848
joinopt_serve_stage_p99_ns{tenant="",verb="optimize",stage="shed-check"} 50
joinopt_serve_stage_p99_ns{tenant="",verb="optimize",stage="total"} 25600
joinopt_serve_stage_p99_ns{tenant="a",verb="optimize",stage="accept"} 295
joinopt_serve_stage_p99_ns{tenant="a",verb="optimize",stage="breaker"} 500
joinopt_serve_stage_p99_ns{tenant="a",verb="optimize",stage="optimize"} 39100
joinopt_serve_stage_p99_ns{tenant="a",verb="optimize",stage="total"} 40995
joinopt_serve_stage_p99_ns{tenant="a",verb="trace",stage="respond"} 800
joinopt_serve_stage_p99_ns{tenant="a",verb="trace",stage="total"} 1000
joinopt_serve_stage_p99_ns{tenant="ab",verb="optimize",stage="accept"} 700
joinopt_serve_stage_p99_ns{tenant="ab",verb="optimize",stage="optimize"} 69000
joinopt_serve_stage_p99_ns{tenant="ab",verb="optimize",stage="total"} 71000
joinopt_serve_stage_p99_ns{tenant="b",verb="optimize",stage="accept"} 200
joinopt_serve_stage_p99_ns{tenant="b",verb="optimize",stage="breaker"} 700
joinopt_serve_stage_p99_ns{tenant="b",verb="optimize",stage="optimize"} 2800
joinopt_serve_stage_p99_ns{tenant="b",verb="optimize",stage="respond"} 1500
joinopt_serve_stage_p99_ns{tenant="b",verb="optimize",stage="total"} 6000
joinopt_serve_stage_rate_per_sec{tenant="",verb="optimize",stage="accept"} 0.500
joinopt_serve_stage_rate_per_sec{tenant="",verb="optimize",stage="cache-lookup"} 0.500
joinopt_serve_stage_rate_per_sec{tenant="",verb="optimize",stage="respond"} 0.500
joinopt_serve_stage_rate_per_sec{tenant="",verb="optimize",stage="shed-check"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="",verb="optimize",stage="total"} 0.500
joinopt_serve_stage_rate_per_sec{tenant="a",verb="optimize",stage="accept"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="a",verb="optimize",stage="breaker"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="a",verb="optimize",stage="optimize"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="a",verb="optimize",stage="total"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="a",verb="trace",stage="respond"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="a",verb="trace",stage="total"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="ab",verb="optimize",stage="accept"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="ab",verb="optimize",stage="optimize"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="ab",verb="optimize",stage="total"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="b",verb="optimize",stage="accept"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="b",verb="optimize",stage="breaker"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="b",verb="optimize",stage="optimize"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="b",verb="optimize",stage="respond"} 0.250
joinopt_serve_stage_rate_per_sec{tenant="b",verb="optimize",stage="total"} 0.250
"#;

const REGISTRY_JSON: &str = concat!(
    "{\"metrics\":[{\"name\":\"joinopt_a_bytes\",\"labels\":{},\"type\":\"gauge\",\"value\":42},",
    "{\"name\":\"joinopt_a_bytes\",\"labels\":{\"shard\":\"1\"},\"type\":\"gauge\",\"value\":-7},",
    "{\"name\":\"joinopt_b_total\",\"labels\":{},\"type\":\"counter\",\"value\":9},",
    "{\"name\":\"joinopt_b_total\",\"labels\":{\"a\":\"\"},\"type\":\"counter\",\"value\":2},",
    "{\"name\":\"joinopt_b_total\",\"labels\":{\"a\":\"1\"},\"type\":\"counter\",\"value\":1},",
    "{\"name\":\"joinopt_b_total\",\"labels\":{\"a\":\"2\",\"z\":\"1\"},\"type\":\"counter\",\"value\":7},",
    "{\"name\":\"joinopt_c_ns\",\"labels\":{\"algorithm\":\"DPccp\"},\"type\":\"histogram\",\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"p50\":5,\"p90\":5,\"p99\":5},",
    "{\"name\":\"joinopt_c_ns\",\"labels\":{\"algorithm\":\"DPccp\",\"phase\":\"x\"},\"type\":\"histogram\",\"count\":3,\"sum\":3300,\"min\":100,\"max\":3000,\"p50\":200,\"p90\":2944,\"p99\":2944},",
    "{\"name\":\"joinopt_d_total\",\"labels\":{\"b\":\"9\",\"m\":\"2\",\"z\":\"0\"},\"type\":\"counter\",\"value\":2}]}",
);

const REGISTRY_PROMETHEUS: &str = r#"# TYPE joinopt_a_bytes gauge
joinopt_a_bytes 42
joinopt_a_bytes{shard="1"} -7
# TYPE joinopt_b_total counter
joinopt_b_total 9
joinopt_b_total{a=""} 2
joinopt_b_total{a="1"} 1
joinopt_b_total{a="2",z="1"} 7
# TYPE joinopt_c_ns summary
joinopt_c_ns{algorithm="DPccp",quantile="0.5"} 5
joinopt_c_ns{algorithm="DPccp",quantile="0.9"} 5
joinopt_c_ns{algorithm="DPccp",quantile="0.99"} 5
joinopt_c_ns{algorithm="DPccp",quantile="1"} 5
joinopt_c_ns_sum{algorithm="DPccp"} 5
joinopt_c_ns_count{algorithm="DPccp"} 1
joinopt_c_ns{algorithm="DPccp",phase="x",quantile="0.5"} 200
joinopt_c_ns{algorithm="DPccp",phase="x",quantile="0.9"} 2944
joinopt_c_ns{algorithm="DPccp",phase="x",quantile="0.99"} 2944
joinopt_c_ns{algorithm="DPccp",phase="x",quantile="1"} 3000
joinopt_c_ns_sum{algorithm="DPccp",phase="x"} 3300
joinopt_c_ns_count{algorithm="DPccp",phase="x"} 3
# TYPE joinopt_d_total counter
joinopt_d_total{b="9",m="2",z="0"} 2
"#;
