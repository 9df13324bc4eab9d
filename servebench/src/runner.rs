//! One workload, end to end: server set-up, warm-up, the timed closed
//! loop, answer checks and, when traced, the live-server readout and the
//! in-process replay.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use joinopt_telemetry::json::JsonValue;

use crate::affinity;
use crate::check::check_sample;
use crate::replay::{replay, write_trace};
use crate::report::{Metric, Outcome, RunSettings, PER_LAYER};
use crate::serve::{Conn, Server};
use crate::stats::{median_iqr, percentile};
use crate::workload::{self, Rng, Stream};

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Replies checked against the reference per run.
const CHECKED: usize = 1_000;
/// Requests replayed per traced run (`dense-engine` replays fewer: each
/// of its requests runs the engine three times over).
const REPLAYED: usize = 5_000;
const REPLAYED_DENSE: usize = 2_000;
/// Failure descriptions kept per run.
const KEPT_ERRORS: usize = 5;
/// Tenant of the warm-up requests.
const WARMUP_TENANT: &str = "warm-up";

/// Keeps a uniform sample of `k` replies (reservoir sampling).
struct Reservoir {
    k: usize,
    seen: usize,
    items: Vec<(u32, String)>,
    rng: Rng,
}

impl Reservoir {
    fn offer(&mut self, t: u32, reply: &str) {
        self.seen += 1;
        if self.items.len() < self.k {
            self.items.push((t, reply.to_string()));
        } else {
            let j = self.rng.below(self.seen);
            if j < self.k {
                self.items[j] = (t, reply.to_string());
            }
        }
    }
}

/// What one connection measured in the timed window.
struct Driven {
    latencies_ns: Vec<u64>,
    attempted: u64,
    ok: u64,
    errors: Vec<String>,
    start: Instant,
    end: Instant,
    sample: Vec<(u32, String)>,
}

/// Drives connection `c` in a closed loop over its share of the timed
/// stream until the window closes or its share runs out, on `cpu` when
/// given.
fn drive(
    conn: &mut Conn,
    stream: &Stream,
    c: usize,
    seconds: f64,
    cpu: Option<usize>,
    reservoir: Reservoir,
    barrier: &Barrier,
) -> Driven {
    if let Some(cpu) = cpu {
        affinity::pin(1 << cpu);
    }
    let mut reservoir = reservoir;
    let share = (c..stream.timed.len()).step_by(stream.connections);
    let mut latencies_ns = Vec::with_capacity(share.len());
    let (mut attempted, mut ok, mut errors) = (0, 0, Vec::new());
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for i in share {
        let t = stream.timed[i];
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        attempted += 1;
        match conn.call(stream.line(t)) {
            Ok(reply) => {
                latencies_ns.push(sent.elapsed().as_nanos() as u64);
                if reply.contains("\"status\":\"ok\"") {
                    ok += 1;
                    reservoir.offer(t, reply);
                } else if errors.len() < KEPT_ERRORS {
                    errors.push(format!("text {t}: {reply}"));
                }
            }
            Err(e) => {
                errors.push(format!("connection {c}: {e}"));
                break;
            }
        }
    }
    Driven {
        latencies_ns,
        attempted,
        ok,
        errors,
        start,
        end: Instant::now(),
        sample: reservoir.items,
    }
}

/// The `(hits, misses)` counters of a `stats` reply.
fn cache_counts(stats: &JsonValue) -> (f64, f64) {
    let get = |k: &str| stats.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    (get("cache_hits"), get("cache_misses"))
}

/// The server's own p50 of the `total` stage of the timed (default
/// tenant) `optimize` requests, in ns.
fn server_total_p50_ns(metrics: &JsonValue) -> Option<f64> {
    metrics
        .get("window")?
        .get("stages")?
        .as_array()?
        .iter()
        .find(|s| {
            let field = |k: &str| s.get(k).and_then(JsonValue::as_str);
            field("tenant") == Some("")
                && field("verb") == Some("optimize")
                && field("stage") == Some("total")
        })?
        .get("p50_ns")?
        .as_f64()
}

/// `k` positions of `0..n`, seeded, ascending.
pub fn sample_positions(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Rng::new(seed, "replay").shuffle(&mut all);
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Runs workload `name`; `out` is where the socket and trace files go.
pub fn run_workload(name: &'static str, opts: RunSettings, out: &Path) -> Result<Outcome, String> {
    // `--quick` cuts the timed stream and the samples to a tenth.
    let divisor = if opts.quick { 10 } else { 1 };
    let stream = workload::build(name, opts.seed, opts.seconds / divisor as f64)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let socket: PathBuf = out.join(format!("serve-{}.sock", std::process::id()));
    let io = |what: &'static str| move |e: std::io::Error| format!("{name}: {what}: {e}");

    // One connection runs client and server on the fastest CPU (see
    // `affinity`); two connections need both CPUs.
    let cpu = if stream.connections == 1 {
        affinity::fastest_cpu()
    } else {
        None
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let (server, first, _) = loop {
        let started = Server::start(&socket, cpu).map_err(io("server start"))?;
        setups.push(started.2);
        if setups.len() == SETUPS {
            break started;
        }
        started
            .0
            .shutdown(started.1)
            .map_err(io("server shutdown"))?;
    };
    let mut conns = vec![first];
    for _ in 1..stream.connections {
        conns.push(Conn::connect(server.socket()).map_err(io("connect"))?);
    }

    // Warm-up requests go out under their own tenant, so the server's
    // windowed metrics keep them apart from the timed requests.
    let mut errors = Vec::new();
    for (i, &t) in stream.warmup.iter().enumerate() {
        let conn = &mut conns[i % stream.connections];
        let line = stream
            .line(t)
            .replacen('{', &format!("{{\"tenant\":\"{WARMUP_TENANT}\","), 1);
        match conn.call(&line) {
            Ok(reply) if reply.contains("\"status\":\"ok\"") => {}
            Ok(reply) => errors.push(format!("warm-up text {t}: {reply}")),
            Err(e) => return Err(format!("{name}: warm-up: {e}")),
        }
    }
    let warmup_failures = errors.len() as u64;
    let stats0 = if opts.trace {
        Some(conns[0].verb("stats").map_err(io("stats"))?)
    } else {
        None
    };

    let barrier = Barrier::new(stream.connections);
    let per_conn = CHECKED / divisor / stream.connections;
    let driven: Vec<Driven> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let reservoir = Reservoir {
                    k: per_conn,
                    seen: 0,
                    items: Vec::with_capacity(per_conn),
                    rng: Rng::new(opts.seed, &format!("check-{c}")),
                };
                let (stream, barrier) = (&stream, &barrier);
                scope.spawn(move || drive(conn, stream, c, opts.seconds, cpu, reservoir, barrier))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let peak_rss_mib = server.peak_rss_mib().map_err(io("peak RSS"))?;
    let live = match stats0 {
        Some(stats0) => {
            let stats1 = conns[0].verb("stats").map_err(io("stats"))?;
            let metrics = conns[0].verb("metrics").map_err(io("metrics"))?;
            let ((h0, m0), (h1, m1)) = (cache_counts(&stats0), cache_counts(&stats1));
            let total = server_total_p50_ns(&metrics)
                .ok_or(format!("{name}: no total stage in metrics"))?;
            Some((total, (h1 - h0) / (h1 - h0 + m1 - m0).max(1.0)))
        }
        None => None,
    };
    let conn0 = conns.swap_remove(0);
    drop(conns);
    server.shutdown(conn0).map_err(io("server shutdown"))?;

    let mut latencies: Vec<u64> = driven
        .iter()
        .flat_map(|d| d.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let attempted: u64 = driven.iter().map(|d| d.attempted).sum();
    let ok: u64 = driven.iter().map(|d| d.ok).sum();
    let start = driven
        .iter()
        .map(|d| d.start)
        .min()
        .expect("one connection at least");
    let end = driven
        .iter()
        .map(|d| d.end)
        .max()
        .expect("one connection at least");
    let sample: Vec<(u32, String)> = driven
        .iter()
        .flat_map(|d| d.sample.iter().cloned())
        .collect();
    let failed_checks = check_sample(&stream, &sample);
    let mut failed = (attempted - ok) + warmup_failures + failed_checks.len() as u64;
    errors.extend(driven.into_iter().flat_map(|d| d.errors));
    errors.extend(failed_checks);

    let p50_us = percentile(&latencies, 0.50) as f64 / 1e3;
    let end_to_end = vec![
        Metric::new("setup_s", "s", median_iqr(setups).0),
        Metric::new("latency_p50_us", "us", p50_us),
        Metric::new(
            "latency_p99_us",
            "us",
            percentile(&latencies, 0.99) as f64 / 1e3,
        ),
        Metric::new(
            "throughput_rps",
            "req/s",
            ok as f64 / (end - start).as_secs_f64(),
        ),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib),
        Metric::new(
            "error_frac",
            "fraction",
            failed as f64 / attempted.max(1) as f64,
        ),
        Metric::new("samples", "count", latencies.len() as f64),
    ];

    let mut per_layer = Vec::new();
    if let Some((total_ns, hit_frac)) = live {
        let k = if name == "dense-engine" {
            REPLAYED_DENSE
        } else {
            REPLAYED
        } / divisor;
        let positions = sample_positions(stream.timed.len(), k, opts.seed);
        let r = replay(&stream, &positions);
        write_trace(
            &out.join(format!("trace-{name}.json")),
            name,
            opts.seed,
            &r.spans,
        )
        .map_err(io("trace file"))?;
        failed += r.failures.len() as u64;
        errors.extend(r.failures);
        let mut found = r.metrics;
        found.extend([
            Metric::new("serve.server_total_p50_us", "us", total_ns / 1e3),
            Metric::new("serve.transport_p50_us", "us", p50_us - total_ns / 1e3),
            Metric::new("serve.share", "fraction", total_ns / 1e3 / p50_us),
            Metric::new("cache.hit_frac", "fraction", hit_frac),
        ]);
        per_layer = PER_LAYER
            .iter()
            .map(|(n, _, _)| {
                found
                    .iter()
                    .find(|m| m.name == *n)
                    .cloned()
                    .expect("every per-layer metric is measured")
            })
            .collect();
    }
    errors.truncate(KEPT_ERRORS);
    Ok(Outcome {
        workload: name,
        attempted,
        failed,
        end_to_end,
        per_layer,
        errors,
    })
}
