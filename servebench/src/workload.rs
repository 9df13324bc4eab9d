//! The four workloads: seeded query generators and the request streams
//! built from them before any timing starts.
//!
//! A stream is a pure function of `(workload, seed, seconds)`. Each
//! distinct request line is stored once; the timed and warm-up
//! sequences are indices into those lines, so `hot-small`'s million-odd
//! draws from a pool of 256 cost 256 lines of memory.

use std::fmt::Write as _;

use joinopt_cost::workload::{family_workload, random_workload, Workload};
use joinopt_cost::Catalog;
use joinopt_qgraph::GraphKind;
use joinopt_telemetry::json::write_escaped;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 4] = ["hot-small", "cold-small", "dense-engine", "mixed-2conn"];

/// Size of the repeated-query pool of `hot-small` and `mixed-2conn`.
pub const POOL: usize = 256;

/// Extra-edge probability of the dense near-cliques. Their density
/// lands around the service's 90 % `Auto` threshold, mostly above it.
pub const NEAR_CLIQUE_EXTRA_EDGES: f64 = 0.95;

/// Distinct sparse queries sent before `cold-small` and `dense-engine`
/// time anything: enough to fill the default 8 MiB cache (about 10,000
/// fit), so every timed insert runs against a full cache.
const CACHE_FILL: usize = 16_000;

/// The sparse shapes: chains, stars and cycles with 3–8 relations.
const SPARSE_KINDS: [GraphKind; 3] = [GraphKind::Chain, GraphKind::Star, GraphKind::Cycle];
const SPARSE_SHAPES: usize = 3 * 6;

/// Sparse shape number `i` of [`SPARSE_SHAPES`].
fn sparse_shape(i: usize) -> Shape {
    Shape::Family(SPARSE_KINDS[i % 3], 3 + i / 3 % 6)
}

/// The `cold-small` mix per 100 requests: 98 fresh sparse queries of
/// random shapes (`None`) and 2 stars with 11 relations. The sparse
/// queries take up to about 100 µs a round trip on a 2-core machine,
/// the stars about 230 µs, so the 99th percentile is the stars' median.
/// Without them it would fall in the upper tail of the 8-relation stars,
/// which host interruptions of a few tens of µs move by up to a third
/// from run to run.
const COLD_MIX: [(Option<Shape>, usize); 2] =
    [(None, 98), (Some(Shape::Family(GraphKind::Star, 11)), 2)];

/// The `dense-engine` mix per 100 requests. Engine time grows with the
/// relation count (about 0.4-1.6 ms for the stars and 10-relation
/// graphs, 2 ms at 11 and 6 ms at 12 on a 2-core machine), so these
/// weights put the median inside the 11-relation population and the
/// 99th percentile inside the 12-relation one: neither percentile sits
/// on the edge between two populations, where it would jump between
/// them from run to run.
const DENSE_MIX: [(Shape, usize); 9] = [
    (Shape::Family(GraphKind::Star, 12), 8),
    (Shape::Family(GraphKind::Star, 13), 8),
    (Shape::Family(GraphKind::Star, 14), 8),
    (Shape::Family(GraphKind::Clique, 10), 8),
    (Shape::NearClique(10), 8),
    (Shape::Family(GraphKind::Clique, 11), 29),
    (Shape::NearClique(11), 29),
    (Shape::Family(GraphKind::Clique, 12), 1),
    (Shape::NearClique(12), 1),
];

/// What a `mixed-2conn` request is.
#[derive(Clone, Copy)]
enum Mixed {
    Pool,
    Fresh,
    Clique10,
}

/// The `mixed-2conn` mix per 100 requests.
const MIXED_MIX: [(Mixed, usize); 3] =
    [(Mixed::Pool, 80), (Mixed::Fresh, 17), (Mixed::Clique10, 3)];

/// `count` draws with the given weights: whole blocks of one draw per
/// weight unit, each block in a seeded order, so any prefix of the
/// sequence keeps the mix to within one block.
fn blocks<T: Copy>(rng: &mut Rng, weights: &[(T, usize)], count: usize) -> Vec<T> {
    let mut block: Vec<T> = weights
        .iter()
        .flat_map(|&(x, w)| std::iter::repeat_n(x, w))
        .collect();
    let mut out = Vec::with_capacity(count + block.len());
    while out.len() < count {
        rng.shuffle(&mut block);
        out.extend_from_slice(&block);
    }
    out.truncate(count);
    out
}

/// SplitMix64: a tiny seeded generator for stream decisions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for the named sub-stream of `seed`.
    pub fn new(seed: u64, tag: &str) -> Rng {
        Rng(tag.bytes().fold(mix(seed), |h, b| mix(h ^ u64::from(b))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The query families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One of the paper's graph families with `n` relations.
    Family(GraphKind, usize),
    /// A random connected graph with `n` relations and extra-edge
    /// probability [`NEAR_CLIQUE_EXTRA_EDGES`].
    NearClique(usize),
}

/// A generated query's identity: rebuilding it gives the same graph and
/// statistics, which is what the answer checks rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryId {
    /// The family.
    pub shape: Shape,
    /// The seed of its statistics (and, for near-cliques, its edges).
    pub seed: u64,
}

impl QueryId {
    /// The generator's own graph and catalog.
    pub fn build(self) -> Workload {
        let w = match self.shape {
            Shape::Family(kind, n) => family_workload(kind, n, self.seed),
            Shape::NearClique(n) => random_workload(n, NEAR_CLIQUE_EXTRA_EDGES, self.seed),
        };
        rounded(w)
    }
}

/// States the statistics the way a catalog would: whole row counts and
/// selectivities to three significant digits, which keeps request lines
/// short.
fn rounded(w: Workload) -> Workload {
    let mut catalog = Catalog::new(&w.graph);
    for i in 0..w.graph.num_relations() {
        catalog
            .set_cardinality(i, w.catalog.cardinality(i).round())
            .expect("generated cardinalities are at least 10");
    }
    for e in 0..w.graph.num_edges() {
        let s = w.catalog.selectivity(e);
        let scale = 10f64.powi(2 - s.log10().floor() as i32);
        catalog
            .set_selectivity(e, ((s * scale).round() / scale).min(1.0))
            .expect("rounded selectivities stay in (0, 1]");
    }
    Workload {
        graph: w.graph,
        catalog,
    }
}

/// The native-DSL text of a generated query.
pub fn dsl(w: &Workload) -> String {
    let mut q = String::new();
    for i in 0..w.graph.num_relations() {
        let _ = writeln!(q, "relation r{i} {}", w.catalog.cardinality(i));
    }
    for (e, edge) in w.graph.edges().iter().enumerate() {
        let _ = writeln!(
            q,
            "join r{} r{} {}",
            edge.u,
            edge.v,
            w.catalog.selectivity(e)
        );
    }
    q
}

/// The SQL text of a generated query: the same relations, predicates
/// and statistics as [`dsl`], in the same order.
pub fn sql(w: &Workload) -> String {
    let tables: Vec<String> = (0..w.graph.num_relations())
        .map(|i| format!("r{i} /*+ rows={} */", w.catalog.cardinality(i)))
        .collect();
    let preds: Vec<String> = w
        .graph
        .edges()
        .iter()
        .enumerate()
        .map(|(e, edge)| {
            format!(
                "r{}.k = r{}.k /*+ sel={} */",
                edge.u,
                edge.v,
                w.catalog.selectivity(e)
            )
        })
        .collect();
    format!(
        "SELECT * FROM {} WHERE {}",
        tables.join(", "),
        preds.join(" AND ")
    )
}

/// One workload's generated input.
pub struct Stream {
    /// Client connections the workload drives.
    pub connections: usize,
    /// The generator identity and form (`true` = SQL) of each distinct
    /// request line; a line's `id` field is its index here.
    pub texts: Vec<(QueryId, bool)>,
    /// Untimed warm-up, as text indices.
    pub warmup: Vec<u32>,
    /// The timed sequence, as text indices. Request `i` goes out on
    /// connection `i % connections`.
    pub timed: Vec<u32>,
    buf: String,
    ends: Vec<usize>,
}

impl Stream {
    fn new(connections: usize) -> Stream {
        Stream {
            connections,
            texts: Vec::new(),
            warmup: Vec::new(),
            timed: Vec::new(),
            buf: String::new(),
            ends: Vec::new(),
        }
    }

    /// Renders a query as a new distinct request line; returns its index.
    fn push(&mut self, id: QueryId, as_sql: bool) -> u32 {
        let w = id.build();
        let text = if as_sql { sql(&w) } else { dsl(&w) };
        let index = self.texts.len();
        let _ = write!(
            self.buf,
            "{{\"verb\":\"optimize\",\"id\":\"{index}\",\"query\":"
        );
        write_escaped(&mut self.buf, &text);
        self.buf.push_str("}\n");
        self.ends.push(self.buf.len());
        self.texts.push((id, as_sql));
        u32::try_from(index).expect("fewer than 2^32 distinct lines")
    }

    /// The newline-terminated request line of text `t`.
    pub fn line(&self, t: u32) -> &str {
        let t = t as usize;
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        &self.buf[start..self.ends[t]]
    }
}

/// A fresh sparse query of a random shape.
fn sparse(rng: &mut Rng) -> QueryId {
    QueryId {
        shape: sparse_shape(rng.below(SPARSE_SHAPES)),
        seed: rng.next_u64(),
    }
}

/// The shared pool, as (DSL, SQL) line pairs; only the DSL lines are
/// rendered unless `with_sql`. Shapes go round-robin, so every pool
/// holds the same mix.
fn pool(s: &mut Stream, seed: u64, with_sql: bool) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, "pool");
    (0..POOL)
        .map(|j| {
            let id = QueryId {
                shape: sparse_shape(j),
                seed: rng.next_u64(),
            };
            let d = s.push(id, false);
            (d, if with_sql { s.push(id, true) } else { d })
        })
        .collect()
}

/// Builds workload `name` at `seed` for a timed window of `seconds`;
/// warm-ups and the pool do not depend on it. `None` for an unknown
/// name.
///
/// The timed streams are caps: a request rate above what a 2-core
/// machine reaches, times `seconds`. A run ends early only if its
/// stream runs out.
pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Stream> {
    let count = |per_second: f64| ((per_second * seconds) as usize).max(1);
    let mut rng = Rng::new(seed, name);
    let s = match name {
        // Every timed request repeats a warm pool entry: a cache hit.
        "hot-small" => {
            let mut s = Stream::new(1);
            let pool = pool(&mut s, seed, false);
            s.warmup = pool.iter().map(|p| p.0).collect();
            s.timed = (0..count(80_000.0))
                .map(|_| pool[rng.below(POOL)].0)
                .collect();
            s
        }
        // Every request is new, and the warm-up fills the cache first,
        // so each timed insert evicts.
        "cold-small" => {
            let mut s = Stream::new(1);
            s.warmup = (0..CACHE_FILL)
                .map(|_| s.push(sparse(&mut rng), false))
                .collect();
            s.timed = blocks(&mut rng, &COLD_MIX, count(30_000.0))
                .into_iter()
                .map(|shape| {
                    let id = match shape {
                        Some(shape) => QueryId {
                            shape,
                            seed: rng.next_u64(),
                        },
                        None => sparse(&mut rng),
                    };
                    s.push(id, false)
                })
                .collect();
            s
        }
        // The cache is full before timing starts here too, so the
        // server's memory is at its steady state.
        "dense-engine" => {
            let mut s = Stream::new(1);
            s.warmup = (0..CACHE_FILL)
                .map(|_| s.push(sparse(&mut rng), false))
                .collect();
            let mut dense = |s: &mut Stream, n: usize| -> Vec<u32> {
                blocks(&mut rng, &DENSE_MIX, n)
                    .into_iter()
                    .map(|shape| {
                        s.push(
                            QueryId {
                                shape,
                                seed: rng.next_u64(),
                            },
                            false,
                        )
                    })
                    .collect()
            };
            let warm = dense(&mut s, 20);
            s.warmup.extend(warm);
            s.timed = dense(&mut s, count(800.0));
            s
        }
        // A quarter of all texts are SQL.
        "mixed-2conn" => {
            let mut s = Stream::new(2);
            let pool = pool(&mut s, seed, true);
            s.warmup = pool.iter().map(|p| p.0).collect();
            s.timed = blocks(&mut rng, &MIXED_MIX, count(50_000.0))
                .into_iter()
                .map(|kind| {
                    let as_sql = rng.below(4) == 0;
                    match kind {
                        Mixed::Pool => {
                            let (d, q) = pool[rng.below(POOL)];
                            if as_sql {
                                q
                            } else {
                                d
                            }
                        }
                        Mixed::Fresh => s.push(sparse(&mut rng), as_sql),
                        Mixed::Clique10 => {
                            let id = QueryId {
                                shape: Shape::Family(GraphKind::Clique, 10),
                                seed: rng.next_u64(),
                            };
                            s.push(id, as_sql)
                        }
                    }
                })
                .collect();
            s
        }
        _ => return None,
    };
    Some(s)
}
