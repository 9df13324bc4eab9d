//! DPsub: subset-driven enumeration (paper, Fig. 2 / Section 2.2), and
//! the pooled [`Session`] it runs in.
//!
//! All three variants — [`DpSub`], [`DpSubUnfiltered`] and
//! [`DpSubCrossProducts`] — share one loop over a direct-addressed
//! table ([`DenseDpTable`]), whether they are called through
//! [`JoinOrderer`] or through [`OptimizeRequest`](crate::OptimizeRequest).
//!
//! The best plan for a set `S` depends only on strictly smaller sets,
//! so the outer loop visits the subsets level by level — all sets of
//! size `k` in ascending numeric order (Gosper's hack), then size
//! `k + 1` — which is a valid DP order just like Fig. 2's integer loop
//! `i = 1 … 2ⁿ−1`. Only each set's winning split is materialized, so
//! the arena holds exactly one node per table entry and
//! `plans_built == table_size`.
//!
//! Fig. 2's inner loop lets `S₁` range over every non-empty proper
//! subset of `S`, so it meets each split twice, as `(A, B)` and later
//! as `(B, A)`. The inner loop here meets it once: `A` runs in
//! ascending masked-increment order over the non-empty subsets of `S`
//! without its highest relation, and `B = S ∖ A`. Each pair is:
//!
//! * **counted as both orientations** — `InnerCounter` grows by 2 per
//!   pair, `#ccp` by 2 per valid pair, and the table probes and hits by
//!   what the two ordered visits would have made — so every counter is
//!   Fig. 2's;
//! * **priced once under a symmetric model** (both orientations cost
//!   the same bits) and in both orientations otherwise. A `C_out`-shaped
//!   model is priced inline ([`cout_cost`]), not through the trait
//!   object: the same sum in the same order, so the same bits. Its
//!   finiteness is checked once per set, on the largest price, which
//!   overflows exactly when one of them does;
//! * **decided by the `(cost, S₁)` order**: a candidate wins when its
//!   cost is smaller, or equal with a smaller `S₁`. That is exactly
//!   "the first `S₁` in ascending order with the least cost", the
//!   winner of Fig. 2's loop with strict `<`, so trees and cost bits
//!   are Fig. 2's under every model. Under a symmetric model the order
//!   is a plain `<`: `A` ascends, so an equal cost never comes with a
//!   smaller `S₁`, and `(B, A)` never wins;
//! * **reported as both orientations**: provenance gets one candidate
//!   event for `(A, B)` and one for `(B, A)`, so each set's candidate
//!   count and winner are Fig. 2's. An event is accepted when it beats
//!   the candidates met before it in this walk. Under a symmetric model
//!   that matches Fig. 2's order flag for flag; under an asymmetric one
//!   a losing candidate's flag can differ, since `(B, A)` is now met
//!   before the splits Fig. 2 visits between the two orientations.
//!
//! The loop is one source compiled per variant, per model symmetry and
//! for inline `C_out` pricing, so none of these choices is a branch
//! inside it.
//!
//! DPsub's own run — the `*` check, a symmetric `C_out`-shaped model and
//! no provenance, which is every DPsub run the server makes — takes a
//! shorter walk ([`priced_pairs`]). The table prices a set with no plan
//! at `+∞`, so under `C_out` a split's validity is part of its price:
//! `dp(S) = |S| + min(dp(A) + dp(S ∖ A))`, DPconv's min-plus step. Per
//! pair the walk adds two costs and the cardinality, keeps the first
//! cheapest `A` and counts the pairs priced at `+∞`; it tests no
//! presence and counts no probe. `|S|` is folded before the walk, the
//! overflow check is one bound per set on the largest cost registered
//! so far, and `#ccp` and the table probes and hits follow in closed
//! form from the count of invalid pairs. A set whose bound overflows
//! takes the checked pair loop.
//!
//! Implementation notes, all verified by the counter tests:
//!
//! * Fig. 2 prints the outer loop bound as `i < 2ⁿ − 1`, which would
//!   skip the full relation set and never build the final plan; the
//!   intended bound is `i ≤ 2ⁿ − 1`.
//! * "connected S₁" is tested via table membership: the table contains
//!   exactly the connected sets already enumerated (every connected set
//!   has a valid decomposition), so the lookup is O(1) and equivalent to
//!   a graph test. The `InnerCounter` semantics are unchanged — it is
//!   incremented before any test, exactly as in the pseudocode.
//! * With the `*` check, "`S₁` connected to `S₂`" needs no test: `S` is
//!   connected, so every split of it into two non-empty parts has an
//!   edge crossing the cut. Only [`DpSubUnfiltered`], which has no `*`
//!   check, tests the edge.
//!
//! The union's output cardinality is the estimator's set-only fold,
//! computed once per set (at its first valid split) and reused for
//! every later split of the set. When the table holds `S` without its
//! highest relation, the fold continues from that set's stored
//! cardinality with one
//! [`extend_cardinality`](CardinalityEstimator::extend_cardinality)
//! step instead of starting over: the same multiplications in the same
//! order, so the same bits.
//!
//! The walk over a set's pairs runs in counted blocks of at most
//! `POLL_PERIOD` (256) pairs with one
//! [`poll`](CancellationToken::poll) of the token before each, so the
//! loop body holds no cancellation code, and a raised flag or a passed
//! deadline stops the run within two blocks, inside the set.

use joinopt_cost::{CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::PlanArena;
use joinopt_qgraph::QueryGraph;
use joinopt_relset::RelSet;
use joinopt_telemetry::Observer;

use crate::cancel::{CancellationToken, POLL_PERIOD};
use crate::counters::Counters;
use crate::driver::{Spans, TableStats};
use crate::error::OptimizeError;
use crate::failpoint;
use crate::kernel::{cardinality, cout_cost, finite_cost, pair_cost};
use crate::result::{DpResult, JoinOrderer};
use crate::table::{arena_charge, DenseDpTable};

/// DPsub as in Fig. 2, including the `*` connectedness pre-check on the
/// outer subset.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSub;

impl JoinOrderer for DpSub {
    fn name(&self) -> &'static str {
        Variant::Filtered.name()
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(g, catalog, model, Variant::Filtered, obs, ctl, session)
    }
}

/// DPsub **without** the `*` connectedness pre-check: the inner subset
/// loop runs even for disconnected outer sets (every test then fails).
/// Ablation variant; on cliques it is identical to [`DpSub`], on chains
/// dramatically worse.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSubUnfiltered;

impl JoinOrderer for DpSubUnfiltered {
    fn name(&self) -> &'static str {
        Variant::Unfiltered.name()
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(g, catalog, model, Variant::Unfiltered, obs, ctl, session)
    }
}

/// The Vance/Maier original: optimal bushy trees **with** cross
/// products. No connectivity tests at all — every subset of the
/// relations receives a plan, and disconnected splits become cross
/// products (cut selectivity 1). Exists both as the historical baseline
/// DPsub was derived from and to demonstrate how much the search space
/// grows (Section 1 cites this as the motivation for excluding cross
/// products). Cross products make disconnected graphs optimizable.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSubCrossProducts;

impl JoinOrderer for DpSubCrossProducts {
    fn name(&self) -> &'static str {
        Variant::CrossProducts.name()
    }

    fn optimize_in(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
        session: &mut Session,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(g, catalog, model, Variant::CrossProducts, obs, ctl, session)
    }
}

/// Which DPsub variant a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// Fig. 2 with the `*` connectedness pre-check.
    Filtered,
    /// Fig. 2 without the pre-check (ablation).
    Unfiltered,
    /// Vance/Maier with cross products (no connectivity tests).
    CrossProducts,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Filtered => "DPsub",
            Variant::Unfiltered => "DPsub-nofilter",
            Variant::CrossProducts => "DPsub-cp",
        }
    }
}

/// A reusable optimization session: pools the dense `BestPlan` table,
/// the plan arena and DPconv's dense scratch across repeated
/// [`OptimizeRequest`](crate::OptimizeRequest) calls, amortizing the
/// `Θ(2ⁿ)` table initialization and arena growth over a workload
/// instead of paying them per query. DPsub and DPconv always run on the
/// pool; DPsize, its variants and DPccp use the dense table up to
/// [`DenseDpTable::MAX_DRIVER_RELATIONS`] relations and the arena at
/// every size. A run is charged against its memory budget only for the
/// buffers it uses, so the verdict does not depend on what the session
/// ran before.
///
/// Reuse is observable through the existing telemetry events: on a
/// fresh session the first run's `arena_stats.bytes` reflects the
/// growth reallocations, while subsequent runs of same-sized queries
/// report an arena that never grew ([`Session::pooled_bytes`] exposes
/// the same number programmatically).
///
/// ```
/// use joinopt_core::{OptimizeRequest, Session};
/// use joinopt_cost::workload;
/// use joinopt_qgraph::GraphKind;
///
/// let mut session = Session::new();
/// for seed in 0..4 {
///     let w = workload::family_workload(GraphKind::Clique, 8, seed);
///     let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
///         .run_in(&mut session)
///         .unwrap();
///     assert_eq!(outcome.result.tree.num_relations(), 8);
/// }
/// assert_eq!(session.runs(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Session {
    /// The dense `BestPlan` table, reset (not shrunk) between runs.
    table: DenseDpTable,
    /// Pooled plan arena, cleared (not shrunk) between runs.
    arena: PlanArena,
    /// Pooled dense state for DPconv runs (connectivity bitmap,
    /// cardinality/cost tables, witness array, rank lists).
    dpconv: crate::dpconv::DpConvScratch,
    /// Number of optimization runs served.
    runs: u64,
}

impl Session {
    /// Creates an empty session; buffers grow on first use.
    pub fn new() -> Session {
        Session::default()
    }

    /// Number of optimization runs this session has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Bytes currently held by the pooled buffers (dense table, DPconv
    /// scratch, arena) — the allocation a fresh run gets for free.
    pub fn pooled_bytes(&self) -> usize {
        self.table.bytes() + self.arena.bytes() + self.dpconv.bytes()
    }

    /// The pooled DPconv scratch, counting the hand-out as a served run.
    pub(crate) fn dpconv_scratch(&mut self) -> &mut crate::dpconv::DpConvScratch {
        self.runs += 1;
        &mut self.dpconv
    }

    /// The dense table reset for `n ≤` [`DenseDpTable::MAX_RELATIONS`]
    /// relations and the cleared arena, counting a served run.
    pub(crate) fn dense_run(&mut self, n: usize) -> (&mut DenseDpTable, &mut PlanArena) {
        self.runs += 1;
        self.table.reset(n);
        self.arena.clear();
        (&mut self.table, &mut self.arena)
    }

    /// The cleared arena alone, counting a served run.
    pub(crate) fn arena_run(&mut self) -> &mut PlanArena {
        self.runs += 1;
        self.arena.clear();
        &mut self.arena
    }
}

/// What one run reads while it evaluates a set.
struct Context<'a> {
    g: &'a QueryGraph,
    est: &'a CardinalityEstimator,
    model: &'a dyn CostModel,
    /// `model` is `C_out`-shaped, so a symmetric loop prices inline.
    cout: bool,
    ctl: &'a CancellationToken,
}

/// What one run counts.
#[derive(Default)]
struct Tally {
    counters: Counters,
    /// `BestPlan` lookups (operand and union probes), when observing.
    probes: u64,
    /// Probes that found an entry, when observing.
    hits: u64,
    /// Pacing state for [`CancellationToken::poll`].
    pace: u32,
    /// The largest cost registered in the table so far (scans cost 0),
    /// which bounds every price [`priced_pairs`] can form.
    max_cost: f64,
}

/// A [`Variant`] as a type, so the inner loop is compiled once per
/// variant with its split test fixed.
trait Rule {
    const VARIANT: Variant;
}

struct Filtered;
struct Unfiltered;
struct CrossProducts;

impl Rule for Filtered {
    const VARIANT: Variant = Variant::Filtered;
}

impl Rule for Unfiltered {
    const VARIANT: Variant = Variant::Unfiltered;
}

impl Rule for CrossProducts {
    const VARIANT: Variant = Variant::CrossProducts;
}

/// An inner loop: the cheapest valid split of a set as `(stats, S₁)`,
/// or `None` if the set has none.
type SplitFn = fn(
    &Context<'_>,
    &Spans<'_>,
    &DenseDpTable,
    RelSet,
    &mut Tally,
) -> Result<Option<(PlanStats, u64)>, OptimizeError>;

/// The inner loop for `variant` under a model that is (or is not)
/// symmetric. The symmetric loop prices a `C_out`-shaped model inline;
/// [`best_split`] reads that from the run's [`Context`].
fn split_fn(variant: Variant, symmetric: bool) -> SplitFn {
    match (variant, symmetric) {
        (Variant::Filtered, true) => best_split::<Filtered, true>,
        (Variant::Filtered, false) => best_split::<Filtered, false>,
        (Variant::Unfiltered, true) => best_split::<Unfiltered, true>,
        (Variant::Unfiltered, false) => best_split::<Unfiltered, false>,
        (Variant::CrossProducts, true) => best_split::<CrossProducts, true>,
        (Variant::CrossProducts, false) => best_split::<CrossProducts, false>,
    }
}

/// DPsub's inner loop for the set `s`, visiting each complementary
/// split once: `A` runs in ascending masked-increment order over the
/// non-empty subsets of `s` without its highest relation, and
/// `B = s ∖ A`. The pair stands for Fig. 2's two ordered splits
/// `(A, B)` and `(B, A)`, so the counters, probes and hits grow by what
/// both would have added. A `SYMMETRIC` model is priced once per pair,
/// inline when it is `C_out`-shaped, any other in both orientations.
/// The walk runs in counted blocks of at most [`POLL_PERIOD`] pairs
/// with one poll of the token before each, so a tripped budget or a
/// flipped cancel flag stops a run inside a set, within two blocks,
/// not only between levels.
fn best_split<R: Rule, const SYMMETRIC: bool>(
    cx: &Context<'_>,
    spans: &Spans<'_>,
    table: &DenseDpTable,
    s: RelSet,
    t: &mut Tally,
) -> Result<Option<(PlanStats, u64)>, OptimizeError> {
    if SYMMETRIC && cx.cout {
        if R::VARIANT == Variant::Filtered && !spans.provenance() {
            priced_pairs(cx, spans, table, s, t)
        } else {
            complementary_pairs::<R, true, true>(cx, spans, table, s, t)
        }
    } else {
        complementary_pairs::<R, SYMMETRIC, false>(cx, spans, table, s, t)
    }
}

/// [`best_split`]'s filtered, symmetric `C_out` walk when no
/// provenance is wanted: DPconv's min-plus step
/// `dp(S) = |S| + min(dp(A) + dp(S ∖ A))`, where an absent set costs
/// `+∞` in the table, so a pair's validity is part of its price and
/// the walk tests no presence. Per pair it prices, keeps the first
/// cheapest `A` by strict `<` and counts the pairs priced at `+∞`;
/// everything else is per set:
///
/// * `|S|` is folded before the walk (`S` is connected, so it has a
///   valid split);
/// * the overflow check is one bound: every registered cost is at most
///   [`Tally::max_cost`] `M`, and rounding is monotone, so when
///   `(M + M) + |S|` is finite no valid pair overflows and a price is
///   `+∞` exactly when a side is absent. Otherwise the set takes the
///   checked [`complementary_pairs`] loop;
/// * `#ccp` and the table probes and hits come from the count of
///   invalid pairs: every valid pair found both sides, and an invalid
///   one (when observing) the sides it did find. The closed forms are
///   what the ordered walk adds, pair by pair.
fn priced_pairs(
    cx: &Context<'_>,
    spans: &Spans<'_>,
    table: &DenseDpTable,
    s: RelSet,
    t: &mut Tally,
) -> Result<Option<(PlanStats, u64)>, OptimizeError> {
    let set = s.bits();
    let rest = set & !(1u64 << (63 - set.leading_zeros()));
    let below = table.contains(rest).then(|| table.stats(rest).cardinality);
    let card = cardinality(cx.est, s, below)?;
    if !cout_cost(t.max_cost, t.max_cost, card).is_finite() {
        return complementary_pairs::<Filtered, true, true>(cx, spans, table, s, t);
    }
    let pairs = (1u64 << rest.count_ones()) - 1;
    t.counters.inner += 2 * pairs;
    let walk = if spans.on() {
        walk_prices::<true>
    } else {
        walk_prices::<false>
    };
    let (best_cost, best_s1, invalid, seen_invalid) =
        walk(cx.ctl, &mut t.pace, table.costs(), set, rest, pairs, card)?;
    let valid = pairs - invalid;
    t.counters.csg_cmp_pairs += 2 * valid;
    if spans.on() {
        // A valid pair's two ordered splits find both operands, probe
        // the union twice and find it from the second probe on (the
        // first probe of the first valid split misses); an invalid
        // pair's two splits probe once each and find what is present.
        let seen = 2 * valid + seen_invalid;
        t.probes += 2 * pairs + seen + 2 * valid;
        t.hits += seen + 4 * valid - u64::from(valid != 0);
    }
    Ok((best_s1 != 0).then_some((
        PlanStats {
            cardinality: card,
            cost: best_cost,
        },
        best_s1,
    )))
}

/// [`priced_pairs`]'s walk over the `pairs` complementary pairs
/// `(A, set ∖ A)`, `A` ranging over the non-empty subsets of `rest`, in
/// counted blocks with one poll before each: the cheapest price and
/// its `A`, the pairs priced at `+∞` and, when `OBSERVE`, the operands
/// those pairs found present.
fn walk_prices<const OBSERVE: bool>(
    ctl: &CancellationToken,
    pace: &mut u32,
    costs: &[f64],
    set: u64,
    rest: u64,
    pairs: u64,
    card: f64,
) -> Result<(f64, u64, u64, u64), OptimizeError> {
    let mut best_cost = f64::INFINITY;
    let mut best_s1 = 0u64;
    let mut invalid = 0u64;
    let mut seen = 0u64;
    let mut a = 0u64;
    let mut left = pairs;
    while left != 0 {
        let block = left.min(u64::from(POLL_PERIOD));
        left -= block;
        ctl.poll(pace, block as u32)?;
        for _ in 0..block {
            a = a.wrapping_sub(rest) & rest;
            let (ca, cb) = (costs[a as usize], costs[(set ^ a) as usize]);
            let cost = cout_cost(ca, cb, card);
            if cost < best_cost {
                (best_cost, best_s1) = (cost, a);
            }
            if cost == f64::INFINITY {
                invalid += 1;
                if OBSERVE {
                    seen += u64::from(ca < f64::INFINITY) + u64::from(cb < f64::INFINITY);
                }
            }
        }
    }
    Ok((best_cost, best_s1, invalid, seen))
}

/// [`best_split`]'s loop, with inline `C_out` pricing fixed by `COUT`
/// (which implies `SYMMETRIC`).
#[inline(always)]
fn complementary_pairs<R: Rule, const SYMMETRIC: bool, const COUT: bool>(
    cx: &Context<'_>,
    spans: &Spans<'_>,
    table: &DenseDpTable,
    s: RelSet,
    t: &mut Tally,
) -> Result<Option<(PlanStats, u64)>, OptimizeError> {
    let observe = spans.on();
    let set = s.bits();
    let rest = set & !(1u64 << (63 - set.leading_zeros()));
    // `A` walks the non-empty subsets of `rest`: `2^|rest| − 1` pairs,
    // each standing for two ordered splits.
    let pairs = (1u64 << rest.count_ones()) - 1;
    t.counters.inner += 2 * pairs;
    // The running best in the `(cost, S₁)` order. No split has an empty
    // side, so `best_s1 == 0` means no valid split yet, and every
    // (finite) first candidate is below `best_cost`.
    let mut best_cost = f64::INFINITY;
    let mut best_s1 = 0u64;
    let mut card = 0.0f64;
    // The largest inline `C_out` price, checked after the loop.
    let mut worst = 0.0f64;
    let mut a = 0u64;
    // Counted blocks of at most `POLL_PERIOD` pairs, one poll before
    // each, so the walk itself holds no cancellation code.
    let mut left = pairs;
    while left != 0 {
        let block = left.min(u64::from(POLL_PERIOD));
        left -= block;
        cx.ctl.poll(&mut t.pace, block as u32)?;
        for _ in 0..block {
            a = a.wrapping_sub(rest) & rest;
            let b = set ^ a;
            match R::VARIANT {
                Variant::Filtered => {
                    // "connected S1/S2" via table membership. Each
                    // ordered split probes its left operand and, on a
                    // hit, its right one.
                    let pa = table.contains(a);
                    let pb = table.contains(b);
                    if observe {
                        let (pa, pb) = (u64::from(pa), u64::from(pb));
                        t.probes += 2 + pa + pb;
                        t.hits += pa + pb + 2 * pa * pb;
                    }
                    if !(pa && pb) {
                        continue;
                    }
                    // No `S₁`–`S₂` edge test: the `*` check proved `S`
                    // connected, and a connected set split into two
                    // non-empty parts always has an edge crossing the
                    // cut.
                }
                Variant::Unfiltered => {
                    // The ablation probes both operands unconditionally.
                    let pa = table.contains(a);
                    let pb = table.contains(b);
                    if observe {
                        t.probes += 4;
                        t.hits += 2 * (u64::from(pa) + u64::from(pb));
                    }
                    if !(pa && pb) {
                        continue;
                    }
                    if !cx
                        .g
                        .sets_connected(RelSet::from_bits(a), RelSet::from_bits(b))
                    {
                        continue;
                    }
                }
                Variant::CrossProducts => {
                    // Every split is valid; all smaller sets have plans.
                }
            }
            t.counters.csg_cmp_pairs += 2;
            // Union probes: the first hits once an earlier split
            // registered the set, the second always.
            if observe {
                t.probes += 2;
                t.hits += u64::from(best_s1 != 0) + 1;
            }
            let sa = table.stats(a);
            let sb = table.stats(b);
            if best_s1 == 0 {
                let below = table.contains(rest).then(|| table.stats(rest).cardinality);
                card = cardinality(cx.est, s, below)?;
            }
            let cost_ab = if COUT {
                let cost = cout_cost(sa.cost, sb.cost, card);
                worst = if cost > worst { cost } else { worst };
                cost
            } else {
                pair_cost(cx.model, &sa, &sb, card, false)?.0
            };
            // An earlier `B` may be the best `S₁` and exceed `A` only
            // when the model is asymmetric.
            let accepted =
                cost_ab < best_cost || (!SYMMETRIC && cost_ab == best_cost && a < best_s1);
            if accepted {
                (best_cost, best_s1) = (cost_ab, a);
            }
            spans.candidate(set, a, b, cost_ab, accepted);
            // `(B, A)` of a symmetric model costs the same bits as
            // `(A, B)` with a larger `S₁`, so it never wins.
            let (cost_ba, accepted) = if SYMMETRIC {
                (cost_ab, false)
            } else {
                let (cost_ba, _) = pair_cost(cx.model, &sb, &sa, card, false)?;
                (
                    cost_ba,
                    cost_ba < best_cost || (cost_ba == best_cost && b < best_s1),
                )
            };
            if accepted {
                (best_cost, best_s1) = (cost_ba, b);
            }
            spans.candidate(set, b, a, cost_ba, accepted);
        }
    }
    if COUT {
        finite_cost(worst)?;
    }
    Ok((best_s1 != 0).then_some((
        PlanStats {
            cardinality: card,
            cost: best_cost,
        },
        best_s1,
    )))
}

/// The size-`k` subsets of an `n`-relation universe (`k ≤ n < 64`),
/// ascending (Gosper's hack).
fn level_sets(n: usize, k: usize) -> impl Iterator<Item = u64> {
    let limit = 1u64 << n;
    std::iter::successors(Some((1u64 << k) - 1), move |&v| {
        let c = v & v.wrapping_neg();
        let r = v + c;
        let next = (((r ^ v) >> 2) / c) | r;
        (next < limit).then_some(next)
    })
}

/// Runs `variant` on the pooled buffers of `session`.
///
/// Queries above [`DenseDpTable::MAX_RELATIONS`] are refused with
/// [`OptimizeError::TooManyRelations`]. `ctl` is checked before every
/// level and polled inside every inner loop. The run is charged against
/// its memory budget for the `2ⁿ` slots it uses and the nodes it
/// stores, not for the session's whole pooled footprint.
pub(crate) fn run_pooled(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    variant: Variant,
    obs: &dyn Observer,
    ctl: &CancellationToken,
    session: &mut Session,
) -> Result<DpResult, OptimizeError> {
    let split = split_fn(variant, model.is_symmetric());
    run(g, catalog, model, variant, split, obs, ctl, session)
}

/// [`run_pooled`] with the inner loop `split`.
#[allow(clippy::too_many_arguments)]
fn run(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    variant: Variant,
    split: SplitFn,
    obs: &dyn Observer,
    ctl: &CancellationToken,
    session: &mut Session,
) -> Result<DpResult, OptimizeError> {
    let n = g.num_relations();
    let mut spans = Spans::start(obs, variant.name(), n);
    spans.begin("init");
    if n == 0 {
        return Err(OptimizeError::EmptyQuery);
    }
    if n > DenseDpTable::MAX_RELATIONS {
        return Err(OptimizeError::TooManyRelations {
            algorithm: variant.name(),
            relations: n,
            max: DenseDpTable::MAX_RELATIONS,
        });
    }
    if variant != Variant::CrossProducts {
        g.require_connected()?;
    }
    ctl.check()?;
    failpoint::check("estimator")?;
    let est = CardinalityEstimator::new(g, catalog)?;
    let (table, arena) = session.dense_run(n);
    let mut charged = DenseDpTable::bytes_for(n) + arena_charge(n);
    ctl.charge(charged)?;

    for i in 0..n {
        let card = est.base_cardinality(i);
        let plan = arena.add_scan(i, card);
        table.insert(1u64 << i, plan, PlanStats::base(card));
    }
    let mut table_entries = n;
    spans.level(1, n as u64);
    spans.end("init");
    spans.begin("enumerate");

    let cx = Context {
        g,
        est: &est,
        model,
        cout: model.is_cout_shaped(),
        ctl,
    };
    let mut t = Tally::default();
    for k in 2..=n {
        ctl.check()?;
        for bits in level_sets(n, k) {
            let s = RelSet::from_bits(bits);
            // The `*` check of Fig. 2 (outer connectedness pre-check).
            if variant == Variant::Filtered && !g.is_connected_set(s) {
                continue;
            }
            let Some((stats, s1)) = split(&cx, &spans, table, s, &mut t)? else {
                continue;
            };
            let plan = arena.add_join(table.plan(s1), table.plan(bits & !s1), stats);
            table.insert(bits, plan, stats);
            t.max_cost = t.max_cost.max(stats.cost);
            table_entries += 1;
            spans.level(k, 1);
        }
        // Charge the arena growth of this level.
        let now = DenseDpTable::bytes_for(n) + arena_charge(arena.len());
        if now > charged {
            ctl.charge(now - charged)?;
            charged = now;
        }
    }
    let mut counters = t.counters;
    counters.ono_lohman = counters.csg_cmp_pairs / 2;

    spans.end("enumerate");
    spans.begin("extract");
    let full = g.all_relations().bits();
    if !table.contains(full) {
        return Err(OptimizeError::Internal(
            "enumeration finished without a plan for the full relation set".into(),
        ));
    }
    let best = table.stats(full);
    let tree = arena.extract(table.plan(full));
    spans.end("extract");
    let stats = TableStats {
        entries: table_entries,
        capacity: 1usize << n,
        probes: t.probes,
        hits: t.hits,
    };
    spans.finish(Some(stats), arena, &counters);
    Ok(DpResult {
        cost: best.cost,
        cardinality: best.cardinality,
        tree,
        counters,
        table_size: table_entries,
        plans_built: arena.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Algorithm;
    use joinopt_cost::{workload, Cout};
    use joinopt_qgraph::{formulas, generators, GraphKind};
    use joinopt_telemetry::NoopObserver;

    #[test]
    fn inner_counter_matches_figure3_small() {
        let expect = [
            (GraphKind::Chain, 2, 2),
            (GraphKind::Chain, 5, 84),
            (GraphKind::Cycle, 5, 140),
            (GraphKind::Star, 5, 130),
            (GraphKind::Clique, 5, 180),
        ];
        for (kind, n, want) in expect {
            let w = workload::family_workload(kind, n, 1);
            let r = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(r.counters.inner, want, "{kind} n={n}");
        }
    }

    #[test]
    fn pair_counter_is_graph_property() {
        for kind in GraphKind::ALL {
            for n in 2..=9 {
                let w = workload::family_workload(kind, n, 7);
                let r = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(
                    u128::from(r.counters.csg_cmp_pairs),
                    formulas::ccp_total(kind, n as u64),
                    "{kind} n={n}"
                );
            }
        }
    }

    #[test]
    fn unfiltered_counter_is_graph_independent() {
        // Without the `*` check the inner counter is 3ⁿ − 2ⁿ⁺¹ + 1 for
        // every graph shape.
        for kind in GraphKind::ALL {
            let n = 8u32;
            let w = workload::family_workload(kind, n as usize, 2);
            let r = DpSubUnfiltered
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            let want = 3u64.pow(n) - (1 << (n + 1)) + 1;
            assert_eq!(r.counters.inner, want, "{kind}");
        }
    }

    #[test]
    fn unfiltered_equals_filtered_on_cliques() {
        let w = workload::family_workload(GraphKind::Clique, 8, 3);
        let a = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        let b = DpSubUnfiltered
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert_eq!(a.counters.inner, b.counters.inner);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn unfiltered_and_filtered_agree_on_random_graphs() {
        // Filtered DPsub skips the S₁–S₂ edge test the unfiltered
        // variant keeps; both must still accept exactly the same splits,
        // in the same order, on every graph.
        use joinopt_cost::HashJoin;
        for seed in 0..12 {
            let w = workload::random_workload(3 + seed as usize % 8, 0.3, seed);
            for model in [&Cout as &dyn CostModel, &HashJoin] {
                let a = DpSub.optimize(&w.graph, &w.catalog, model).unwrap();
                let b = DpSubUnfiltered
                    .optimize(&w.graph, &w.catalog, model)
                    .unwrap();
                assert_eq!(
                    a.counters.csg_cmp_pairs, b.counters.csg_cmp_pairs,
                    "seed {seed}"
                );
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "seed {seed}");
                assert_eq!(a.tree, b.tree, "seed {seed}");
            }
        }
    }

    #[test]
    fn cross_product_variant_never_worse() {
        // Allowing cross products can only improve (or match) the cost.
        for kind in GraphKind::ALL {
            let w = workload::family_workload(kind, 7, 11);
            let without = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let with = DpSubCrossProducts
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert!(with.cost <= without.cost, "{kind}");
            // And it explores the full 3ⁿ-ish space:
            let n = 7u32;
            assert_eq!(with.counters.inner, 3u64.pow(n) - (1 << (n + 1)) + 1);
            assert_eq!(with.table_size, (1 << n) - 1);
        }
    }

    #[test]
    fn cross_product_variant_handles_disconnected_graphs() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cat = Catalog::new(&g);
        assert!(DpSub.optimize(&g, &cat, &Cout).is_err());
        let r = DpSubCrossProducts.optimize(&g, &cat, &Cout).unwrap();
        assert_eq!(r.tree.num_relations(), 4);
    }

    #[test]
    fn agrees_with_dpsize_on_random_workloads() {
        use crate::dpsize::DpSize;
        for seed in 0..10 {
            let w = workload::random_workload(8, 0.35, seed);
            let a = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            let b = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "seed {seed}: {} vs {}",
                a.cost,
                b.cost
            );
            assert_eq!(
                a.counters.csg_cmp_pairs, b.counters.csg_cmp_pairs,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn table_covers_exactly_connected_sets() {
        let g = generators::cycle(6).unwrap();
        let w = Catalog::new(&g);
        let r = DpSub.optimize(&g, &w, &Cout).unwrap();
        assert_eq!(
            u128::from(r.table_size as u64),
            formulas::csg_count(GraphKind::Cycle, 6)
        );
    }

    #[test]
    fn gosper_enumerates_levels_completely_and_ascending() {
        let mut all = Vec::new();
        for k in 1..=6 {
            let level: Vec<u64> = level_sets(6, k).collect();
            assert!(level.windows(2).all(|w| w[0] < w[1]), "k={k} not ascending");
            assert!(
                level.iter().all(|b| b.count_ones() as usize == k),
                "k={k} has wrong popcounts"
            );
            all.extend(level);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), (1 << 6) - 1, "all non-empty subsets visited");
    }

    #[test]
    fn plans_built_equals_table_size_for_every_variant() {
        use crate::request::OptimizeRequest;
        let w = workload::family_workload(GraphKind::Cycle, 8, 5);
        let orderers: [&dyn JoinOrderer; 3] = [&DpSub, &DpSubUnfiltered, &DpSubCrossProducts];
        // One session for every run: a pooled table left by the previous
        // variant must not change the next one's run.
        let mut session = Session::new();
        for orderer in orderers {
            let name = orderer.name();
            let direct = orderer.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            assert_eq!(direct.plans_built, direct.table_size, "{name} direct");
            let pooled = orderer
                .optimize_in(
                    &w.graph,
                    &w.catalog,
                    &Cout,
                    &NoopObserver,
                    &CancellationToken::unlimited(),
                    &mut session,
                )
                .unwrap();
            assert_eq!(pooled.plans_built, pooled.table_size, "{name}");
            // One loop behind both entry points: identical runs.
            assert_eq!(pooled.cost.to_bits(), direct.cost.to_bits(), "{name}");
            assert_eq!(pooled.tree, direct.tree, "{name}");
            assert_eq!(pooled.counters, direct.counters, "{name}");
        }
        // The request layer runs the served variant through the same loop.
        let requested = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .run_in(&mut session)
            .unwrap()
            .into_result();
        let direct = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(requested.plans_built, requested.table_size);
        assert_eq!(requested.cost.to_bits(), direct.cost.to_bits());
        assert_eq!(requested.tree, direct.tree);
        assert_eq!(requested.counters, direct.counters);
    }

    /// Fig. 2's inner loop as it ran before the complementary-pair
    /// walk: every non-empty proper subset `S₁` in ascending order, one
    /// orientation per visit, the first cheapest `S₁` kept by strict
    /// `<`.
    fn ordered_split<R: Rule>(
        cx: &Context<'_>,
        spans: &Spans<'_>,
        table: &DenseDpTable,
        s: RelSet,
        t: &mut Tally,
    ) -> Result<Option<(PlanStats, u64)>, OptimizeError> {
        let observe = spans.on();
        let mut best: Option<(f64, u64)> = None;
        let mut card = 0.0f64;
        for s1 in s.non_empty_proper_subsets() {
            t.counters.inner += 1;
            cx.ctl.poll(&mut t.pace, 1)?;
            let s2 = s - s1;
            match R::VARIANT {
                Variant::Filtered => {
                    let p1 = table.contains(s1.bits());
                    if observe {
                        t.probes += 1;
                        t.hits += u64::from(p1);
                    }
                    if !p1 {
                        continue;
                    }
                    let p2 = table.contains(s2.bits());
                    if observe {
                        t.probes += 1;
                        t.hits += u64::from(p2);
                    }
                    if !p2 {
                        continue;
                    }
                }
                Variant::Unfiltered => {
                    let p1 = table.contains(s1.bits());
                    let p2 = table.contains(s2.bits());
                    if observe {
                        t.probes += 2;
                        t.hits += u64::from(p1) + u64::from(p2);
                    }
                    if !(p1 && p2 && cx.g.sets_connected(s1, s2)) {
                        continue;
                    }
                }
                Variant::CrossProducts => {}
            }
            t.counters.csg_cmp_pairs += 1;
            if observe {
                t.probes += 1;
                t.hits += u64::from(best.is_some());
            }
            let st1 = table.stats(s1.bits());
            let st2 = table.stats(s2.bits());
            if best.is_none() {
                card = cardinality(cx.est, s, None)?;
            }
            let (cost, _) = pair_cost(cx.model, &st1, &st2, card, false)?;
            let accepted = best.is_none_or(|(best_cost, _)| cost < best_cost);
            if accepted {
                best = Some((cost, s1.bits()));
            }
            spans.candidate(s.bits(), s1.bits(), s2.bits(), cost, accepted);
        }
        Ok(best.map(|(cost, s1)| {
            (
                PlanStats {
                    cardinality: card,
                    cost,
                },
                s1,
            )
        }))
    }

    /// Each set's winner and candidate count, by set.
    type Decisions = Vec<(u64, Option<joinopt_telemetry::SplitChoice>, u64)>;

    /// Runs `split` for `variant` and `model` on `w` with an enabled
    /// metrics observer, with provenance recorded or not: the result,
    /// the table probes and hits, and each set's winner and candidate
    /// count (empty without provenance).
    fn observed_run(
        w: &workload::Workload,
        model: &dyn CostModel,
        variant: Variant,
        split: SplitFn,
        provenance: bool,
        session: &mut Session,
    ) -> Result<(DpResult, u64, u64, Decisions), OptimizeError> {
        use joinopt_telemetry::{Fanout, MetricsCollector, ProvenanceCollector};

        let metrics = MetricsCollector::new();
        let prov = ProvenanceCollector::new();
        let observers: Vec<&dyn Observer> = if provenance {
            vec![&metrics, &prov]
        } else {
            vec![&metrics]
        };
        let fanout = Fanout::new(observers);
        let ctl = CancellationToken::unlimited();
        let r = run(
            &w.graph, &w.catalog, model, variant, split, &fanout, &ctl, session,
        )?;
        let decisions = prov
            .records()
            .into_iter()
            .map(|(set, rec)| (set, rec.winner, rec.candidates))
            .collect();
        let report = metrics.report();
        Ok((r, report.table_probes, report.table_hits, decisions))
    }

    /// Asserts that the production inner loop for `variant` and `model`
    /// reproduces `reference` on `w`, with or without provenance. When
    /// `answers`, both runs must answer with the same cost bits, tree,
    /// counters, table size, probes and hits, and with provenance each
    /// set's winner and candidate count; otherwise both must fail with
    /// the same error.
    fn assert_reproduces(
        w: &workload::Workload,
        model: &dyn CostModel,
        variant: Variant,
        reference: SplitFn,
        provenance: bool,
        answers: bool,
        ctx: &str,
    ) {
        let split = split_fn(variant, model.is_symmetric());
        let want = observed_run(
            w,
            model,
            variant,
            reference,
            provenance,
            &mut Session::new(),
        );
        let got = observed_run(w, model, variant, split, provenance, &mut Session::new());
        if !answers {
            let want = want.expect_err(&format!("{ctx}: the reference loop answered"));
            return assert_eq!(got.err(), Some(want), "{ctx}");
        }
        let (want, want_probes, want_hits, want_decisions) =
            want.unwrap_or_else(|e| panic!("{ctx}: the reference loop failed: {e}"));
        let (got, probes, hits, decisions) = got.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{ctx}");
        assert_eq!(got.tree, want.tree, "{ctx}");
        assert_eq!(got.counters, want.counters, "{ctx}");
        assert_eq!(got.table_size, want.table_size, "{ctx}");
        assert_eq!(probes, want_probes, "{ctx}");
        assert_eq!(hits, want_hits, "{ctx}");
        // Per set: the same winning split and the same number of
        // candidates.
        assert_eq!(decisions, want_decisions, "{ctx}");
    }

    /// The three variants with their ordered reference loops.
    const RULES: [(Variant, SplitFn); 3] = [
        (Variant::Filtered, ordered_split::<Filtered>),
        (Variant::Unfiltered, ordered_split::<Unfiltered>),
        (Variant::CrossProducts, ordered_split::<CrossProducts>),
    ];

    /// Runs [`assert_reproduces`] on random graphs from sparse trees
    /// through near-cliques (n = 3–10), for every variant under every
    /// cost model.
    fn assert_reproduces_on_random_graphs(provenance: bool) {
        use joinopt_cost::{HashJoin, MinOverPhysical, NestedLoopJoin, SortMergeJoin};

        let models: [&dyn CostModel; 5] = [
            &Cout,
            &NestedLoopJoin,
            &HashJoin,
            &SortMergeJoin,
            &MinOverPhysical,
        ];
        for n in 3..=10 {
            for density in [0.0, 0.3, 0.6, 0.95] {
                let seed = n as u64;
                let w = workload::random_workload(n, density, seed);
                for (variant, reference) in RULES {
                    for model in models {
                        let ctx =
                            format!("n={n} p={density} seed={seed} {variant:?} {}", model.name());
                        assert_reproduces(&w, model, variant, reference, provenance, true, &ctx);
                    }
                }
            }
        }
    }

    /// An `n`-chain whose first pair `{0, 1}` costs `1e308` (two
    /// relations of `1e154` rows joined with selectivity 1), so every
    /// set registered after it has an overflowing `(M + M) + |S|`
    /// bound. `sel_12` is the selectivity of the edge `(1, 2)`.
    fn chain_with_a_costly_pair(n: usize, sel_12: f64) -> workload::Workload {
        let graph = QueryGraph::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap();
        let mut catalog = Catalog::new(&graph);
        for i in 0..n {
            let card = match i {
                0 | 1 => 1e154,
                2 => 1.0,
                _ => 10.0,
            };
            catalog.set_cardinality(i, card).unwrap();
        }
        for i in 1..n {
            let sel = match i {
                1 => 1.0,
                2 => sel_12,
                _ => 0.5,
            };
            let e = graph.edge_between(i - 1, i).unwrap();
            catalog.set_selectivity(e, sel).unwrap();
        }
        workload::Workload { graph, catalog }
    }

    #[test]
    fn complementary_pairs_reproduce_the_ordered_split_loop() {
        assert_reproduces_on_random_graphs(true);
    }

    #[test]
    fn price_walk_reproduces_the_ordered_split_loop() {
        // Without provenance a filtered `C_out` run takes the price walk
        // (`priced_pairs`); every other run takes the pair loop, as
        // with provenance.
        assert_reproduces_on_random_graphs(false);

        // The per-set overflow bound of the provenance-free `C_out`
        // walk. `{0, 1}` costs 1e308, so every later set's bound
        // `(M + M) + |S|` overflows and the set takes the checked loop.
        // With `sel(1, 2) = 1e-300` no price does: the run answers, the
        // same as the ordered loop. With 1, `({0, 1}, {2})` costs
        // `1e308 + 1e308`: the run fails the same way.
        for (sel_12, answers) in [(1e-300, true), (1.0, false)] {
            let w = chain_with_a_costly_pair(6, sel_12);
            let ctx = format!("costly pair, sel(1, 2) = {sel_12:e}");
            for (variant, reference) in RULES {
                // Cross products put `{0, 1}` beside a 10-row relation:
                // a `1e309`-row set, which fails in either loop.
                let answers = answers && variant != Variant::CrossProducts;
                assert_reproduces(&w, &Cout, variant, reference, false, answers, &ctx);
            }
            if answers {
                let mut session = Session::new();
                let split = split_fn(Variant::Filtered, true);
                observed_run(&w, &Cout, Variant::Filtered, split, false, &mut session).unwrap();
                let max = (0..1u64 << 6)
                    .filter(|&bits| session.table.contains(bits))
                    .map(|bits| session.table.stats(bits).cost)
                    .fold(0.0, f64::max);
                assert_eq!(max, 1e308, "{ctx}");
                assert!(cout_cost(max, max, 1.0).is_infinite(), "{ctx}");
            }
        }
    }

    #[test]
    fn above_the_dense_cap_is_a_typed_refusal_without_degradation() {
        use crate::degrade::BudgetAction;
        use crate::request::OptimizeRequest;
        let n = DenseDpTable::MAX_RELATIONS + 1;
        let w = workload::family_workload(GraphKind::Chain, n, 0);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .on_budget_exceeded(BudgetAction::Degrade)
            .run()
            .expect_err("refused, not degraded to a heuristic plan");
        assert_eq!(
            err,
            OptimizeError::TooManyRelations {
                algorithm: "DPsub",
                relations: n,
                max: DenseDpTable::MAX_RELATIONS,
            }
        );
        let direct = DpSubCrossProducts.optimize(&w.graph, &w.catalog, &Cout);
        assert!(matches!(
            direct,
            Err(OptimizeError::TooManyRelations { .. })
        ));
    }

    fn run_in(
        w: &workload::Workload,
        session: &mut Session,
        ctl: &CancellationToken,
    ) -> Result<DpResult, OptimizeError> {
        run_pooled(
            &w.graph,
            &w.catalog,
            &Cout,
            Variant::Filtered,
            &NoopObserver,
            ctl,
            session,
        )
    }

    #[test]
    fn session_reuse_is_deterministic_and_pools_allocations() {
        let w = workload::family_workload(GraphKind::Cycle, 10, 1);
        let ctl = CancellationToken::unlimited();
        let mut session = Session::new();
        let first = run_in(&w, &mut session, &ctl).unwrap();
        let pooled = session.pooled_bytes();
        assert!(pooled > 0);
        for _ in 0..3 {
            let again = run_in(&w, &mut session, &ctl).unwrap();
            assert_eq!(first.cost.to_bits(), again.cost.to_bits());
            assert_eq!(first.tree, again.tree);
            assert_eq!(first.counters, again.counters);
            // No regrowth: the pool already fits the workload.
            assert_eq!(session.pooled_bytes(), pooled);
        }
        assert_eq!(session.runs(), 4);
    }

    #[test]
    fn pooled_session_does_not_leak_state_between_queries() {
        // Interleave graphs of growing and shrinking size through one
        // session; every answer must match a fresh one-shot run.
        let ctl = CancellationToken::unlimited();
        let mut session = Session::new();
        for n in [7, 5, 9, 6] {
            for kind in GraphKind::ALL {
                let w = workload::family_workload(kind, n, n as u64);
                for variant in [Variant::Filtered, Variant::CrossProducts] {
                    let run = |session: &mut Session| {
                        run_pooled(
                            &w.graph,
                            &w.catalog,
                            &Cout,
                            variant,
                            &NoopObserver,
                            &ctl,
                            session,
                        )
                        .unwrap()
                    };
                    let pooled = run(&mut session);
                    let fresh = run(&mut Session::new());
                    assert_eq!(pooled.cost.to_bits(), fresh.cost.to_bits());
                    assert_eq!(pooled.tree, fresh.tree);
                    assert_eq!(pooled.counters, fresh.counters);
                    assert_eq!(pooled.table_size, fresh.table_size);
                }
            }
        }
    }

    #[test]
    fn zero_time_budget_aborts_the_run() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let budget = std::time::Duration::ZERO;
        let ctl = CancellationToken::new(None, Some(budget), None);
        let err = run_in(&w, &mut Session::new(), &ctl).unwrap_err();
        assert_eq!(err, OptimizeError::TimeBudgetExceeded { budget });
    }

    #[test]
    fn cancel_flag_stops_the_inner_loop() {
        use crate::cancel::stop_probe::cancel_at_the_full_set;

        // The full set of a 12-clique is the only set of the last
        // level, so no level check follows the raise: the walk's own
        // polls must stop the run inside the set's 2¹¹ − 1 = 2,047
        // complementary splits. A poll runs the full check once per
        // `POLL_PERIOD` splits, so at most 2 · `POLL_PERIOD` are
        // reported, each as both orientations.
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let (run, candidates) = cancel_at_the_full_set(&DpSub, &w);
        assert_eq!(run, Err(OptimizeError::Cancelled));
        assert_eq!(candidates % 2, 0, "a split reports both orientations");
        let splits = candidates / 2;
        assert!(
            (1..=2 * u64::from(POLL_PERIOD)).contains(&splits),
            "{splits} splits after the raise"
        );
    }

    #[test]
    fn a_raised_flag_stops_the_price_walk() {
        // `cancel_flag_stops_the_inner_loop` raises the flag from a
        // provenance observer, so its run takes the pair loop; this
        // test covers the provenance-free `C_out` walk every served
        // DPsub run takes. It walks the full set of a finished
        // 12-clique run: 2¹¹ − 1 = 2,047 pairs, which no level check
        // follows, so only the walk's own polls can stop it.
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let mut session = Session::new();
        let done = run_in(&w, &mut session, &CancellationToken::unlimited()).unwrap();
        let costs = session.table.costs();
        let set = w.graph.all_relations().bits();
        let rest = set & !(1 << 11);
        let card = session.table.stats(set).cardinality;
        let free = CancellationToken::unlimited();
        let (cost, _, invalid, _) =
            walk_prices::<false>(&free, &mut 0, costs, set, rest, 2047, card).unwrap();
        assert_eq!((cost.to_bits(), invalid), (done.cost.to_bits(), 0));

        let flag = crate::CancelFlag::new();
        flag.cancel();
        let raised = CancellationToken::new(Some(flag), None, None);
        // A full block of `POLL_PERIOD` pairs runs the full check
        // before it, so the walk stops before its first pair.
        for walk in [walk_prices::<false>, walk_prices::<true>] {
            let run = walk(&raised, &mut 0, costs, set, rest, 2047, card);
            assert_eq!(run.err(), Some(OptimizeError::Cancelled));
        }
        // A set of fewer pairs than a block adds them to the pace: the
        // check waits for the pace to reach `POLL_PERIOD`, so a raised
        // flag is seen within two blocks.
        let (set, rest, pairs) = (0xff, 0x7f, 127);
        let card = session.table.stats(set).cardinality;
        let early = walk_prices::<false>(&raised, &mut 0, costs, set, rest, pairs, card);
        assert!(early.is_ok());
        let mut pace = POLL_PERIOD - pairs as u32;
        let late = walk_prices::<false>(&raised, &mut pace, costs, set, rest, pairs, card);
        assert_eq!(late.err(), Some(OptimizeError::Cancelled));
    }

    #[test]
    fn memory_budget_trips_on_the_pooled_footprint() {
        let w = workload::family_workload(GraphKind::Clique, 12, 0);
        let ctl = CancellationToken::new(None, None, Some(1024));
        let err = run_in(&w, &mut Session::new(), &ctl).unwrap_err();
        assert!(matches!(err, OptimizeError::MemoryBudgetExceeded { .. }));
        assert!(ctl.memory_used() > 1024);
    }
}
