//! The server's query-text memo: exact request text → parsed spec and
//! canonical form, so a repeated `optimize` line skips the DSL/SQL
//! parse, the spec capture and the canonicalization.
//!
//! * **Key.** The exact `query` string, compared in full by the hash
//!   map, so a hash collision can only miss. Tenant, algorithm and cost
//!   model are not part of the key: none of them enters parsing or
//!   canonicalization, and the plan cache still decides every answer
//!   from `(fingerprint, algorithm, model)` plus its word-for-word
//!   encoding check.
//! * **Admission.** A text is stored only after its request was
//!   answered from the plan cache, so a stream of new texts leaves the
//!   memo empty and pays one lookup per request.
//! * **Bound.** One fixed budget of [`MEMO_BYTES`] charged bytes, evicted
//!   least recently used by the same O(1) `Lru` the plan-cache shards use;
//!   an entry larger than the whole budget is never stored.
//!
//! A memoized parsed query (spec plus canonical form) is shared by `Arc`
//! with every request built from it, so a memo hit copies no spec and no
//! canonical form. Admission stores the canonical form the service
//! computed for the admitting request's cache probe (handed back in its
//! outcome), so a text is canonicalized once, and the spec moved out of
//! the finished request, so it is not copied either.

use std::sync::{Arc, Mutex, PoisonError};

use crate::fingerprint::CanonicalForm;
use crate::lru::Lru;
use crate::spec::QuerySpec;

/// The memo's byte budget, fixed like
/// [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES). It holds a few
/// thousand small queries, far more than a hot working set of a few
/// hundred distinct texts needs.
pub const MEMO_BYTES: usize = 1 << 20;

/// Fixed per-entry charge on top of the payload: the two `Arc` headers,
/// the inline spec and canonical form, the index slot and the slab node.
const ENTRY_OVERHEAD: usize = 256;

/// A parsed query as requests carry it: the owned spec and, when the
/// memo produced it, the spec's canonical form.
#[derive(Debug)]
pub(crate) struct ParsedQuery {
    spec: QuerySpec,
    canonical: Option<CanonicalForm>,
}

impl ParsedQuery {
    /// A spec whose canonical form is not known yet.
    pub(crate) fn new(spec: QuerySpec) -> ParsedQuery {
        ParsedQuery {
            spec,
            canonical: None,
        }
    }

    /// The owned query.
    pub(crate) fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The owned query, taken apart.
    pub(crate) fn into_spec(self) -> QuerySpec {
        self.spec
    }

    /// The canonical form, when it was computed up front.
    pub(crate) fn canonical(&self) -> Option<&CanonicalForm> {
        self.canonical.as_ref()
    }
}

/// The deterministic charge of memoizing `spec` under a text of
/// `text_len` bytes: the text, the spec's three arrays and the canonical
/// encoding (`2 + n + 3m` words) and order (`n` words). It depends on the
/// spec's shape only, so an oversized entry is refused before anything
/// is computed for it.
fn entry_bytes(text_len: usize, spec: &QuerySpec) -> usize {
    let (n, m) = (spec.num_relations(), spec.num_edges());
    let spec_words = n + 3 * m; // cardinalities, (u, v) edges, selectivities
    let canonical_words = 2 + 2 * n + 3 * m;
    ENTRY_OVERHEAD + text_len + 8 * (spec_words + canonical_words)
}

/// Point-in-time memo statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that found the text.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Texts admitted.
    pub stores: u64,
    /// Entries evicted to honor the byte budget.
    pub evictions: u64,
    /// Charged bytes currently resident.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

struct Inner {
    lru: Lru<Arc<str>, Arc<ParsedQuery>>,
    hits: u64,
    misses: u64,
    stores: u64,
    evictions: u64,
}

/// The bounded text → parsed-query memo. All methods take `&self`; one
/// lock guards the map and its counters.
pub struct QueryMemo {
    inner: Mutex<Inner>,
}

impl QueryMemo {
    /// An empty memo that holds at most `budget` charged bytes.
    pub(crate) fn new(budget: usize) -> QueryMemo {
        QueryMemo {
            inner: Mutex::new(Inner {
                lru: Lru::new(budget),
                hits: 0,
                misses: 0,
                stores: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The parsed query memoized under exactly `text`, counted as a hit
    /// or a miss.
    pub(crate) fn lookup(&self, text: &str) -> Option<Arc<ParsedQuery>> {
        let mut inner = self.lock();
        let found = inner.lru.get_if(text, |_| true).cloned();
        if found.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Memoizes `spec` with its `canonical` form under `text`. Call it
    /// only for a text whose request was answered from the plan cache,
    /// with the form that answer computed. Returns `false` when the entry
    /// is larger than the whole budget and was not stored.
    pub(crate) fn admit(&self, text: &str, spec: QuerySpec, canonical: CanonicalForm) -> bool {
        let bytes = entry_bytes(text.len(), &spec);
        let mut inner = self.lock();
        if bytes > inner.lru.budget() {
            return false;
        }
        let parsed = Arc::new(ParsedQuery {
            spec,
            canonical: Some(canonical),
        });
        let mut evicted = 0;
        let stored = inner
            .lru
            .insert(Arc::from(text), parsed, bytes, |_| evicted += 1);
        inner.stores += u64::from(stored);
        inner.evictions += evicted;
        stored
    }

    /// The counters plus occupancy.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            hits: inner.hits,
            misses: inner.misses,
            stores: inner.stores,
            evictions: inner.evictions,
            bytes: inner.lru.bytes(),
            entries: inner.lru.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::canonicalize;
    use joinopt_cost::workload;
    use joinopt_qgraph::GraphKind;

    fn chain(n: usize, seed: u64) -> QuerySpec {
        let w = workload::family_workload(GraphKind::Chain, n, seed);
        QuerySpec::capture(&w.graph, &w.catalog).unwrap()
    }

    fn admit(memo: &QueryMemo, text: &str, spec: &QuerySpec) -> bool {
        memo.admit(text, spec.clone(), canonicalize(spec))
    }

    #[test]
    fn charge_counts_text_spec_and_canonical_words() {
        let spec = chain(4, 1); // n = 4, m = 3
        let canon = canonicalize(&spec);
        let words =
            spec.num_relations() + 3 * spec.num_edges() + canon.encoding.len() + canon.order.len();
        assert_eq!(entry_bytes(100, &spec), ENTRY_OVERHEAD + 100 + 8 * words);
    }

    #[test]
    fn lookups_count_and_hits_share_one_parsed_query() {
        let memo = QueryMemo::new(MEMO_BYTES);
        assert!(memo.lookup("q").is_none());
        assert!(admit(&memo, "q", &chain(5, 2)));
        let a = memo.lookup("q").unwrap();
        let b = memo.lookup("q").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.canonical().is_some());
        assert!(memo.lookup("q ").is_none(), "the key is the exact text");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (2, 2, 1));
        assert_eq!(stats.bytes, entry_bytes(1, &chain(5, 2)));
    }

    #[test]
    fn a_flood_of_distinct_texts_stays_within_the_budget() {
        let spec = chain(6, 3);
        let one = entry_bytes(12, &spec);
        let memo = QueryMemo::new(10 * one + one / 2);
        for i in 0..100 {
            assert!(admit(&memo, &format!("query {i:06}"), &spec));
            let stats = memo.stats();
            assert!(stats.bytes <= 10 * one + one / 2, "{stats:?}");
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions), (10, 90));
        // The ten most recent texts survive.
        assert!(memo.lookup("query 000099").is_some());
        assert!(memo.lookup("query 000090").is_some());
        assert!(memo.lookup("query 000089").is_none());
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_never_stored() {
        let spec = chain(4, 4);
        let text = "x".repeat(1000);
        let memo = QueryMemo::new(entry_bytes(text.len(), &spec) - 1);
        assert!(!admit(&memo, &text, &spec));
        assert!(memo.lookup(&text).is_none());
        assert_eq!(memo.stats().bytes, 0);
    }
}
