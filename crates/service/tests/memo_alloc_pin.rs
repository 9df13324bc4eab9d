//! Pins the allocation count of one `optimize` line answered through
//! the query-text memo: the line is parsed as JSON, its `query` text
//! is found in the memo, the plan cache answers from the memoized
//! canonical form, and the reply is written. No query parse, no spec
//! capture and no canonicalization run, so no fingerprint is computed.
//! The line that admitted the text computed exactly one: the memo
//! stores the form the request was answered with.
//!
//! A counting `#[global_allocator]` tallies allocations per thread; the
//! handler answers on the calling thread. This is its own test binary
//! because the allocator and the fingerprint counter are
//! process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use joinopt_service::{
    fingerprints_computed, Gateway, GatewayConfig, Handler, OptimizerService, ServiceConfig,
};
use joinopt_telemetry::json::write_escaped;
use joinopt_telemetry::NoopObserver;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn a_memo_hit_optimize_allocates_exactly_as_pinned() {
    let handler = Handler::new(
        Gateway::new(
            OptimizerService::new(ServiceConfig::default()),
            GatewayConfig::default(),
        ),
        false,
        7,
    );
    let mut line = String::from("{\"verb\":\"optimize\",\"id\":\"q\",\"query\":");
    write_escaped(
        &mut line,
        "relation a 100\nrelation b 200\nrelation c 300\nrelation d 50\n\
         join a b 0.1\njoin b c 0.05\njoin c d 0.2\n",
    );
    line.push('}');
    let mut session = None;
    // Cold: a plan-cache miss, which admits nothing.
    handler.dispatch(&line, &mut session, &NoopObserver);
    assert_eq!(handler.memo().stats().stores, 0);

    // Warm: a plan-cache hit that admits its text. The line is
    // canonicalized once, and the memo stores that same form.
    let fingerprints = fingerprints_computed();
    let (reply, _) = handler.dispatch(&line, &mut session, &NoopObserver);
    assert!(reply.contains("\"cache_hit\":true"), "{reply}");
    assert_eq!(handler.memo().stats().stores, 1);
    assert_eq!(
        fingerprints_computed() - fingerprints,
        1,
        "the admitting line canonicalizes exactly once"
    );

    // One memo hit so every lazily grown structure has its steady size.
    handler.dispatch(&line, &mut session, &NoopObserver);
    assert_eq!(handler.memo().stats().hits, 1);

    let fingerprints = fingerprints_computed();
    let (allocs, (reply, _)) = allocations(|| handler.dispatch(&line, &mut session, &NoopObserver));
    assert!(reply.contains("\"cache_hit\":true"), "{reply}");
    assert_eq!(handler.memo().stats().hits, 2);
    assert_eq!(fingerprints_computed(), fingerprints, "no canonicalization");
    // The request JSON, the remapped plan tree and the reply line. The
    // same line through the parser (a plan-cache hit that admits its
    // text) costs 79 allocations on this query.
    assert_eq!(allocs, 28, "memo-hit optimize line");
}
