#!/usr/bin/env bash
# Full offline CI gate: formatting, lints, tests.
#
# The workspace has no external dependencies, so everything runs with
# --offline; a network-less container must pass this script unchanged.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (warnings are errors: no dangling or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> benchmark package still builds against the workspace API"
# servebench/ is its own Cargo workspace, so the runs above never
# compile it; an API removal that breaks the benchmark fails here.
CARGO_TARGET_DIR=target/benchmark \
    cargo check --offline --all-targets --manifest-path servebench/Cargo.toml

echo "==> benchmark selftest: package tests, a short traced run, report schema"
# The build check above cannot see a change that breaks the traced
# replay (a cost-bit drift, a different Auto choice, a wrong answer).
# The selftest runs the package's tests, a --quick --seconds 2 --trace
# run of every workload against a live server, and the report schema
# check; it writes servebench/out/, which is ignored.
CARGO_TARGET_DIR=target/benchmark servebench/run.sh selftest

echo "==> telemetry allocation pin (steady-state serve telemetry allocates nothing)"
# Also part of the workspace test run above; a counting global allocator
# in its own test binary pins the registry and window lookups at zero
# allocations once a series exists.
cargo test --offline -q -p joinopt-telemetry --test alloc_pin

echo "==> corpus regression replay"
# Also part of the workspace test run above; the explicit gate makes a
# corpus regression fail loudly under its own heading.
cargo test --offline -q --test corpus

echo "==> conformance fuzz smoke (fixed seed; full exact matrix incl. DPconv)"
# The differential oracle runs every exact algorithm — DPsize, DPsub
# (+ variants), DPccp, DPconv, top-down, DPhyp and the exhaustive
# oracle — on each instance and requires the same cost bits from all
# of them (and under the asymmetric hash-join model from all but
# DPconv), so this smoke is also the DPconv-vs-matrix conformance gate.
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    fuzz --seed 42 --iters 200 --max-n 10 --minimize

echo "==> cold/warm plan-cache fuzz (warm hits must be bit-identical)"
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    fuzz --seed 42 --iters 200 --max-n 10 --minimize --cache

echo "==> plan-cache hit gate (one gateway driver: every repeat hits, no errors)"
# Also part of the workspace test run above. The chaos module's seeded
# stream runs through one Gateway at one driver, so requests execute in
# arrival order and the test asserts hits == repeats exactly. The grep
# fails the step if the name filter stops matching the test.
hit_gate="$(cargo test --offline -q -p joinopt-bench --lib -- \
    --exact chaos::tests::single_worker_run_hits_on_every_repeat 2>&1)" \
    || { echo "$hit_gate"; exit 1; }
echo "$hit_gate"
grep -q " 1 passed" <<<"$hit_gate" \
    || { echo "plan-cache hit gate test did not run"; exit 1; }

echo "==> complementary-pair gate (DPsub's loop reproduces Fig. 2's ordered split loop)"
# Also part of the workspace test run above. The test runs DPsub's
# one-visit pair loop, with its scalar best split and inline C_out
# price, beside Fig. 2's ordered loop on random graphs (n = 3-10) under
# every cost model and variant, and requires the same cost bits, trees,
# counters, probes, hits and per-set winners. The grep fails the step
# if the name filter stops matching the test.
pair_gate="$(cargo test --offline -q -p joinopt-core --lib -- \
    --exact dpsub::tests::complementary_pairs_reproduce_the_ordered_split_loop 2>&1)" \
    || { echo "$pair_gate"; exit 1; }
echo "$pair_gate"
grep -q " 1 passed" <<<"$pair_gate" \
    || { echo "complementary-pair gate test did not run"; exit 1; }

# Runs one named unit test of a package's library alone and fails the
# step if the test fails or if the name filter stops matching it.
exact_lib_test() {
    local package=$1 test=$2 out
    out="$(cargo test --offline -q -p "$package" --lib -- --exact "$test" 2>&1)" \
        || { echo "$out"; exit 1; }
    echo "$out"
    grep -q " 1 passed" <<<"$out" \
        || { echo "$test did not run"; exit 1; }
}

echo "==> fold identity gate (one extension step continues the cardinality fold bit for bit)"
# Also part of the workspace test run above. On random graphs and
# hypergraphs with complex predicates (n <= 12), every set's fold
# equals the documented product, and one extend_cardinality step from
# the fold of the set without its highest relation gives the same bits.
# DPsub, the driver and DPconv's init rely on it.
exact_lib_test joinopt-cost estimator::tests::one_extension_step_continues_the_fold

echo "==> price-walk gate (DPsub's provenance-free C_out walk reproduces Fig. 2's ordered split loop)"
# Also part of the workspace test run above. Without provenance a
# filtered C_out run prices absent sets at +inf and derives #ccp, probes
# and hits from its count of invalid pairs; the test runs it beside the
# ordered loop on the complementary-pair gate's graphs with an enabled
# metrics observer, and on two chains whose per-set overflow bound
# fails (one answers through the checked loop, one overflows), and
# requires the same cost bits, trees, counters, probes and hits.
exact_lib_test joinopt-core dpsub::tests::price_walk_reproduces_the_ordered_split_loop

echo "==> DPsub stop gate (a raised cancel flag stops the pair walk inside the set)"
# Also part of the workspace test run above. The flag goes up at the
# first split of a 12-clique's full set, which no level check follows;
# the run must fail Cancelled within 2 * POLL_PERIOD of its 2,047 splits.
exact_lib_test joinopt-core dpsub::tests::cancel_flag_stops_the_inner_loop

echo "==> DPsub price-walk stop gate (the provenance-free C_out walk polls per block)"
# Also part of the workspace test run above. The stop gate above raises
# the flag from a provenance observer, so it runs the pair loop; this
# one walks a 12-clique's full set with the price walk the server runs
# and requires Cancelled before the first block, and a paced check on
# a set smaller than a block.
exact_lib_test joinopt-core dpsub::tests::a_raised_flag_stops_the_price_walk

echo "==> DPccp stop gate (the driver's poll stops the enumeration mid-run)"
exact_lib_test joinopt-core dpccp::tests::cancel_flag_stops_the_enumeration

echo "==> DPconv stop gate (the kernels' block polls stop the last rank mid-set)"
exact_lib_test joinopt-core dpconv::tests::cancel_flag_stops_the_inner_loop

echo "==> DPhyp stop gate (the per-pair poll stops a hypergraph run mid-enumeration)"
exact_lib_test joinopt-core dphyp::tests::cancel_flag_stops_the_enumeration

echo "==> resilience matrix with fault injection (--cfg failpoints)"
# Separate target dir: the flag changes the crate's cfg set, and sharing
# target/ would force a full rebuild on every alternation.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-core --test resilience --offline -q

echo "==> service resilience matrix: breaker trips and drain completes (--cfg failpoints)"
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-service --test resilience_matrix --offline -q

echo "==> accept-error gate: an injected EMFILE backs off, the server keeps serving (--cfg failpoints)"
# Also part of the resilience matrix above; the named run fails loudly
# under its own heading, and the grep fails the step if the name filter
# stops matching the test.
accept_gate="$(RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-service --test resilience_matrix --offline -q -- \
    --exact an_accept_error_backs_off_and_the_server_keeps_serving 2>&1)" \
    || { echo "$accept_gate"; exit 1; }
echo "$accept_gate"
grep -q " 1 passed" <<<"$accept_gate" \
    || { echo "accept-error gate test did not run"; exit 1; }

echo "==> serve smoke: protocol, typed rejections, clean drain (--cfg failpoints)"
# The scripted self-check drives a live server end-to-end: health/ready,
# cold+warm optimize, a memoized third send, typed parse/invalid/timeout
# rejections, an injected worker panic the server survives, a
# cache-poison collision that can only miss (a memoized text included),
# then a graceful drain with a non-empty Prometheus flush carrying the
# memo series.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo run --offline -q -p joinopt-cli --bin joinopt -- \
    serve --smoke --prom /tmp/joinopt-serve-smoke.prom
grep -q joinopt_serve_accepted_total /tmp/joinopt-serve-smoke.prom \
    || { echo "serve smoke flush missing serve counters"; exit 1; }
grep -q joinopt_serve_stage_ /tmp/joinopt-serve-smoke.prom \
    || { echo "serve smoke flush missing windowed stage metrics"; exit 1; }
grep -q joinopt_serve_memo_hits_total /tmp/joinopt-serve-smoke.prom \
    || { echo "serve smoke flush missing query-text memo series"; exit 1; }
rm -f /tmp/joinopt-serve-smoke.prom

echo "==> span-timeline golden: traced requests under a manual clock (--cfg failpoints)"
# Replays three requests (cold, warm, one failed by an injected panic)
# through the traced dispatch path on a manual clock and diffs the
# resulting span-timeline JSON byte-for-byte against the committed
# golden. The panic leg arms failpoints, so this gate only exists in the
# failpoints build. Re-generate with the same command after an intended
# change.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo run --offline -q -p joinopt-cli --bin joinopt -- \
    serve --span-timeline /tmp/joinopt-serve-span.json
diff -u tests/goldens/serve-span-timeline.json /tmp/joinopt-serve-span.json \
    || { echo "span-timeline drifted from the committed golden"; exit 1; }
rm -f /tmp/joinopt-serve-span.json

echo "==> chaos gate: seeded fault burst, zero wrong plans (--cfg failpoints)"
# Warmup / panic burst / recovery against the hardened gateway; gates on
# bounded errors, breaker open+reclose, recovery, and a differential
# re-check of sampled answers against a fresh cache-less service.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo run --offline -q -p joinopt-cli --bin joinopt -- \
    load --chaos --requests 200 --seed 7

echo "==> injected DPconv rank skip is caught and minimized (--cfg failpoints)"
# Arms dpconv-rank-skip (DPconv drops its balanced top-level splits) and
# requires the differential oracle to flag the wrong optimal cost and
# shrink the repro to <= 5 relations.
RUSTFLAGS="--cfg failpoints" CARGO_TARGET_DIR=target/failpoints \
    cargo test -p joinopt-conformance --test rank_skip --offline -q

echo "==> plan-quality results match the committed bench_results/quality.csv"
# `quality` is seeded and prints its ratios to three decimals, so a
# rerun must reproduce the committed CSV byte for byte. It writes
# bench_results/ under its working directory, hence the temp dir.
manifest="$PWD/Cargo.toml"
quality_dir="$(mktemp -d)"
(cd "$quality_dir" && cargo run --offline -q --release --manifest-path "$manifest" \
    -p joinopt-bench --bin quality > /dev/null)
diff -u bench_results/quality.csv "$quality_dir/bench_results/quality.csv" \
    || { echo "quality.csv drifted from the committed results"; exit 1; }
rm -rf "$quality_dir"

echo "==> performance baseline check (exact quantities, hardware-independent)"
# Replays the matrix pinned in BENCH_joinopt.json and fails on any
# counter, table-size, arena-byte or cost-bit drift. Wall time is
# recorded in the file but never gated, so the gate passes on any
# hardware; re-pin with `joinopt perf` after an intended change.
cargo run --offline -q --release -p joinopt-cli --bin joinopt -- \
    perf --check BENCH_joinopt.json

echo "==> explain golden files (text + JSON, byte-deterministic)"
# `joinopt explain` output is fully deterministic (no clocks, sorted
# sets, hand-built JSON), so it is diffed byte-for-byte against the
# committed goldens in tests/goldens/. Re-generate with the commands
# below after an intended rendering change. The JSON form is
# additionally rendered twice and compared, pinning run-to-run
# determinism independently of the committed files.
JOINOPT="cargo run --offline -q --release -p joinopt-cli --bin joinopt --"
for q in star-5 tie-rich-chain-8; do
    $JOINOPT explain "tests/corpus/$q.query" \
        | diff -u "tests/goldens/explain-$q.txt" - \
        || { echo "explain text drifted for $q"; exit 1; }
    $JOINOPT explain "tests/corpus/$q.query" --format json > /tmp/explain-$q.1.json
    $JOINOPT explain "tests/corpus/$q.query" --format json > /tmp/explain-$q.2.json
    cmp /tmp/explain-$q.1.json /tmp/explain-$q.2.json \
        || { echo "explain JSON nondeterministic for $q"; exit 1; }
    diff -u "tests/goldens/explain-$q.json" /tmp/explain-$q.1.json \
        || { echo "explain JSON drifted for $q"; exit 1; }
    rm -f /tmp/explain-$q.1.json /tmp/explain-$q.2.json
done
$JOINOPT explain tests/corpus/tie-rich-chain-8.query --compare dpsize,goo \
    | diff -u tests/goldens/explain-compare-tie-rich-chain-8.txt - \
    || { echo "explain --compare output drifted"; exit 1; }

echo "==> examples (release)"
cargo build --offline --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--> example: $name"
    cargo run --offline -q --release --example "$name" > /dev/null
done

echo "CI OK"
