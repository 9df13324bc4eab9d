#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. See README.md.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload
#   run.sh run [--seed N] [--seconds S] [--trace] [--quick] [--out FILE]
#   run.sh compare DIR_A DIR_B
#   run.sh baseline DIR
#   run.sh selftest
#
# The build goes to $CARGO_TARGET_DIR when set (relative paths are taken
# from the directory the script is called from), else ../target/benchmark.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/../target/benchmark}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target
cd "$here"

if [ "${1:-}" = selftest ]; then
    cargo test --release --offline
    cargo build --release --offline
    mkdir -p out
    "$target/release/joinopt-benchmark" run --quick --seconds 2 --trace --out out/selftest-report.json
    exec "$target/release/joinopt-benchmark" check-report out/selftest-report.json
fi

cargo build --release --offline --quiet >&2
exec "$target/release/joinopt-benchmark" "$@"
