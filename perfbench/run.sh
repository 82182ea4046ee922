#!/usr/bin/env bash
# Builds blowfish-serve and the benchmark from source, then runs the
# benchmark against that server. Run from the repository root:
#
#   bash perfbench/run.sh --workload mixed-small --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr, so the last stdout line stays the result object.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/engine || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (needs Cargo.toml, crates/ and perfbench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin blowfish-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/blowfish-serve" "$@"
