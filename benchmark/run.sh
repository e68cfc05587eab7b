#!/usr/bin/env bash
# Builds the benchmark crate and runs it from the root of the checkout.
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--sets 2] [--smoke]
# Build output goes to standard error, so the last line of standard output
# is the benchmark's own.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sv2p-benchmark" "$@"
