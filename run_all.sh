#!/bin/sh
# Regenerates every table and figure (quick scale) into results/.
# Each binary also leaves a run manifest at results/<bin>.manifest.jsonl
# (git-ignored: it records wall-clock and the host). A rerun with the same
# seed leaves every tracked results/*.txt byte-identical, which CI checks
# with `git diff --exit-code -- results/`.
#
# Extra arguments are forwarded verbatim to every binary through the
# shared bench CLI (crates/bench/src/cli.rs), so the common flags compose:
#
#   ./run_all.sh --seed 7
#   ./run_all.sh --full
#   ./run_all.sh --telemetry results/telemetry
set -e
set -x
cd "$(dirname "$0")"
# --workspace is load-bearing: a bare `cargo build` at the root skips the
# workspace members' binaries, leaving stale (or missing) bins under $B.
cargo build --release --workspace --offline
B=./target/release
$B/table3 "$@" > results/table3.txt 2>&1
$B/table6 "$@" > results/table6.txt 2>&1
$B/table4 "$@" > results/table4.txt 2>&1
$B/fig5 hadoop "$@" > results/fig5a_hadoop.txt 2>&1
$B/fig5 microbursts "$@" > results/fig5b_microbursts.txt 2>&1
$B/fig5 websearch "$@" > results/fig5c_websearch.txt 2>&1
$B/fig5 video "$@" > results/fig5d_video.txt 2>&1
$B/table5 "$@" > results/table5.txt 2>&1
$B/fig7 "$@" > results/fig7_fig8.txt 2>&1
$B/fig9 "$@" > results/fig9.txt 2>&1
$B/fig10 "$@" > results/fig10.txt 2>&1
$B/fig6 "$@" > results/fig6_alibaba.txt 2>&1
$B/controller "$@" > results/controller_a2.txt 2>&1
$B/ablations "$@" > results/ablations.txt 2>&1
$B/tracegen all "$@" > results/trace_characteristics.txt 2>&1
$B/failures "$@" > results/failures.txt 2>&1
$B/churn "$@" > results/churn.txt 2>&1
# The million-VM FT32 tier only runs on an explicit --full sweep: the
# scale smoke builds the complete 1 048 576-VM placement, which is
# deliberate memory pressure a quick run should skip.
for arg in "$@"; do
  if [ "$arg" = "--full" ]; then
    $B/sv2p-scale-smoke "$@" > results/scale_smoke.txt 2>&1
    break
  fi
done
echo ALL_RESULTS_DONE
