#!/usr/bin/env bash
# Training hot-path baseline tooling (BENCH_hotpath.json at the repo root).
#
#   bench_baseline.sh           refresh the baseline (quick mode)
#   bench_baseline.sh --full    refresh with the slower, more stable
#                               measurement used when comparing perf work
#   bench_baseline.sh --check   run a fresh quick measurement into a temp
#                               file and hand it to `perf_report --check`,
#                               which FAILS if any timing row regressed more
#                               than 15% against its BENCH_history.jsonl
#                               median (the baseline file is left untouched)
#
# --check is wired into scripts/verify.sh behind BENCH_CHECK=1 — quick-mode
# timings on a shared box are noisy, so the gate is opt-in rather than part
# of the default tier-1 run.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
--check)
    # The telemetry-overhead baseline must carry the v3 schema: v1 numbers
    # came from a two-pass estimator whose inter-pass machine drift could
    # bias the subtraction (the checked-in v1 file recorded a negative
    # no-op "overhead"), and v2 predates the profiler-enabled block (alloc
    # metering counters and per-phase wall twins), so its live-block number
    # no longer measures the instrumentation the trainer actually runs.
    # Regenerate with `--bin obs_overhead`.
    if [[ -f "BENCH_obs.json" ]] && ! grep -q '"schema": "dphpo-obs-v3"' BENCH_obs.json; then
        echo "bench check: BENCH_obs.json is not schema dphpo-obs-v3 — regenerate with 'cargo run --release -p dphpo-bench --bin obs_overhead'" >&2
        exit 1
    fi
    fresh="$(mktemp /tmp/hotpath_check.XXXXXX.json)"
    trap 'rm -f "${fresh}"' EXIT
    cargo run --release -p dphpo-bench --bin hotpath -- --quick --out "${fresh}"
    cargo run --release -p dphpo-bench --bin perf_report -- --check "${fresh}"
    ;;
--full)
    cargo run --release -p dphpo-bench --bin hotpath
    ;;
*)
    cargo run --release -p dphpo-bench --bin hotpath -- --quick
    ;;
esac
