#!/usr/bin/env bash
# One command: builds the benchmark (offline, release) and runs it.
#   benchmark/run.sh                 every workload, 3 repeats each -> out/results.json
#   benchmark/run.sh --layers        the traced layer pass of every workload
#   benchmark/run.sh --smoke         small sizes, seconds
#   benchmark/run.sh --workload gen --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh compare A/results.json B/results.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build from the repository root so its .cargo/config.toml (target-cpu=native)
# applies and a relative CARGO_TARGET_DIR resolves there.
cd "$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/campaign-bench" "$@"
