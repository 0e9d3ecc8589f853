#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md) plus the documentation and lint gates.
# Each stage's checks are described where the stage runs, below.
#
#   1. release build of the whole workspace
#   2. every test of the workspace
#   3. clippy, warnings denied
#   4. rustdoc, warnings denied
#   5. doc-sync: the docs cite only what exists, and code is reachable
#   6. chaos stress: kill/resume and latch suites, CHAOS_STRESS times (3)
#   7. telemetry and campaign-observatory byte identity
#   8. corruption, salvage and fault-plan sweeps (CHAOS_SEEDS, default 2)
#   9. profile identity and profiler properties
#  10. oracle suite (release): references that do not run the code under test
#  11. the benchmark/ package: its tests and smoke pass against this tree
#  12. results/ reproduce byte for byte from the checked-in journals, and
#      the seeded ablations from scratch
#
# Opt-in: BENCH_CHECK=1 adds the perf-history regression check (timing).
#
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/12] cargo build --release"
cargo build --release --workspace

echo "==> [2/12] cargo test -q"
cargo test -q --workspace

echo "==> [3/12] cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> [4/12] cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> [5/12] doc-sync: EXPERIMENTS.md and DESIGN.md targets exist"
missing=0
for bin in $(grep -ho -- '--bin [a-z0-9_]*' EXPERIMENTS.md DESIGN.md | awk '{print $2}' | sort -u); do
    if [[ ! -f "crates/bench/src/bin/${bin}.rs" ]]; then
        echo "    MISSING: EXPERIMENTS.md or DESIGN.md references --bin ${bin}" >&2
        missing=1
    else
        echo "    ok: --bin ${bin}"
    fi
done
# DESIGN.md's other citations resolve too: every backticked file path exists
# (from the root, or from crates/); every backticked `suite::test` (a test
# file's stem, or `module::tests::`) names some `fn`; and every backticked
# dotted name in a metric namespace (the first segments of obs's dotted
# literals) is a string literal under crates/*/src or a BENCH_history.jsonl
# row key, or with `.*` a prefix of one.
echo "    doc-sync: DESIGN.md cites only paths, tests and metrics that exist"
n_cited=0
cited="$(grep -o '`[^`]*`' DESIGN.md | tr -d '`' | sort -u)"
for path in $(grep -E '^[A-Za-z0-9_.-]*/[A-Za-z0-9_./-]*\.[A-Za-z0-9]+(:[0-9]+([–-][0-9]+)?)?$' \
    <<<"${cited}" | sed -E 's/:[0-9–-]+$//' | sort -u); do
    n_cited=$((n_cited + 1))
    if [[ ! -e "${path}" && ! -e "crates/${path}" ]]; then
        echo "    MISSING: DESIGN.md cites the path ${path}" >&2
        missing=1
    fi
done
suites=" $(ls crates/*/tests/*.rs tests/*.rs benchmark/tests/*.rs | xargs -n1 basename \
    | sed 's/\.rs$//' | tr '\n' ' ')"
for test in $(grep -E '^[a-z_0-9]+::(tests::)?[a-z_0-9]+$' <<<"${cited}"); do
    suite="${test%%::*}"
    [[ "${test}" == *::tests::* || "${suites}" == *" ${suite} "* ]] || continue
    n_cited=$((n_cited + 1))
    if ! grep -rqE --include='*.rs' "fn ${test##*::}\b" crates tests benchmark/src benchmark/tests; then
        echo "    MISSING: DESIGN.md cites the test ${test}" >&2
        missing=1
    fi
done
namespaces="$(grep -oE '"[a-z_0-9]+\.[a-z_0-9.]+"' crates/obs/src/lib.rs | tr -d '"' | cut -d. -f1 \
    | sort -u | paste -sd'|')"
literals="$( (grep -rhoE --include='*.rs' '"[a-z_0-9]+(\.[a-z_0-9]+)+"' crates/*/src | tr -d '"'
    grep -oE '"[a-z_0-9.]+":' BENCH_history.jsonl | tr -d '":') | sort -u)"
for metric in $(grep -E "^(${namespaces})\.[a-z_0-9.]*[a-z_0-9*]$" <<<"${cited}" \
    | grep -vE '\.(rs|md|json|jsonl|sh)$'); do
    n_cited=$((n_cited + 1))
    if [[ "${metric}" == *.\* ]]; then
        awk -v p="${metric%\*}" 'index($0, p) == 1 { found = 1 } END { exit !found }' \
            <<<"${literals}" && continue
    elif grep -qxF -- "${metric}" <<<"${literals}"; then
        continue
    fi
    echo "    MISSING: DESIGN.md cites the metric ${metric}" >&2
    missing=1
done
echo "    checked ${n_cited} DESIGN.md citations"
# Every fig1 flag the docs mention must be one the binary parses, and every
# flag it parses must be documented. Flags are harvested from lines that
# invoke fig1 (command lines and `fig1 --flag` inline references), so prose
# mentioning other binaries' flags is ignored.
echo "    doc-sync: fig1 flags in README.md/EXPERIMENTS.md == fig1 --list-flags"
known_flags="$(target/release/fig1 --list-flags)"
doc_flags="$(grep -h -- 'fig1' README.md EXPERIMENTS.md \
    | grep -o -- '--[a-z][a-z-]*' \
    | sort -u || true)"
for flag in ${doc_flags}; do
    # cargo-level flags on the same command line are not fig1's to parse.
    case "${flag}" in
    --release|--bin|--example) continue ;;
    esac
    if ! grep -qx -- "${flag}" <<<"${known_flags}"; then
        echo "    UNKNOWN: docs reference fig1 flag ${flag}" >&2
        missing=1
    else
        echo "    ok: fig1 ${flag}"
    fi
done
for flag in ${known_flags}; do
    if ! grep -qx -- "${flag}" <<<"${doc_flags}"; then
        echo "    UNDOCUMENTED: no fig1 line of README.md/EXPERIMENTS.md names ${flag}" >&2
        missing=1
    fi
done
# Reachability: every `pub mod m` of a crate must be named — `m::`, or a name
# its lib.rs re-exports from it — by some .rs file other than that lib.rs and
# m.rs itself (a file of another crate counts only if it names this crate).
# Allowlisted: md::analysis (RDF/MSD checks of the melt generator) and
# dnnp::deploy (NVE stability of a trained model) — physics oracles whose
# inline tests are the point; nothing needs to call them.
echo "    doc-sync: every pub mod is named outside its own lib.rs"
for lib in crates/*/src/lib.rs; do
    crate="$(basename "${lib%/src/lib.rs}")"
    for m in $(sed -n 's/^pub mod \([a-z_0-9]*\);.*/\1/p' "${lib}"); do
        [[ " md::analysis dnnp::deploy " == *" ${crate}::${m} "* ]] && continue
        names="$(tr '\n' ' ' <"${lib}" | grep -o "pub use ${m}::[^;]*;" \
            | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | grep -vxE "pub|use|as|self|${m}" \
            | paste -sd'|' || true)"
        users="$(grep -rlE --include='*.rs' -- "\b${m}::${names:+|\b(${names})\b}" \
            crates benchmark/src examples tests src \
            | grep -vxF -e "${lib}" -e "crates/${crate}/src/${m}.rs" || true)"
        if [[ -z "$(grep "^crates/${crate}/" <<<"${users}" \
            || xargs -r grep -l "dphpo_${crate}\b" <<<"${users}" || true)" ]]; then
            echo "    UNREACHED: ${crate}::${m} is named by nothing but its own lib.rs" >&2
            missing=1
        fi
    done
done
# The same rule one level down: every `pub fn` / `pub const` must be named by
# some .rs file other than its own file and its crate's lib.rs, or it is
# private (or `#[cfg(test)]`) or gone. Same allowlist, file by file.
echo "    doc-sync: every pub fn / pub const is named outside its own file and lib.rs"
for file in $(find crates -path '*/src/*' -name '*.rs' | sort); do
    crate="${file#crates/}" && crate="${crate%%/*}"
    [[ " md::analysis dnnp::deploy " == *" ${crate}::$(basename "${file}" .rs) "* ]] && continue
    for item in $(sed -nE 's/^ *pub (const )?(unsafe )?(fn|const) ([A-Za-z_][A-Za-z0-9_]*).*/\4/p' \
        "${file}" | sort -u); do
        users="$(grep -rlw --include='*.rs' -- "${item}" crates benchmark/src examples tests src \
            | grep -vxF -e "${file}" -e "crates/${crate}/src/lib.rs" || true)"
        if [[ -z "${users}" ]]; then
            echo "    UNREACHED: ${file}: pub ${item} is named by nothing but its own file" >&2
            missing=1
        fi
    done
done
# One width rule: the simulated width is configuration, the thread count is
# hpc::physical_threads — nothing else may ask the host how many cores it has.
echo "    doc-sync: available_parallelism is read in exactly one place"
readers="$(grep -rn --include='*.rs' 'available_parallelism' crates/*/src || true)"
if [[ "$(grep -c . <<<"${readers}")" -ne 1 || "${readers}" != crates/hpc/src/pool.rs:* ]]; then
    echo "    HOST-DEPENDENT: expected one mention, in crates/hpc/src/pool.rs; found:" >&2
    echo "${readers}" >&2
    missing=1
fi
# Options census: what a user can set without editing source. DESIGN.md §3.7
# states the count; a knob added (or removed) without that line moving fails.
echo "    doc-sync: options census == the line DESIGN.md states"
pub_fields() { # pub fields of `pub struct $2` in $1
    awk -v open="^pub struct $2 \\{" '
        $0 ~ open { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$1"
}
n_flags="$(grep -c . <<<"${known_flags}")"
n_env="$(grep -rn --include='*.rs' 'env::var' crates/*/src | grep -c . || true)"
n_experiment="$(pub_fields crates/core/src/experiment.rs ExperimentConfig)"
n_pool="$(pub_fields crates/hpc/src/scheduler.rs PoolConfig)"
census="fig1 flags ${n_flags} + env vars ${n_env} + ExperimentConfig fields ${n_experiment}"
census+=" + PoolConfig fields ${n_pool} = $((n_flags + n_env + n_experiment + n_pool))"
echo "    ${census}"
if ! grep -qxF "${census}" DESIGN.md; then
    echo "    UNDOCUMENTED OPTION: DESIGN.md does not state this census; it states:" >&2
    grep -n '^fig1 flags [0-9]' DESIGN.md >&2 || echo "    (no census line)" >&2
    missing=1
fi
# Persisted keys: each record is declared once (`record!` in journal.rs and
# campaign_report.rs), so its keys are enumerable; every one must be named,
# in backticks, in the schema sections DESIGN.md §7.1 and §13.
echo "    doc-sync: every declared record key is in DESIGN.md §7.1 / §13"
declared_keys="$(awk '/^record!/ { on = 1 }
    on { line = $0
         while (match(line, /"[a-z_]+" (=>|= )/)) {
             key = substr(line, RSTART + 1, RLENGTH); sub(/".*/, "", key); print key
             line = substr(line, RSTART + RLENGTH) } }
    on && /^}\)?;?$/ { on = 0 }' crates/core/src/journal.rs crates/core/src/campaign_report.rs \
    | sort -u)"
if [[ -z "${declared_keys}" ]]; then
    echo "    NO KEYS: found no record! declaration to check" >&2
    missing=1
fi
schema_docs="$(awk '/^### 7\.1 /{on=1} /^### 7\.2 /{on=0} /^## 13\. /{on=1} /^## 14\. /{on=0} on' \
    DESIGN.md)"
for key in ${declared_keys}; do
    if ! grep -qF -- "\`${key}\`" <<<"${schema_docs}"; then
        echo "    UNDOCUMENTED KEY: DESIGN.md §7.1 / §13 never names \`${key}\`" >&2
        missing=1
    fi
done
echo "    checked $(grep -c . <<<"${declared_keys}") declared keys"
if [[ ${missing} -ne 0 ]]; then
    echo "verify: FAILED (doc-sync)" >&2
    exit 1
fi

CHAOS_STRESS="${CHAOS_STRESS:-3}"
echo "==> [6/12] chaos stress: ${CHAOS_STRESS}x journal crash/resume suites"
for i in $(seq 1 "${CHAOS_STRESS}"); do
    echo "    chaos iteration ${i}/${CHAOS_STRESS} (generational)"
    cargo test -q -p dphpo-core --test journal_chaos
    echo "    chaos iteration ${i}/${CHAOS_STRESS} (steady-state)"
    cargo test -q -p dphpo-core --test steady_state_identity
    echo "    chaos iteration ${i}/${CHAOS_STRESS} (work conservation)"
    cargo test -q -p dphpo-hpc --test work_conservation
    cargo test -q -p dphpo-core --test work_conservation
done

echo "==> [7/12] telemetry bit-identity (observed == unobserved artifacts)"
cargo test -q -p dphpo-core --test telemetry_identity
echo "    campaign observatory identity (status/report/counters across kill+resume)"
cargo test -q -p dphpo-core --test campaign_report_identity

CHAOS_SEEDS="${CHAOS_SEEDS:-2}"
echo "==> [8/12] corruption & salvage matrix (CHAOS_SEEDS=${CHAOS_SEEDS})"
CHAOS_SEEDS="${CHAOS_SEEDS}" cargo test -q -p dphpo-core --test corruption_matrix
echo "    frame-format property tests"
cargo test -q -p dphpo-core --test journal_frames
echo "    steady-state epoch records: growth guard, boundary kills, compaction"
cargo test -q -p dphpo-core --test steady_epoch_journal
echo "    chunked reader == sequential reader; a second salvage keeps the first's quarantine"
# By name, and a renamed test fails here instead of matching nothing.
cargo test -q -p dphpo-core --lib -- --exact \
    journal::tests::chunked_scan_equals_the_sequential_scan | grep "ok. 1 passed" >/dev/null
cargo test -q -p dphpo-core --test journal_frames -- --exact \
    a_second_salvage_keeps_the_first_ones_quarantined_bytes | grep "ok. 1 passed" >/dev/null

echo "==> [9/12] profile identity (profiling on/off, kill+resume, both modes)"
cargo test -q -p dphpo-core --test profile_identity
echo "    profiler property tests"
cargo test -q -p dphpo-core --test profile_props

echo "==> [10/12] oracle suite (release): finite differences and unfused references"
cargo test -q --release -p dphpo-dnnp --test oracle
cargo test -q --release -p dphpo-autograd --test fused_ops
echo "    EA building blocks vs O(n^2) textbook definitions; input.json / lcurve / status byte sweeps"
cargo test -q --release -p dphpo-evo --test definitional_oracles
cargo test -q --release -p dphpo-dnnp --test input_readers
cargo test -q --release -p dphpo-core --test status_reader

echo "==> [11/12] benchmark package: tests and smoke pass against this tree"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "==> [12/12] results/: journals verify, match reduced(), reproduce what is checked in; ablations regenerate"
regen="$(mktemp -d)"
trap 'rm -rf "${regen}"' EXIT
cp results/experiment.journal.jsonl results/steady_experiment.journal.jsonl "${regen}/"
for journal in experiment steady_experiment; do
    target/release/fig1 --verify-journal "${regen}/${journal}.journal.jsonl" >/dev/null
done
# The figure binaries first: they refuse an unfinished or stale journal, so
# the resumes below cannot start training. `ablations` reads no journal; its
# seeded synthetic runs take a few seconds.
for bin in fig2_table2 fig3 table3 ablations; do
    DPHPO_RESULTS_DIR="${regen}" "target/release/${bin}" >/dev/null
done
DPHPO_RESULTS_DIR="${regen}" target/release/fig1 \
    --resume "${regen}/experiment.journal.jsonl" >/dev/null 2>&1
DPHPO_RESULTS_DIR="${regen}" target/release/fig1 --steady-state \
    --resume "${regen}/steady_experiment.journal.jsonl" >/dev/null 2>&1
for path in "${regen}"/*; do
    cmp "${path}" "results/$(basename "${path}")"
done
echo "    ok: $(ls "${regen}" | wc -l) files reproduced"
# Observed a second time, into a fresh directory: the profile artifacts
# render the journaled rows, and observing changes no other byte — the
# campaign reports only gain their appended attribution sections.
observed="$(mktemp -d)"
trap 'rm -rf "${regen}" "${observed}"' EXIT
mkdir "${observed}/results"
cp results/experiment.journal.jsonl results/steady_experiment.journal.jsonl "${observed}/results/"
for prefix in "" steady_; do
    DPHPO_RESULTS_DIR="${observed}/results" target/release/fig1 ${prefix:+--steady-state} \
        --resume "${observed}/results/${prefix}experiment.journal.jsonl" \
        --observe "${observed}/${prefix}observe" >/dev/null 2>&1
    for name in profile.json profile.folded; do
        if [[ ! -s "${observed}/${prefix}observe/${name}" ]]; then
            echo "    EMPTY: fig1 --observe left no ${prefix}observe/${name}" >&2
            exit 1
        fi
    done
done
for path in "${observed}/results"/*; do
    name="$(basename "${path}")"
    if [[ "${name}" == *campaign_report.md ]]; then
        cmp -n "$(stat -c %s "results/${name}")" "${path}" "results/${name}"
    else
        cmp "${path}" "results/${name}"
    fi
done
echo "    ok: observed again, $(ls "${observed}/results" | wc -l) files as checked in"

if [[ "${BENCH_CHECK:-0}" == "1" ]]; then
    echo "==> [opt-in] perf-history regression check, fresh and checked-in (BENCH_CHECK=1)"
    scripts/bench_baseline.sh --check
    scripts/perf_history.sh
fi

echo "verify: OK"
