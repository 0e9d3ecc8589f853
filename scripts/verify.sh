#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md) plus the documentation and lint gates:
#
#   1. cargo build --release       — the whole workspace compiles
#   2. cargo test -q               — every test passes
#   3. cargo clippy                — lints clean with warnings DENIED
#   4. cargo doc --no-deps         — rustdoc builds with warnings DENIED
#   5. doc-sync                    — every `--bin` named in EXPERIMENTS.md
#                                    exists; the fig1 flags README.md /
#                                    EXPERIMENTS.md use are exactly the ones
#                                    `fig1 --list-flags` parses (none dead,
#                                    none undocumented); every `pub mod`
#                                    is named by some file besides its lib.rs,
#                                    and every `pub fn` / `pub const` by some
#                                    file besides its own and its lib.rs;
#                                    the host's core count is read in one
#                                    place (`available_parallelism` is named
#                                    once under crates/*/src, in hpc::pool);
#                                    and the options census (fig1 flags,
#                                    `env::var` reads under crates/*/src, pub
#                                    fields of ExperimentConfig + PoolConfig)
#                                    is the line DESIGN.md §3.7 states; and
#                                    every key a `record!` declaration in
#                                    core::journal / core::campaign_report
#                                    names is documented in DESIGN.md §7.1
#                                    or §13
#   6. chaos stress                — the journal crash/resume chaos suites
#                                    (generational and steady-state) and the
#                                    latch-forced work-conservation suites
#                                    (a simulated death costs no real thread;
#                                    steady-state look-ahead; a kill with
#                                    prefetched work in flight), looped
#                                    CHAOS_STRESS times (default 3) to shake
#                                    out racy supervision interleavings
#   7. telemetry identity          — a faulty campaign run with a live
#                                    recorder must produce byte-identical
#                                    artifacts to one run without, and its
#                                    two deterministic exports (event log,
#                                    Chrome trace) must be byte-identical
#                                    across re-runs; plus the campaign
#                                    observatory, the one renderer of tables
#                                    and counter tracks: the live
#                                    campaign_status.json, the end-of-run
#                                    report, and the Chrome counter tracks
#                                    must be byte-identical across re-runs
#                                    and across a chaos kill/resume
#   8. corruption & salvage matrix — flip/truncate a finished journal
#                                    across byte offsets in both campaign
#                                    modes, salvage, resume, and demand
#                                    byte-identity with the undamaged run;
#                                    frame-format property tests; plus a
#                                    seeded fault-plan sweep (CHAOS_SEEDS
#                                    io-fault seeds per mode, default 2;
#                                    CORRUPT_STRIDE / SALVAGE_STRIDE tighten
#                                    the offset grid, 1 = exhaustive); and
#                                    the steady journal's growth guard:
#                                    snapshots stay flat over seven epochs,
#                                    one boundary record per (run, epoch),
#                                    kills around every epoch close resume
#                                    byte-identically, compact + resume
#                                    reproduces the populations; the chunked
#                                    reader: a scan in 1..=8 chunks equals
#                                    the sequential one on clean and damaged
#                                    journals (and load / verify / salvage /
#                                    compact agree with it); and a second
#                                    salvage appends to the quarantine
#   9. profile identity            — profiling on/off leaves every campaign
#                                    artifact byte-identical, the profile
#                                    artifacts themselves are byte-identical
#                                    across kill+resume and re-runs, and
#                                    profile.json's leaves are the status
#                                    rows' minutes bit for bit (both campaign
#                                    modes); plus the profiler property tests
#                                    over random status rows (order
#                                    independence, the exact
#                                    self+children==inclusive invariant,
#                                    folded-format validity)
#  10. oracle suite (--release)    — checks against references that do not
#                                    run the code under test: whole-model
#                                    forces vs finite differences of the
#                                    energy (5×5 activations × cutoffs),
#                                    energy invariance and force rotation
#                                    under the cubic cell's 48 symmetries,
#                                    training-loss parameter gradients vs
#                                    finite differences, the fused batch
#                                    path vs the unfused position graph over
#                                    random shapes, and the three fused tape
#                                    ops vs the same chain spelled with
#                                    unfused taped primitives; the EA's sort,
#                                    crowding, truncation, archive and `tell`
#                                    vs O(n²) textbook definitions on fronts
#                                    with ties, duplicates, MAXINT and ±inf;
#                                    every prefix and bit flip of input.json,
#                                    lcurve.out and campaign_status.json
#                                    through their readers
#  11. benchmark package           — benchmark/ is its own workspace, so the
#                                    stages above never compile it: build and
#                                    test it against this tree (a removed
#                                    re-export in benchmark/src/adapter.rs
#                                    fails here), then run its smoke pass
#  12. results/ are the tree's bits — seconds, no training: both checked-in
#                                    journals verify undamaged, carry the
#                                    fingerprint of ExperimentConfig::reduced()
#                                    in their mode and are finished (`fig1
#                                    --resume` of each exits 0 and leaves the
#                                    journal's bytes alone), and everything
#                                    derived from them — fig2_table2, fig3,
#                                    table3, and fig1's own levels, reports,
#                                    status files and counter tracks — comes
#                                    out byte for byte as checked in; then
#                                    both are resumed again with --observe
#                                    into a fresh directory: profile.json and
#                                    profile.folded are non-empty, and every
#                                    other file equals results/ except the
#                                    two campaign reports, which must begin
#                                    with the checked-in bytes
#
# Opt-in extras (timing-sensitive, off by default on shared hardware):
#
#   BENCH_CHECK=1                  — perf_report --check must find no timing
#                                    row more than 15% over its
#                                    BENCH_history.jsonl median, in a fresh
#                                    quick hot-path measurement
#                                    (bench_baseline.sh --check) or in the
#                                    checked-in snapshots (perf_history.sh)
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

echo "==> [5/12] doc-sync: EXPERIMENTS.md targets exist"
missing=0
for bin in $(grep -o -- '--bin [a-z0-9_]*' EXPERIMENTS.md | awk '{print $2}' | sort -u); do
    if [[ ! -f "crates/bench/src/bin/${bin}.rs" ]]; then
        echo "    MISSING: EXPERIMENTS.md references --bin ${bin}" >&2
        missing=1
    else
        echo "    ok: --bin ${bin}"
    fi
done
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

echo "==> [12/12] results/: journals verify, match reduced(), reproduce what is checked in"
regen="$(mktemp -d)"
trap 'rm -rf "${regen}"' EXIT
cp results/experiment.journal.jsonl results/steady_experiment.journal.jsonl "${regen}/"
for journal in experiment steady_experiment; do
    target/release/fig1 --verify-journal "${regen}/${journal}.journal.jsonl" >/dev/null
done
# The figure binaries first: they refuse an unfinished or stale journal, so
# the resumes below cannot start training.
for bin in fig2_table2 fig3 table3; do
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
