#!/usr/bin/env bash
# Pin the vectorization property of the hot dense kernels (DESIGN.md §10):
# disassemble the release `hotpath` binary and require that each kernel
# family's machine code
#
#   1. contains packed-double arithmetic on wide (ymm/zmm) registers —
#      i.e. the const-width column tiles really do autovectorize under
#      `-C target-cpu=native`, and
#   2. contains NO fused multiply-add — the bit-identity contract keeps
#      multiplies and adds as separate roundings, so a `vfmadd*`
#      appearing in a matmul kernel means the contract was broken.
#
# Checked families — simd.rs: mm_tile (plain matmul; mm_nt packs into the
# same tiles), mm_tn_tile (transposed-A matmul), and the bulk activations
# on the one polynomial `exp` core: exp_block, tanh_block, sigmoid_block,
# softplus_block; fused.rs: the pair-stream kernels embed_pool
# (embedding → pool), embed_sens (per-pair sensitivity; the pattern also
# takes embed_sens_gbar) and embed_back (the second-order reverse sweep, the
# fold of a mirror lane's seeds inlined), whose lane blocks must vectorize
# too.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "$(uname -m)" != "x86_64" ]]; then
    echo "asm check: SKIP (x86_64-only check, this is $(uname -m))"
    exit 0
fi
command -v objdump >/dev/null || { echo "asm check: objdump not found" >&2; exit 1; }

bin="target/release/hotpath"
if [[ ! -x "${bin}" ]]; then
    cargo build --release -p dphpo-bench --bin hotpath
fi

asm="$(mktemp /tmp/asm_check.XXXXXX.txt)"
trap 'rm -f "${asm}" "${asm}.body"' EXIT
objdump -d --no-show-raw-insn "${bin}" > "${asm}"

fail=0
check_family() {
    local name="$1" forbid_fma="$2"
    # Slice out every monomorphized body whose mangled symbol contains the
    # family name (tiles are const-generic, so there are many per family).
    awk -v pat="${name}" '
        /^[0-9a-f]+ <.*>:$/ { inside = ($0 ~ pat) }
        inside { print }
    ' "${asm}" > "${asm}.body"
    if [[ ! -s "${asm}.body" ]]; then
        echo "asm check: FAIL ${name}: symbol not found (inlined away or renamed?)" >&2
        fail=1
        return
    fi
    local wide fma
    wide="$(grep -cE 'v(mul|add|sub)pd.*%(y|z)mm' "${asm}.body" || true)"
    fma="$(grep -cE 'vfmadd[0-9]*(pd|sd)' "${asm}.body" || true)"
    if [[ "${wide}" -lt 8 ]]; then
        echo "asm check: FAIL ${name}: only ${wide} packed ymm/zmm mul/add/sub (want >= 8)" >&2
        fail=1
    elif [[ "${forbid_fma}" == "no-fma" && "${fma}" -gt 0 ]]; then
        echo "asm check: FAIL ${name}: ${fma} fused multiply-adds — bit-identity contract broken" >&2
        fail=1
    else
        echo "asm check: ok ${name}: ${wide} packed wide ops, ${fma} fma"
    fi
}

check_family "mm_tile" no-fma
check_family "mm_tn_tile" no-fma
check_family "exp_block" fma-ok
check_family "tanh_block" fma-ok
check_family "sigmoid_block" fma-ok
check_family "softplus_block" fma-ok
# Anchored on the module so the tape methods of the same names stay out.
check_family "fused[0-9]*embed_pool" no-fma
check_family "fused[0-9]*embed_sens" no-fma
check_family "fused[0-9]*embed_back" no-fma

if [[ ${fail} -ne 0 ]]; then
    echo "asm check: FAILED" >&2
    exit 1
fi
echo "asm check: OK"
