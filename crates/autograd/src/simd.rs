//! Batched, lane-friendly dense kernels for the training hot path.
//!
//! The DNNP training step is dominated by tall-skinny dense algebra:
//! matrices with hundreds-to-thousands of rows (pairs, atoms) but only
//! 1–16 columns (embedding and fitting widths). The generic row-loop
//! kernels in `tensor.rs` leave 3–10× on the table for those shapes
//! because the inner trip count is tiny and runtime-sized, so the
//! autovectorizer emits scalar remainder loops and per-row branch
//! overhead dominates.
//!
//! This module provides the wide replacements. There is no `std::simd`
//! on stable, so lanes are expressed as **const-generic column tiles**:
//! each microkernel is monomorphized for a fixed tile width `N ≤ 16`,
//! giving the compiler compile-time trip counts it reliably turns into
//! packed `vmulpd`/`vaddpd` (AVX-512: two 8-lane registers per row of a
//! 16-wide tile). `scripts/asm_check.sh` pins that property.
//!
//! ## FP-semantics contract (see DESIGN.md §10)
//!
//! Every kernel accumulates each **output element independently, in
//! strictly ascending `k` order**, exactly like a naive triple loop:
//!
//! * register tiles block rows/columns, never the reduction axis;
//! * multiplies and adds stay separate instructions (no `mul_add`
//!   contraction, which would change rounding);
//! * there is **no zero-skip**: earlier kernels skipped `a == 0.0`
//!   multiplier rows. For finite operands the results are bit-identical
//!   (a `±0.0` contribution never flips a `+0.0`-initialised
//!   accumulator), but `0.0 × NaN/∞` now propagates `NaN` where the
//!   skipping kernels silently dropped it. Training data is guarded
//!   finite by the divergence sentinel, so campaign artifacts are
//!   byte-identical across the switch.

/// Widest column tile: 16 doubles = two AVX-512 registers (four AVX2).
const TILE: usize = 16;

/// Row-block factor: accumulators for 4 rows of a tile live in registers
/// across the whole reduction, quartering traffic on the shared B row.
const RBLOCK: usize = 4;

thread_local! {
    /// Scratch for the `mm_nt` transpose pack, reused across calls.
    static PACK: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `out[m,n] += a[m,k] @ b[k,n]`, all row-major and dense.
///
/// Columns are processed in const-width tiles (widest first) so every
/// inner loop has a compile-time trip count.
pub(crate) fn mm(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    each_col_tile(n, |j, w| mm_dispatch(w, a, m, k, &b[j..], n, &mut out[j..], n));
}

/// `out[m,p] = a[m,k] @ b[p,k]ᵀ` (overwrites `out`).
///
/// The old layout walked 8 strided rows of `b` in lockstep — scalar
/// loads the vectorizer cannot coalesce. Packing `bᵀ` once into a
/// k-major scratch panel turns the kernel into the plain `mm` shape;
/// each dot still accumulates in ascending `k` order, so results are
/// bit-identical to the unpacked kernel.
pub(crate) fn mm_nt(a: &[f64], m: usize, k: usize, b: &[f64], p: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), p * k);
    debug_assert_eq!(out.len(), m * p);
    out.fill(0.0);
    if m == 0 || p == 0 || k == 0 {
        return;
    }
    PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        pack.clear();
        pack.resize(k * p, 0.0);
        for (j, brow) in b.chunks_exact(k).enumerate() {
            for (kk, &v) in brow.iter().enumerate() {
                pack[kk * p + j] = v;
            }
        }
        mm(a, m, k, &pack, p, out);
    });
}

/// `out[m,n] += a[k,m]ᵀ @ b[k,n]` without materialising the transpose.
///
/// The reduction axis is the (large) row count `k`; consecutive output
/// rows read consecutive elements of each `a` row, so blocking 4 output
/// rows keeps the loads contiguous and the accumulators in registers.
pub(crate) fn mm_tn(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    each_col_tile(n, |j, w| mm_tn_dispatch(w, a, k, m, &b[j..], n, &mut out[j..], n));
}

/// Split `n` columns into const-width tiles, widest first.
fn each_col_tile(n: usize, mut f: impl FnMut(usize, usize)) {
    let mut j = 0;
    while j < n {
        let w = (n - j).min(TILE);
        f(j, w);
        j += w;
    }
}

/// Monomorphization dispatch for [`mm_tile`]: `w ∈ 1..=16`.
#[allow(clippy::too_many_arguments)]
fn mm_dispatch(w: usize, a: &[f64], m: usize, k: usize, b: &[f64], ldb: usize, out: &mut [f64], ldo: usize) {
    macro_rules! arms {
        ($($n:literal),*) => {
            match w {
                $($n => mm_tile::<$n>(a, m, k, b, ldb, out, ldo),)*
                _ => unreachable!("column tile width {w} out of range"),
            }
        };
    }
    arms!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// Monomorphization dispatch for [`mm_tn_tile`]: `w ∈ 1..=16`.
#[allow(clippy::too_many_arguments)]
fn mm_tn_dispatch(w: usize, a: &[f64], k: usize, m: usize, b: &[f64], ldb: usize, out: &mut [f64], ldo: usize) {
    macro_rules! arms {
        ($($n:literal),*) => {
            match w {
                $($n => mm_tn_tile::<$n>(a, k, m, b, ldb, out, ldo),)*
                _ => unreachable!("column tile width {w} out of range"),
            }
        };
    }
    arms!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// One `m × N` output tile of `out += a @ b`, with `b`/`out` column
/// panels of leading dimension `ldb`/`ldo`.
///
/// `#[inline(never)]` keeps one monomorphized symbol per width so
/// `scripts/asm_check.sh` can audit the emitted vector instructions.
#[inline(never)]
fn mm_tile<const N: usize>(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    let mut i = 0;
    while i + RBLOCK <= m {
        let arows: [&[f64]; RBLOCK] = std::array::from_fn(|r| &a[(i + r) * k..(i + r) * k + k]);
        let mut acc = [[0.0f64; N]; RBLOCK];
        for (r, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&out[(i + r) * ldo..(i + r) * ldo + N]);
        }
        for kk in 0..k {
            let brow: &[f64; N] = b[kk * ldb..kk * ldb + N].try_into().unwrap();
            for (accr, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[kk];
                for (o, &bv) in accr.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[(i + r) * ldo..(i + r) * ldo + N].copy_from_slice(accr);
        }
        i += RBLOCK;
    }
    while i < m {
        let arow = &a[i * k..i * k + k];
        let mut acc = [0.0f64; N];
        acc.copy_from_slice(&out[i * ldo..i * ldo + N]);
        for (kk, &av) in arow.iter().enumerate() {
            let brow: &[f64; N] = b[kk * ldb..kk * ldb + N].try_into().unwrap();
            for (o, &bv) in acc.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        out[i * ldo..i * ldo + N].copy_from_slice(&acc);
        i += 1;
    }
}

/// One `m × N` output tile of `out += aᵀ @ b`: `a` is `[k,m]`, reduction
/// over its rows, 4 output rows blocked so the `a` loads are contiguous.
#[inline(never)]
fn mm_tn_tile<const N: usize>(
    a: &[f64],
    k: usize,
    m: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    let mut i = 0;
    while i + RBLOCK <= m {
        let mut acc = [[0.0f64; N]; RBLOCK];
        for (r, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&out[(i + r) * ldo..(i + r) * ldo + N]);
        }
        for kk in 0..k {
            let avals: &[f64; RBLOCK] = a[kk * m + i..kk * m + i + RBLOCK].try_into().unwrap();
            let brow: &[f64; N] = b[kk * ldb..kk * ldb + N].try_into().unwrap();
            for (accr, &av) in acc.iter_mut().zip(avals) {
                for (o, &bv) in accr.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[(i + r) * ldo..(i + r) * ldo + N].copy_from_slice(accr);
        }
        i += RBLOCK;
    }
    while i < m {
        let mut acc = [0.0f64; N];
        acc.copy_from_slice(&out[i * ldo..i * ldo + N]);
        for kk in 0..k {
            let av = a[kk * m + i];
            let brow: &[f64; N] = b[kk * ldb..kk * ldb + N].try_into().unwrap();
            for (o, &bv) in acc.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        out[i * ldo..i * ldo + N].copy_from_slice(&acc);
        i += 1;
    }
}

/// `out[i·c..][..c] = x[i·c..][..c] · s[i]` — the `mul_col_vec` kernel,
/// one fused pass with const-width rows for the common narrow shapes.
pub(crate) fn row_scale(x: &[f64], c: usize, s: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), s.len() * c);
    debug_assert_eq!(out.len(), x.len());
    macro_rules! fixed {
        ($n:literal) => {{
            for ((orow, xrow), &sv) in
                out.chunks_exact_mut($n).zip(x.chunks_exact($n)).zip(s)
            {
                let xrow: &[f64; $n] = xrow.try_into().unwrap();
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o = xv * sv;
                }
            }
        }};
    }
    match c {
        1 => fixed!(1),
        2 => fixed!(2),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        8 => fixed!(8),
        16 => fixed!(16),
        _ => {
            for ((orow, xrow), &sv) in
                out.chunks_exact_mut(c.max(1)).zip(x.chunks_exact(c.max(1))).zip(s)
            {
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o = xv * sv;
                }
            }
        }
    }
}

/// Row gather: `out[i] = x[idx[i]]`, const-width rows.
pub(crate) fn gather_rows(x: &[f64], c: usize, idx: &[usize], out: &mut [f64]) {
    debug_assert_eq!(out.len(), idx.len() * c);
    macro_rules! fixed {
        ($n:literal) => {{
            for (orow, &i) in out.chunks_exact_mut($n).zip(idx) {
                let xrow: &[f64; $n] = x[i * $n..i * $n + $n].try_into().unwrap();
                orow.copy_from_slice(xrow);
            }
        }};
    }
    match c {
        1 => fixed!(1),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        16 => fixed!(16),
        _ => {
            for (orow, &i) in out.chunks_exact_mut(c.max(1)).zip(idx) {
                orow.copy_from_slice(&x[i * c..i * c + c]);
            }
        }
    }
}

/// Row scatter-add: `out[idx[i]] += x[i]`, const-width rows. Rows are
/// visited in ascending `i`, so each destination accumulates in the same
/// order as the naive loop — bit-identical.
pub(crate) fn scatter_add_rows(x: &[f64], c: usize, idx: &[usize], out: &mut [f64]) {
    debug_assert_eq!(x.len(), idx.len() * c);
    macro_rules! fixed {
        ($n:literal) => {{
            for (xrow, &i) in x.chunks_exact($n).zip(idx) {
                let xrow: &[f64; $n] = xrow.try_into().unwrap();
                let orow = &mut out[i * $n..i * $n + $n];
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += xv;
                }
            }
        }};
    }
    match c {
        1 => fixed!(1),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        16 => fixed!(16),
        _ => {
            for (xrow, &i) in x.chunks_exact(c.max(1)).zip(idx) {
                let orow = &mut out[i * c..i * c + c];
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += xv;
                }
            }
        }
    }
}

/// `[n,k] + [k]` bias broadcast: `out[i·c+j] = x[i·c+j] + bias[j]`.
pub(crate) fn add_bias(x: &[f64], c: usize, bias: &[f64], out: &mut [f64]) {
    debug_assert_eq!(bias.len(), c);
    debug_assert_eq!(x.len(), out.len());
    macro_rules! fixed {
        ($n:literal) => {{
            let bias: &[f64; $n] = bias.try_into().unwrap();
            for (orow, xrow) in out.chunks_exact_mut($n).zip(x.chunks_exact($n)) {
                for ((o, &xv), &bv) in orow.iter_mut().zip(xrow).zip(bias) {
                    *o = xv + bv;
                }
            }
        }};
    }
    match c {
        1 => fixed!(1),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        8 => fixed!(8),
        16 => fixed!(16),
        _ => {
            for (orow, xrow) in out.chunks_exact_mut(c.max(1)).zip(x.chunks_exact(c.max(1))) {
                for ((o, &xv), &bv) in orow.iter_mut().zip(xrow).zip(bias) {
                    *o = xv + bv;
                }
            }
        }
    }
}

/// In-place `[n,k] += [k]` bias broadcast: `out[i·c+j] += bias[j]`.
pub(crate) fn add_bias_inplace(out: &mut [f64], c: usize, bias: &[f64]) {
    debug_assert_eq!(bias.len(), c);
    macro_rules! fixed {
        ($n:literal) => {{
            let bias: &[f64; $n] = bias.try_into().unwrap();
            for orow in out.chunks_exact_mut($n) {
                for (o, &bv) in orow.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }};
    }
    match c {
        1 => fixed!(1),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        8 => fixed!(8),
        16 => fixed!(16),
        _ => {
            for orow in out.chunks_exact_mut(c.max(1)) {
                for (o, &bv) in orow.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
    }
}

/// Column sums accumulated in ascending row order: `out[j] += Σ_i x[i,j]`.
pub(crate) fn sum_rows(x: &[f64], c: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), c);
    macro_rules! fixed {
        ($n:literal) => {{
            let out: &mut [f64; $n] = out.try_into().unwrap();
            for xrow in x.chunks_exact($n) {
                for (o, &xv) in out.iter_mut().zip(xrow) {
                    *o += xv;
                }
            }
        }};
    }
    match c {
        1 => fixed!(1),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        8 => fixed!(8),
        16 => fixed!(16),
        _ => {
            for xrow in x.chunks_exact(c.max(1)) {
                for (o, &xv) in out.iter_mut().zip(xrow) {
                    *o += xv;
                }
            }
        }
    }
}

/// Row-wise dot product `out[i] = Σ_j a[i,j]·b[i,j]`, ascending `j`.
pub(crate) fn rowwise_dot(a: &[f64], b: &[f64], c: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len() * c);
    macro_rules! fixed {
        ($n:literal) => {{
            for ((o, arow), brow) in
                out.iter_mut().zip(a.chunks_exact($n)).zip(b.chunks_exact($n))
            {
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }};
    }
    match c {
        1 => fixed!(1),
        3 => fixed!(3),
        4 => fixed!(4),
        6 => fixed!(6),
        16 => fixed!(16),
        _ => {
            for ((o, arow), brow) in
                out.iter_mut().zip(a.chunks_exact(c.max(1))).zip(b.chunks_exact(c.max(1)))
            {
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
    }
}

/// Lane width of the bulk `exp`-family blocks: four 8-lane AVX-512 vectors
/// (eight AVX2) of **independent** Horner chains per iteration, hiding the
/// serial multiply–add latency a one-chain loop is bound by.
const EXP_LANES: usize = 32;

/// `2^k` for an integral `k ∈ [−1022, 1023]`, assembled in the exponent bits
/// without a float→int cast (Rust's saturating cast branches and defeats
/// vectorization): adding 2^52 + 2^51 parks `k` in the low mantissa bits,
/// and shifting those into the exponent field yields the biased exponent
/// `1023 + k`.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    let u = k + 6_755_399_441_055_744.0;
    f64::from_bits((u.to_bits() << 52).wrapping_add(1023u64 << 52))
}

/// `e^x`, branch-free, over `W` independent lanes: the one polynomial core
/// under `exp`, tanh, sigmoid and softplus. Against libm the error is at
/// most 5e-16 relative where libm's result is normal and at most 2⁻¹⁰²¹
/// absolute where it is subnormal or zero; the result overflows to `+∞`
/// past `ln(f64::MAX)` and NaN propagates through `r` and the polynomial.
///
/// `x` is clamped to `[−746, 710]`, beyond which the result is `+0` or
/// `+∞` anyway. `x = k·ln2 + r` with `k = round(x·log₂e)` and `ln 2` split
/// hi/lo so the hi part of `x − k·ln2` stays exact; `e^r` for
/// `|r| ≤ ln2/2` is `1 + r + r²·q(r)` with `q` of degree 9: a Remez
/// minimax fit of `(e^r − 1 − r)/r²` weighted for relative error in
/// `e^r`, 3.6e-18 in exact arithmetic and 1.1e-17 with the coefficients
/// rounded to `f64`; a Taylor polynomial needs degree 13, two more
/// multiply-add steps, for 5e-18. The scale `2^k`
/// (`k ∈ [−1076, 1024]`) is applied as two factors `2^h·2^(k−h)`,
/// `h = trunc(k/2)`, each in the normal range: the first product is exact,
/// so the result is rounded once, also where it is subnormal or overflows.
///
/// The **same code runs the `EXP_LANES`-wide block and the one-lane
/// tail**, so an element's bits do not depend on where in a slice it sits.
#[inline(always)]
fn exp_lanes<const W: usize>(x: &mut [f64; W]) {
    const LOG2_E: f64 = std::f64::consts::LOG2_E;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    let mut kf = [0.0f64; W];
    for (kv, xv) in kf.iter_mut().zip(x.iter_mut()) {
        *xv = xv.clamp(-746.0, 710.0);
        *kv = (*xv * LOG2_E).round();
    }
    let mut r = [0.0f64; W];
    for ((rv, &xv), &kv) in r.iter_mut().zip(x.iter()).zip(&kf) {
        *rv = (xv - kv * LN2_HI) - kv * LN2_LO;
    }
    let mut p = [2.500_007_294_753_146e-8; W];
    for coeff in [
        2.763_023_407_657_307e-7,
        2.755_758_626_516_953e-6,
        2.480_149_313_577_339_2e-5,
        1.984_126_950_678_01e-4,
        1.388_888_894_359_806_5e-3,
        8.333_333_333_494_333e-3,
        4.166_666_666_653_026_7e-2,
        1.666_666_666_666_641_3e-1,
        5.000_000_000_000_011e-1,
        1.0,
        1.0,
    ] {
        for (pv, &rv) in p.iter_mut().zip(&r) {
            *pv = *pv * rv + coeff;
        }
    }
    for ((o, &pv), &kv) in x.iter_mut().zip(&p).zip(&kf) {
        let half = (kv * 0.5).trunc();
        *o = (pv * pow2(half)) * pow2(kv - half);
    }
}

/// `tanh(x) = (e^t − 1)/(e^t + 1)` with `t = 2x`. Beyond `|t| = 40` the
/// quotient rounds to ±1 exactly, so `t` is clamped there, keeping `e^t`
/// finite.
/// Absolute error vs libm `tanh` below 5e-16.
#[inline(always)]
fn tanh_lanes<const W: usize>(x: &mut [f64; W]) {
    for v in x.iter_mut() {
        *v = (2.0 * *v).clamp(-40.0, 40.0);
    }
    exp_lanes(x);
    for v in x.iter_mut() {
        *v = (*v - 1.0) / (*v + 1.0);
    }
}

/// `σ(x) = n/(1 + q)` with `q = e^{−|x|} ∈ [0, 1]` and `n = 1` for `x ≥ 0`,
/// `n = q` below: the same function as `1/(1 + e^{−x})`, but `1 + q` never
/// leaves `[1, 2]`, so no tie in its rounding doubles a one-ulp difference
/// in `q`. NaN propagates through `q`.
#[inline(always)]
fn sigmoid_lanes<const W: usize>(x: &mut [f64; W]) {
    let mut q = [0.0f64; W];
    for (qv, &xv) in q.iter_mut().zip(x.iter()) {
        *qv = -xv.abs();
    }
    exp_lanes(&mut q);
    for (o, &qv) in x.iter_mut().zip(&q) {
        let n = if *o >= 0.0 { 1.0 } else { qv };
        *o = n / (1.0 + qv);
    }
}

/// `softplus(x) = max(x, 0) + ln(1 + q)` with `q = e^{−|x|} ∈ [0, 1]`, and
/// `ln(1 + q) = 2·atanh(s) = 2s·(1 + s²/3 + s⁴/5 + … + s³⁴/35)` for
/// `s = q/(2 + q) ≤ 1/3` (truncation `s³⁶/37` below 2e-19 relative).
///
/// Spelled to round as little as possible: `2s = 2q/d` with `d = 2 + q`
/// and `d`'s rounding error `ε = (2 − d) + q` (exact), so the true `2s` is
/// `2s·(1 − ε/d)`; the series is `2s + 2s·(s²·R)`, and both small
/// corrections are added to `2s` last. NaN propagates through `q`.
#[inline(always)]
fn softplus_lanes<const W: usize>(x: &mut [f64; W]) {
    let mut q = [0.0f64; W];
    for (qv, &xv) in q.iter_mut().zip(x.iter()) {
        *qv = -xv.abs();
    }
    exp_lanes(&mut q);
    let mut t = [0.0f64; W];
    let mut z = [0.0f64; W];
    let mut fix = [0.0f64; W];
    for (((tv, zv), fv), &qv) in t.iter_mut().zip(z.iter_mut()).zip(fix.iter_mut()).zip(&q) {
        let d = 2.0 + qv;
        *tv = (2.0 * qv) / d;
        *fv = *tv * (((2.0 - d) + qv) / d);
        let s = 0.5 * *tv;
        *zv = s * s;
    }
    let mut p = [1.0 / 35.0; W];
    for coeff in [
        1.0 / 33.0,
        1.0 / 31.0,
        1.0 / 29.0,
        1.0 / 27.0,
        1.0 / 25.0,
        1.0 / 23.0,
        1.0 / 21.0,
        1.0 / 19.0,
        1.0 / 17.0,
        1.0 / 15.0,
        1.0 / 13.0,
        1.0 / 11.0,
        1.0 / 9.0,
        1.0 / 7.0,
        1.0 / 5.0,
        1.0 / 3.0,
    ] {
        for (pv, &zv) in p.iter_mut().zip(&z) {
            *pv = *pv * zv + coeff;
        }
    }
    for (((o, &tv), &zv), (&pv, &fv)) in x.iter_mut().zip(&t).zip(&z).zip(p.iter().zip(&fix)) {
        *o = o.max(0.0) + (tv + (tv * (zv * pv) - fv));
    }
}

/// Bulk kernels in place: full [`EXP_LANES`] blocks, then the remainder one
/// lane at a time through the same code. Each block function is
/// `#[inline(never)]` so `scripts/asm_check.sh` can find its symbol.
macro_rules! bulk {
    ($($(#[$doc:meta])* $slice:ident, $block:ident, $lanes:ident;)*) => {$(
        #[inline(never)]
        fn $block(out: &mut [f64; EXP_LANES]) {
            $lanes(out);
        }

        $(#[$doc])*
        pub(crate) fn $slice(out: &mut [f64]) {
            let mut blocks = out.chunks_exact_mut(EXP_LANES);
            for b in &mut blocks {
                $block(b.try_into().unwrap());
            }
            for o in blocks.into_remainder() {
                $lanes::<1>(std::slice::from_mut(o).try_into().unwrap());
            }
        }
    )*};
}

bulk! {
    /// Bulk `e^x` ([`exp_lanes`]).
    exp_slice, exp_block, exp_lanes;
    /// Bulk `tanh` ([`tanh_lanes`]).
    tanh_slice, tanh_block, tanh_lanes;
    /// Bulk logistic sigmoid ([`sigmoid_lanes`]).
    sigmoid_slice, sigmoid_block, sigmoid_lanes;
    /// Bulk softplus ([`softplus_lanes`]).
    softplus_slice, softplus_block, softplus_lanes;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mm(a: &[f64], m: usize, k: usize, b: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: f64) -> Vec<f64> {
        (0..len).map(|i| ((i as f64 + seed) * 0.7315).sin() * 3.0).collect()
    }

    #[test]
    fn mm_matches_naive_bitwise_across_sizes() {
        // Odd sizes straddle every tile width and the row-block remainder.
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 7), (9, 2, 16), (13, 5, 17), (6, 4, 33), (4, 8, 16)] {
            let a = fill(m * k, 1.0);
            let b = fill(k * n, 2.0);
            let mut out = vec![0.0; m * n];
            mm(&a, m, k, &b, n, &mut out);
            let want = naive_mm(&a, m, k, &b, n);
            for (i, (&got, &w)) in out.iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), w.to_bits(), "mm {m}x{k}x{n} element {i}");
            }
        }
    }

    #[test]
    fn mm_handles_empty_operands() {
        let mut out = vec![];
        mm(&[], 0, 3, &fill(9, 0.0), 3, &mut out);
        mm(&fill(6, 0.0), 2, 3, &[], 0, &mut out);
        let mut out1 = vec![0.0; 4];
        mm(&[], 2, 0, &[], 2, &mut out1);
        assert_eq!(out1, vec![0.0; 4]);
    }

    #[test]
    fn mm_nt_matches_naive_bitwise() {
        for &(m, k, p) in &[(1, 1, 1), (7, 3, 5), (4, 4, 9), (13, 6, 18), (3, 1, 2)] {
            let a = fill(m * k, 3.0);
            let b = fill(p * k, 4.0);
            let mut out = vec![f64::NAN; m * p];
            mm_nt(&a, m, k, &b, p, &mut out);
            // Reference: each dot in ascending k order.
            for i in 0..m {
                for j in 0..p {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[j * k + kk];
                    }
                    assert_eq!(out[i * p + j].to_bits(), acc.to_bits(), "nt {m}x{k}x{p} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn mm_tn_matches_naive_bitwise() {
        for &(k, m, n) in &[(1, 1, 1), (9, 3, 5), (21, 4, 4), (8, 6, 17), (5, 2, 1)] {
            let a = fill(k * m, 5.0);
            let b = fill(k * n, 6.0);
            let mut out = vec![0.0; m * n];
            mm_tn(&a, k, m, &b, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[kk * m + i] * b[kk * n + j];
                    }
                    assert_eq!(out[i * n + j].to_bits(), acc.to_bits(), "tn {k}x{m}x{n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn row_helpers_match_naive() {
        for &c in &[1usize, 3, 4, 5, 6, 16] {
            let r = 11;
            let x = fill(r * c, 7.0);
            let s = fill(r, 8.0);
            let mut out = vec![0.0; r * c];
            row_scale(&x, c, &s, &mut out);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(out[i * c + j].to_bits(), (x[i * c + j] * s[i]).to_bits());
                }
            }
            let idx: Vec<usize> = (0..r).map(|i| (i * 7) % 5).collect();
            let base = fill(5 * c, 9.0);
            let mut g = vec![0.0; r * c];
            gather_rows(&base, c, &idx, &mut g);
            for (row, &i) in idx.iter().enumerate() {
                assert_eq!(&g[row * c..row * c + c], &base[i * c..i * c + c]);
            }
            let mut sc = vec![0.0; 5 * c];
            scatter_add_rows(&g, c, &idx, &mut sc);
            let mut want = vec![0.0; 5 * c];
            for (row, &i) in idx.iter().enumerate() {
                for j in 0..c {
                    want[i * c + j] += g[row * c + j];
                }
            }
            for (a, b) in sc.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
