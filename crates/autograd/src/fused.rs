//! Fused pair-stream kernels: the embedding → pool pass, its sensitivity
//! (the per-pair `∂E/∂s` the forces are built from), the second-order
//! backward of that sensitivity, and the force scatter.
//!
//! A DNNP training step spends most of its time on one shape of work: a
//! small MLP applied to every neighbour pair's scalar input, weighted and
//! pooled per centre atom. Spelled as separate tape ops that is a dozen
//! passes over `[P, 1]`/`[P, 6]`/`[P, 4]` arrays per neighbour species,
//! each with its own node, buffer and value-level backward. The kernels
//! here make one pass each (DESIGN.md §3.8).
//!
//! ## Layout
//!
//! The pairs of a [`PairList`] form one stream: segment after segment, in
//! list order. The stream is cut into **lane blocks** of [`LANES`]
//! consecutive pairs — lane `ℓ` of block `k` is pair `k·LANES + ℓ`, blocks
//! straddle segment boundaries, and only the last block of a stream is
//! partial (its dead lanes carry `z = s = g = ū = 0`). Inside a block every
//! per-pair quantity of width `n` is stored `[n][LANES]`, lanes contiguous,
//! so a layer is `n·k` broadcast-multiply/adds over whole lane vectors and
//! the activation runs over `n·LANES` contiguous elements.
//!
//! ## FP contract (DESIGN.md §10.2)
//!
//! Per-element arithmetic follows the rules of [`crate::simd`]: each output
//! element accumulates in ascending `k` from a `+0.0` accumulator, multiply
//! and add are separate roundings, nothing is skipped for being zero.
//! Reductions *across pairs* come in two pinned orders:
//!
//! * **per-atom sums** (the pool, the `∂E/∂D` scatter, the force scatter)
//!   add pairs in ascending stream order, one accumulator per output
//!   element — the order the unfused `scatter_add_rows` used;
//! * **per-parameter sums** (weight and bias adjoints) keep one partial sum
//!   per lane — lane `ℓ` adds the pairs `ℓ, ℓ + LANES, ℓ + 2·LANES, …` in
//!   ascending order, dead lanes adding exact zeros — and the `LANES`
//!   partials are then summed in ascending lane order from `+0.0`.
//!
//! Both orders depend only on the list, so results are deterministic and
//! independent of thread count.

use std::rc::Rc;

use crate::tape::Unary;
use crate::tensor::Tensor;

/// Pairs per lane block: two AVX-512 registers (four AVX2) per per-pair
/// scalar, i.e. two independent dependency chains per broadcast-multiply.
pub(crate) const LANES: usize = 16;

/// One frame's directed neighbour pairs toward one neighbour species, with
/// everything about them that does not change as the network learns.
#[derive(Clone, Debug)]
pub struct PairSet {
    /// Standardised embedding inputs `(s − davg)/dstd`, shape `[P, 1]`.
    pub z: Tensor,
    /// Raw switching values `s(r)`, shape `[P]`.
    pub s: Tensor,
    /// Per-pair Jacobian rows `s'(r)·r̂` (`∂s_p/∂x_{j_p}`; the centre atom
    /// gets the negative), shape `[P, 3]`.
    pub jac: Tensor,
    /// Centre atom per pair.
    pub centers: Rc<[usize]>,
    /// Neighbour atom per pair.
    pub neighbors: Rc<[usize]>,
}

impl PairSet {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True when the set holds no pair.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }
}

/// The pair stream one fused op runs over: per-frame [`PairSet`]s with the
/// row offset of each frame's atoms in the batch. Building one copies no
/// pair data (tensors and index lists are shared handles).
#[derive(Clone, Debug)]
pub struct PairList {
    segments: Vec<(PairSet, usize)>,
    n_pairs: usize,
    n_rows: usize,
}

impl PairList {
    /// A list over `(set, atom offset)` segments addressing `n_rows` atom
    /// rows in total. Atom indices are bounds-checked where they are used.
    pub fn new(segments: Vec<(PairSet, usize)>, n_rows: usize) -> Self {
        for (set, _) in &segments {
            let p = set.s.len();
            assert!(
                set.z.len() == p
                    && set.jac.len() == 3 * p
                    && set.centers.len() == p
                    && set.neighbors.len() == p,
                "pair set columns disagree on the pair count"
            );
        }
        let n_pairs = segments.iter().map(|(set, _)| set.s.len()).sum();
        PairList { segments, n_pairs, n_rows }
    }

    /// Pairs in the stream.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Atom rows the stream's indices address.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Lane blocks the stream is cut into.
    pub(crate) fn n_blocks(&self) -> usize {
        self.n_pairs.div_ceil(LANES)
    }
}

/// One dense layer `[k, n]` with bias `[n]`, borrowed from the tape.
pub(crate) struct Layer<'a> {
    pub w: &'a [f64],
    pub b: &'a [f64],
    pub k: usize,
    pub n: usize,
}

/// The per-pair network: `h₀ = z`, `h_l = act(h_{l−1}·W_l + b_l)`.
pub(crate) struct Net<'a> {
    pub layers: &'a [Layer<'a>],
    pub act: Unary,
}

/// Where one layer's quantities sit inside a lane block of the per-stream
/// buffers, in doubles.
///
/// *Stash* block (written by [`embed_pool`]): `s`, `z`, then per layer
/// `h_l` and `d_l = act'(a_l)`, each `[n_l][LANES]` — the layer reads its
/// input (`z` or `h_{l−1}`) at `x`.
/// *Tangent* block (written by [`embed_sens`]; a reverse sweep's `ā`/`r̄`
/// streams have the same shape): `t₀ = 1`, then per layer `t_l` at `t` — the
/// tangent of the layer's input is at `tx`.
#[derive(Clone, Copy)]
struct Slot {
    x: usize,
    h: usize,
    d: usize,
    tx: usize,
    t: usize,
}

struct Plan {
    slots: Vec<Slot>,
    stash_stride: usize,
    t_stride: usize,
    /// `max_l n_l · LANES`: room for one layer's worth of lanes.
    wide: usize,
}

/// Lane vectors of `s` and `z` at the head of a stash block.
const S_SLOT: usize = 0;
const Z_SLOT: usize = 1;

impl Net<'_> {
    /// Output width `M` of the last layer.
    pub(crate) fn out_width(&self) -> usize {
        self.layers.last().map_or(0, |l| l.n)
    }

    fn widths(&self) -> usize {
        self.layers.iter().map(|l| l.n).sum()
    }

    /// Doubles per lane block of the stash.
    pub(crate) fn stash_stride(&self) -> usize {
        (2 + 2 * self.widths()) * LANES
    }

    /// Doubles per lane block of the tangent stream.
    pub(crate) fn tangent_stride(&self) -> usize {
        (1 + self.widths()) * LANES
    }

    fn plan(&self) -> Plan {
        let mut slots: Vec<Slot> = Vec::with_capacity(self.layers.len());
        let mut next = Slot { x: Z_SLOT * LANES, h: 2 * LANES, d: 0, tx: 0, t: LANES };
        for layer in self.layers {
            let width = layer.n * LANES;
            let slot = Slot { d: next.h + width, ..next };
            slots.push(slot);
            next = Slot { x: slot.h, h: slot.h + 2 * width, d: 0, tx: slot.t, t: slot.t + width };
        }
        Plan {
            slots,
            stash_stride: self.stash_stride(),
            t_stride: self.tangent_stride(),
            wide: self.layers.iter().map(|l| l.n).max().unwrap_or(1) * LANES,
        }
    }
}

impl Plan {
    /// The last layer's slot.
    fn top(&self) -> Slot {
        self.slots[self.slots.len() - 1]
    }
}

/// Adjoint buffers of one layer, `[k·n]` and `[n]`; kernels overwrite them.
pub(crate) struct LayerGrad<'a> {
    pub w: &'a mut [f64],
    pub b: &'a mut [f64],
}

thread_local! {
    /// Kernel-local scratch (block temporaries and the `ā`/`r̄` streams of
    /// a reverse sweep), reused across calls like the `mm_nt` pack panel.
    static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

type Lanes = [f64; LANES];

#[inline(always)]
fn lanes(x: &[f64], i: usize) -> &Lanes {
    x[i * LANES..(i + 1) * LANES].try_into().unwrap()
}

#[inline(always)]
fn lanes_mut(x: &mut [f64], i: usize) -> &mut Lanes {
    (&mut x[i * LANES..(i + 1) * LANES]).try_into().unwrap()
}

/// Copy the stream's `z`, `s` and centre rows into lane blocks: block `b`
/// gets pairs `b·LANES ..`, dead lanes `z = s = 0`, row 0.
fn load_blocks(list: &PairList, stride: usize, stash: &mut [f64], rows: &mut [usize]) {
    let mut p = 0;
    for (set, offset) in &list.segments {
        let (z, s) = (set.z.data(), set.s.data());
        for (i, &c) in set.centers.iter().enumerate() {
            let (b, lane) = ((p + i) / LANES, (p + i) % LANES);
            stash[b * stride + S_SLOT * LANES + lane] = s[i];
            stash[b * stride + Z_SLOT * LANES + lane] = z[i];
            rows[p + i] = c + offset;
        }
        p += set.s.len();
    }
    let tail = p % LANES;
    if tail != 0 {
        let blk = &mut stash[(p / LANES) * stride..];
        lanes_mut(blk, S_SLOT)[tail..].fill(0.0);
        lanes_mut(blk, Z_SLOT)[tail..].fill(0.0);
        rows[p..].fill(0);
    }
}

/// `out[j] = Σ_k inp[k]·w[k][j]` over lane vectors, ascending `k`. Two
/// outputs are accumulated at a time: each is a serial add chain, and two
/// of them in flight is what keeps both FP pipes busy.
#[inline(always)]
fn matvec(layer: &Layer<'_>, inp: &[f64], out: &mut [f64]) {
    let (k, n) = (layer.k, layer.n);
    let mut j = 0;
    while j + 2 <= n {
        let (mut a0, mut a1) = ([0.0f64; LANES], [0.0f64; LANES]);
        for kk in 0..k {
            let (w0, w1) = (layer.w[kk * n + j], layer.w[kk * n + j + 1]);
            let x = lanes(inp, kk);
            for lane in 0..LANES {
                a0[lane] += x[lane] * w0;
                a1[lane] += x[lane] * w1;
            }
        }
        *lanes_mut(out, j) = a0;
        *lanes_mut(out, j + 1) = a1;
        j += 2;
    }
    if j < n {
        let mut acc = [0.0f64; LANES];
        for kk in 0..k {
            let w = layer.w[kk * n + j];
            for (a, &x) in acc.iter_mut().zip(lanes(inp, kk)) {
                *a += x * w;
            }
        }
        *lanes_mut(out, j) = acc;
    }
}

/// `out[k] = Σ_j inp[j]·w[k][j]` over lane vectors, ascending `j`, two
/// outputs at a time like [`matvec`].
#[inline(always)]
fn matvec_t(layer: &Layer<'_>, inp: &[f64], out: &mut [f64]) {
    let (k, n) = (layer.k, layer.n);
    let mut kk = 0;
    while kk + 2 <= k {
        let (mut a0, mut a1) = ([0.0f64; LANES], [0.0f64; LANES]);
        for j in 0..n {
            let (w0, w1) = (layer.w[kk * n + j], layer.w[(kk + 1) * n + j]);
            let x = lanes(inp, j);
            for lane in 0..LANES {
                a0[lane] += x[lane] * w0;
                a1[lane] += x[lane] * w1;
            }
        }
        *lanes_mut(out, kk) = a0;
        *lanes_mut(out, kk + 1) = a1;
        kk += 2;
    }
    if kk < k {
        let mut acc = [0.0f64; LANES];
        for j in 0..n {
            let w = layer.w[kk * n + j];
            for (a, &x) in acc.iter_mut().zip(lanes(inp, j)) {
                *a += x * w;
            }
        }
        *lanes_mut(out, kk) = acc;
    }
}

/// Gather `g[row]·scale` for the first `live` lanes into `[m][LANES]`; the
/// other lanes get 0.
#[inline(always)]
fn gather_rows_scaled(g: &[f64], m: usize, rows: &[usize], live: usize, scale: f64, out: &mut [f64]) {
    for j in 0..m {
        let o = lanes_mut(out, j);
        *o = [0.0; LANES];
        for (v, &row) in o.iter_mut().zip(&rows[..live]) {
            *v = g[row * m + j] * scale;
        }
    }
}

/// Lanes of block `b` that hold a pair.
#[inline(always)]
fn live_lanes(n_pairs: usize, b: usize) -> usize {
    (n_pairs - b * LANES).min(LANES)
}

/// Forward: `out[c_p] += s_p · h_L(z_p)` over the stream, then
/// `out ·= inv_avg`. The blocked inputs, `h_l` and `act'` of every block
/// are left in `stash` (`n_blocks · stash_stride` doubles) and each lane's
/// centre row in `rows` (`n_blocks · LANES`) for the gradient passes.
///
/// `out` is `[n_rows, M]` and must arrive zeroed.
#[inline(never)]
pub(crate) fn embed_pool(
    list: &PairList,
    net: &Net<'_>,
    inv_avg: f64,
    out: &mut [f64],
    stash: &mut [f64],
    rows: &mut [usize],
) {
    let m = net.out_width();
    let plan = net.plan();
    debug_assert_eq!(out.len(), list.n_rows * m);
    debug_assert_eq!(stash.len(), list.n_blocks() * plan.stash_stride);
    debug_assert_eq!(rows.len(), list.n_blocks() * LANES);
    load_blocks(list, plan.stash_stride, stash, rows);
    let top = plan.top().h;
    for (b, (blk, rows)) in
        stash.chunks_exact_mut(plan.stash_stride).zip(rows.chunks_exact(LANES)).enumerate()
    {
        for (layer, slot) in net.layers.iter().zip(&plan.slots) {
            let width = layer.n * LANES;
            let (done, rest) = blk.split_at_mut(slot.h);
            let (h, d) = rest[..2 * width].split_at_mut(width);
            matvec(layer, &done[slot.x..], h);
            for j in 0..layer.n {
                let bj = layer.b[j];
                for v in lanes_mut(h, j) {
                    *v += bj;
                }
            }
            net.act.eval_slice(h);
            net.act.deriv_slice(h, d);
        }
        for (lane, &row) in rows[..live_lanes(list.n_pairs, b)].iter().enumerate() {
            let s = lanes(blk, S_SLOT)[lane];
            for (j, o) in out[row * m..][..m].iter_mut().enumerate() {
                *o += blk[top + j * LANES + lane] * s;
            }
        }
    }
    for v in out.iter_mut() {
        *v *= inv_avg;
    }
}

/// Sensitivity: `u_p = ∂E/∂s_p + (∂E/∂z_p)·inv_dstd` for every pair, given
/// `g = ∂E/∂out` (`[n_rows, M]`). With `ĝ_p = g[c_p]·inv_avg` and the
/// tangent `t_l = ∂h_l/∂z` (`t₀ = 1`, `t_l = (t_{l−1}·W_l) ∘ act'(a_l)`),
///
/// ```text
/// u_p = Σ_j ĝ_pj · (h_L,pj + s_p·inv_dstd · t_L,pj)
/// ```
///
/// The tangents of every block are left in `tangent`
/// (`n_blocks · tangent_stride` doubles) for the second-order passes.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub(crate) fn embed_sens(
    net: &Net<'_>,
    stash: &[f64],
    rows: &[usize],
    g: &[f64],
    inv_avg: f64,
    inv_dstd: f64,
    tangent: &mut [f64],
    u: &mut [f64],
) {
    let m = net.out_width();
    let plan = net.plan();
    let top = plan.top();
    with_scratch(plan.wide, |gl| {
        for (((blk, t), rows), ub) in stash
            .chunks_exact(plan.stash_stride)
            .zip(tangent.chunks_exact_mut(plan.t_stride))
            .zip(rows.chunks_exact(LANES))
            .zip(u.chunks_mut(LANES))
        {
            *lanes_mut(t, 0) = [1.0; LANES];
            for (layer, slot) in net.layers.iter().zip(&plan.slots) {
                let width = layer.n * LANES;
                let (done, rest) = t.split_at_mut(slot.t);
                matvec(layer, &done[slot.tx..], rest);
                for (o, &d) in rest[..width].iter_mut().zip(&blk[slot.d..][..width]) {
                    *o *= d;
                }
            }
            gather_rows_scaled(g, m, rows, ub.len(), inv_avg, gl);
            let s = lanes(blk, S_SLOT);
            let mut acc = [0.0f64; LANES];
            for j in 0..m {
                let (hj, tj, gj) = (lanes(&blk[top.h..], j), lanes(&t[top.t..], j), lanes(gl, j));
                for lane in 0..LANES {
                    let kappa = s[lane] * inv_dstd;
                    acc[lane] += gj[lane] * (hj[lane] + kappa * tj[lane]);
                }
            }
            ub.copy_from_slice(&acc[..ub.len()]);
        }
    });
}

/// `g`-adjoint of [`embed_sens`]: `gbar[c_p] += ū_p·inv_avg · (h_L +
/// s·inv_dstd·t_L)` over the stream (`gbar` is `[n_rows, M]`).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub(crate) fn embed_sens_gbar(
    net: &Net<'_>,
    stash: &[f64],
    rows: &[usize],
    tangent: &[f64],
    ubar: &[f64],
    inv_avg: f64,
    inv_dstd: f64,
    gbar: &mut [f64],
) {
    let m = net.out_width();
    let plan = net.plan();
    let top = plan.top();
    for (((blk, t), rows), ub) in stash
        .chunks_exact(plan.stash_stride)
        .zip(tangent.chunks_exact(plan.t_stride))
        .zip(rows.chunks_exact(LANES))
        .zip(ubar.chunks(LANES))
    {
        let (h, t) = (&blk[top.h..], &t[top.t..]);
        for (lane, (&row, &ub)) in rows.iter().zip(ub).enumerate() {
            let w = ub * inv_avg;
            let kappa = lanes(blk, S_SLOT)[lane] * inv_dstd;
            for (j, o) in gbar[row * m..][..m].iter_mut().enumerate() {
                *o += w * (h[j * LANES + lane] + kappa * t[j * LANES + lane]);
            }
        }
    }
}

/// One sensitivity node's share of a reverse sweep: its input `g` and the
/// adjoint `ubar = ∂L/∂u` that reached it.
pub(crate) struct SensSeed<'a> {
    pub g: &'a [f64],
    pub ubar: &'a [f64],
}

/// Parameter adjoints of an embed-pool node **and of the sensitivity nodes
/// taken from it**, in one reverse sweep: both walk the same layers over
/// the same stash, so the sweep is seeded with the sum of what they bring,
///
/// ```text
/// h̄_L = s·dbar[c]·inv_avg + Σ_i ū_i·g_i[c]·inv_avg
/// t̄_L = s·inv_dstd · Σ_i ū_i·g_i[c]·inv_avg
/// ```
///
/// and runs the reverse of the joint recursion `h_l = act(a_l)`,
/// `t_l = act'(a_l) ∘ (t_{l−1}·W_l)` (DESIGN.md §3.8):
///
/// ```text
/// r̄_l = t̄_l ∘ act'(a_l)
/// ā_l = h̄_l ∘ act'(a_l) + t̄_l ∘ t_l ∘ φ'(h_l)      (act' = φ(h), so act'' = φ'(h)·act')
/// W̄_l = Σ_p  h_{l−1}ᵀ·ā_l + t_{l−1}ᵀ·r̄_l          b̄_l = Σ_p ā_l
/// h̄_{l−1} = ā_l·W_lᵀ       t̄_{l−1} = r̄_l·W_lᵀ
/// ```
///
/// With no sensitivity seed the tangent half is absent (`t̄ ≡ 0`). Phase one
/// walks the blocks and leaves `ā_l` (`r̄_l`) of every block in scratch
/// streams; phase two sums each parameter over them, lane-wise.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub(crate) fn embed_back(
    n_pairs: usize,
    net: &Net<'_>,
    stash: &[f64],
    rows: &[usize],
    tangent: &[f64],
    dbar: &[f64],
    seeds: &[SensSeed<'_>],
    inv_avg: f64,
    inv_dstd: f64,
    grads: &mut [LayerGrad<'_>],
) {
    let m = net.out_width();
    let plan = net.plan();
    let blocks = n_pairs.div_ceil(LANES);
    let stream = blocks * plan.t_stride;
    let second_order = !seeds.is_empty();
    with_scratch(2 * stream + 5 * plan.wide, |buf| {
        let (abar, rest) = buf.split_at_mut(stream);
        let (rbar, rest) = rest.split_at_mut(stream);
        let (gl, rest) = rest.split_at_mut(plan.wide);
        let (mut hb, rest) = rest.split_at_mut(plan.wide);
        let (mut hb_next, rest) = rest.split_at_mut(plan.wide);
        let (mut tb, mut tb_next) = rest.split_at_mut(plan.wide);
        for (b, (blk, rows)) in
            stash.chunks_exact(plan.stash_stride).zip(rows.chunks_exact(LANES)).enumerate()
        {
            let live = live_lanes(n_pairs, b);
            let s = lanes(blk, S_SLOT);
            gather_rows_scaled(dbar, m, rows, live, inv_avg, hb);
            for j in 0..m {
                for (h, &sv) in lanes_mut(hb, j).iter_mut().zip(s) {
                    *h *= sv;
                }
            }
            if second_order {
                tb[..m * LANES].fill(0.0);
                for seed in seeds {
                    gather_rows_scaled(seed.g, m, rows, live, inv_avg, gl);
                    let mut ub = [0.0f64; LANES];
                    ub[..live].copy_from_slice(&seed.ubar[b * LANES..][..live]);
                    for j in 0..m {
                        for ((t, &g), &u) in lanes_mut(tb, j).iter_mut().zip(lanes(gl, j)).zip(&ub) {
                            *t += u * g;
                        }
                    }
                }
                for j in 0..m {
                    let (h, t) = (lanes_mut(hb, j), lanes_mut(tb, j));
                    for lane in 0..LANES {
                        h[lane] += t[lane];
                        t[lane] *= s[lane] * inv_dstd;
                    }
                }
            }
            let t = if second_order { &tangent[b * plan.t_stride..][..plan.t_stride] } else { &[][..] };
            let ab = &mut abar[b * plan.t_stride..][..plan.t_stride];
            let rb = &mut rbar[b * plan.t_stride..][..plan.t_stride];
            for (l, (layer, slot)) in net.layers.iter().zip(&plan.slots).enumerate().rev() {
                let width = layer.n * LANES;
                let (h, d) = (&blk[slot.h..][..width], &blk[slot.d..][..width]);
                let a = &mut ab[slot.t..][..width];
                if second_order {
                    let r = &mut rb[slot.t..][..width];
                    net.act.sweep_slice(&hb[..width], &tb[..width], &t[slot.t..][..width], h, d, a, r);
                } else {
                    for ((o, &g), &dv) in a.iter_mut().zip(&hb[..width]).zip(d) {
                        *o = g * dv;
                    }
                }
                if l > 0 {
                    matvec_t(layer, a, hb_next);
                    std::mem::swap(&mut hb, &mut hb_next);
                    if second_order {
                        matvec_t(layer, &rb[slot.t..], tb_next);
                        std::mem::swap(&mut tb, &mut tb_next);
                    }
                }
            }
        }

        for ((layer, slot), grad) in net.layers.iter().zip(&plan.slots).zip(grads.iter_mut()) {
            let x = LaneStream { data: stash, stride: plan.stash_stride, at: slot.x };
            let a = LaneStream { data: abar, stride: plan.t_stride, at: slot.t };
            let tx = LaneStream { data: tangent, stride: plan.t_stride, at: slot.tx };
            let r = LaneStream { data: rbar, stride: plan.t_stride, at: slot.t };
            for kk in 0..layer.k {
                for j in 0..layer.n {
                    grad.w[kk * layer.n + j] = if second_order {
                        lane_dot2(x.entry(kk), a.entry(j), tx.entry(kk), r.entry(j))
                    } else {
                        lane_dot(x.entry(kk), a.entry(j))
                    };
                }
            }
            for j in 0..layer.n {
                grad.b[j] = lane_total(a.entry(j));
            }
        }
    });
}

/// One `[n][LANES]` quantity across the blocks of a stream.
#[derive(Clone, Copy)]
struct LaneStream<'a> {
    data: &'a [f64],
    stride: usize,
    at: usize,
}

impl<'a> LaneStream<'a> {
    /// The `i`-th lane vector of the quantity.
    fn entry(self, i: usize) -> Self {
        LaneStream { at: self.at + i * LANES, ..self }
    }

    /// That lane vector in every block, in order.
    #[inline(always)]
    fn blocks(self) -> impl Iterator<Item = &'a Lanes> {
        self.data.chunks_exact(self.stride).map(move |blk| lanes(&blk[self.at..], 0))
    }
}

/// Sum the lanes in ascending order from `+0.0`.
#[inline(always)]
fn fold_lanes(acc: Lanes) -> f64 {
    acc.iter().fold(0.0, |sum, &v| sum + v)
}

/// One weight's adjoint, first-order sweep: per lane `Σ_blocks x·a` in
/// ascending block order, then the lanes in ascending order.
#[inline(always)]
fn lane_dot(x: LaneStream<'_>, a: LaneStream<'_>) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (xv, av) in x.blocks().zip(a.blocks()) {
        for lane in 0..LANES {
            acc[lane] += xv[lane] * av[lane];
        }
    }
    fold_lanes(acc)
}

/// One weight's adjoint, second-order sweep: per lane
/// `Σ_blocks (x·a then tx·r)`, then the lanes.
#[inline(always)]
fn lane_dot2(x: LaneStream<'_>, a: LaneStream<'_>, tx: LaneStream<'_>, r: LaneStream<'_>) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (((xv, av), tv), rv) in x.blocks().zip(a.blocks()).zip(tx.blocks()).zip(r.blocks()) {
        for lane in 0..LANES {
            acc[lane] = (acc[lane] + xv[lane] * av[lane]) + tv[lane] * rv[lane];
        }
    }
    fold_lanes(acc)
}

/// One bias's adjoint: per lane `Σ_blocks a`, then the lanes.
#[inline(always)]
fn lane_total(a: LaneStream<'_>) -> f64 {
    let mut acc = [0.0f64; LANES];
    for av in a.blocks() {
        for lane in 0..LANES {
            acc[lane] += av[lane];
        }
    }
    fold_lanes(acc)
}

/// Forces `F = −∂E/∂x` from per-pair sensitivities: for every pair of
/// every part, `r = jac_p·u_p`, `F[c_p] += r`, `F[n_p] −= r`, parts in
/// order and pairs in ascending stream order. `out` is `[n_rows, 3]` and
/// must arrive zeroed.
#[inline(never)]
pub(crate) fn force_assemble(parts: &[(&[f64], &PairList)], out: &mut [f64]) {
    for &(u, list) in parts {
        debug_assert_eq!(u.len(), list.n_pairs);
        let mut p = 0;
        for (set, offset) in &list.segments {
            let jac = set.jac.data();
            for (i, (&c, &n)) in set.centers.iter().zip(set.neighbors.iter()).enumerate() {
                let up = u[p + i];
                let (c, n) = ((c + offset) * 3, (n + offset) * 3);
                for k in 0..3 {
                    let r = jac[3 * i + k] * up;
                    out[c + k] += r;
                    out[n + k] -= r;
                }
            }
            p += set.s.len();
        }
    }
}

/// Adjoint of [`force_assemble`] for one part:
/// `ū_p = Σ_k jac_pk · (F̄[c_p]_k − F̄[n_p]_k)`, ascending `k`.
#[inline(never)]
pub(crate) fn force_assemble_back(list: &PairList, fbar: &[f64], ubar: &mut [f64]) {
    debug_assert_eq!(ubar.len(), list.n_pairs);
    let mut p = 0;
    for (set, offset) in &list.segments {
        let jac = set.jac.data();
        for (i, (&c, &n)) in set.centers.iter().zip(set.neighbors.iter()).enumerate() {
            let (c, n) = ((c + offset) * 3, (n + offset) * 3);
            let mut acc = 0.0;
            for k in 0..3 {
                acc += jac[3 * i + k] * (fbar[c + k] - fbar[n + k]);
            }
            ubar[p + i] = acc;
        }
        p += set.s.len();
    }
}
