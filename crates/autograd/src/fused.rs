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
//! list order. A like-species pair's two directions run the same net on the
//! same `z`, so the reverse of such a pair — found by [`PairList::new`]
//! right after its partner — is a **mirror**: it shares its partner's lane.
//! Every other pair takes a lane of its own, in stream order, and the lanes
//! are cut into **lane blocks** of [`LANES`] — blocks straddle segment
//! boundaries, and only the last block is partial (its dead lanes carry
//! `z = s = g = ū = 0`). Inside a block every per-lane quantity of width
//! `n` is stored `[n][LANES]`, lanes contiguous, so a layer is `n·k`
//! broadcast-multiply/adds over whole lane vectors and the activation runs
//! over `n·LANES` contiguous elements. The net, its tangents and the
//! reverse sweep run once per lane; what depends on the centre atom (the
//! pool, `u`, the `g`-adjoint, the forces) runs once per pair.
//!
//! ## FP contract (DESIGN.md §10.2)
//!
//! Per-element arithmetic follows the rules of [`crate::simd`]: each output
//! element accumulates in ascending `k` from a `+0.0` accumulator, multiply
//! and add are separate roundings, nothing is skipped for being zero.
//! Reductions *across pairs* come in two pinned orders:
//!
//! * **per-atom sums** (the pool, the `∂E/∂D` scatter, the force scatter)
//!   add pairs in ascending stream order, a mirror right after its partner,
//!   one accumulator per output element — the order the unfused
//!   `scatter_add_rows` used;
//! * **per-parameter sums** (weight and bias adjoints) keep one partial sum
//!   per lane position — position `ℓ` adds the lanes `ℓ, ℓ + LANES,
//!   ℓ + 2·LANES, …` in ascending order, dead lanes adding exact zeros — and
//!   the `LANES` partials are then summed in ascending order from `+0.0`.
//!   A lane with a mirror is swept once, from its own seeds plus its
//!   mirror's (added in that order).
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
    /// Per pair, in stream order: true for a mirror.
    mirror: Vec<bool>,
    n_pairs: usize,
    n_lanes: usize,
    n_rows: usize,
}

impl PairList {
    /// A list over `(set, atom offset)` segments addressing `n_rows` atom
    /// rows in total. Atom indices are bounds-checked where they are used.
    /// A pair that is the previous pair of its set reversed (`centers` and
    /// `neighbors` swapped, `s` and `z` bit for bit the same), that pair not
    /// being a mirror itself, is a mirror — the second direction of a
    /// like-species pair, as `md`'s pair table lays them out.
    pub fn new(segments: Vec<(PairSet, usize)>, n_rows: usize) -> Self {
        let n_pairs = segments.iter().map(|(set, _)| set.s.len()).sum();
        let (mut mirror, mut at, mut n_mirrors) = (vec![false; n_pairs], 0, 0);
        for (set, _) in &segments {
            let p = set.s.len();
            assert!(
                set.z.len() == p
                    && set.jac.len() == 3 * p
                    && set.centers.len() == p
                    && set.neighbors.len() == p,
                "pair set columns disagree on the pair count"
            );
            let (s, z) = (&set.s.data()[..p], &set.z.data()[..p]);
            let (c, n) = (&set.centers[..p], &set.neighbors[..p]);
            let flags = &mut mirror[at..at + p];
            for i in 1..p {
                flags[i] = (c[i] == n[i - 1])
                    & (n[i] == c[i - 1])
                    & (s[i].to_bits() == s[i - 1].to_bits())
                    & (z[i].to_bits() == z[i - 1].to_bits());
            }
            // A mirror's own reverse is a new pair, not a mirror of it.
            let mut after_mirror = false;
            for f in flags.iter_mut() {
                *f &= !after_mirror;
                after_mirror = *f;
                n_mirrors += usize::from(*f);
            }
            at += p;
        }
        PairList { segments, mirror, n_pairs, n_lanes: n_pairs - n_mirrors, n_rows }
    }

    /// Pairs in the stream.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Lanes the stream takes: one per pair that is not a mirror.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Atom rows the stream's indices address.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Lane blocks the stream is cut into.
    pub(crate) fn n_blocks(&self) -> usize {
        self.n_lanes.div_ceil(LANES)
    }

    /// Length of the centre-row buffer the kernels share: per lane block,
    /// the lanes' own centre rows, then their mirrors' ([`NO_ROW`] where a
    /// lane holds no pair or no mirror).
    pub(crate) fn rows_len(&self) -> usize {
        self.n_blocks() * 2 * LANES
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

/// Centre row of a lane that holds no pair, or of a lane's absent mirror.
const NO_ROW: usize = usize::MAX;

/// Copy the stream's `z`, `s` and centre rows into lane blocks: the pairs
/// that are not mirrors take lanes in stream order, a mirror shares its
/// partner's lane and records its centre row beside the partner's; dead
/// lanes get `z = s = 0`.
fn load_blocks(list: &PairList, stride: usize, stash: &mut [f64], rows: &mut [usize]) {
    rows.fill(NO_ROW);
    let (mut q, mut flags) = (0, list.mirror.iter());
    for (set, offset) in &list.segments {
        let (z, s) = (set.z.data(), set.s.data());
        for (i, (&c, &mirror)) in set.centers.iter().zip(flags.by_ref()).enumerate() {
            // A mirror goes to its partner's lane, the last one taken, and
            // writes the same `s` and `z` there again.
            let at = q - usize::from(mirror);
            let (b, lane) = (at / LANES, at % LANES);
            stash[b * stride + S_SLOT * LANES + lane] = s[i];
            stash[b * stride + Z_SLOT * LANES + lane] = z[i];
            rows[b * 2 * LANES + usize::from(mirror) * LANES + lane] = c + offset;
            q += usize::from(!mirror);
        }
    }
    let tail = q % LANES;
    if tail != 0 {
        let blk = &mut stash[(q / LANES) * stride..];
        lanes_mut(blk, S_SLOT)[tail..].fill(0.0);
        lanes_mut(blk, Z_SLOT)[tail..].fill(0.0);
    }
}

/// The live lanes of a block and, for each, the centre rows of its pairs
/// in stream order: the lane's own pair, then its mirror if it has one.
#[inline(always)]
fn lane_pairs(rows: &[usize]) -> impl Iterator<Item = (usize, impl Iterator<Item = usize>)> + '_ {
    let (own, mirrors) = rows.split_at(LANES);
    (0..LANES).take_while(|&lane| own[lane] != NO_ROW).map(|lane| {
        let pairs = if mirrors[lane] == NO_ROW { 1 } else { 2 };
        (lane, [own[lane], mirrors[lane]].into_iter().take(pairs))
    })
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

/// Forward: `out[c_p] += s_p · h_L(z_p)` over the stream, then
/// `out ·= inv_avg`. The net runs once per lane — a mirror pair reads its
/// partner's `h_L` — and the pool adds pairs in stream order, a lane's own
/// pair before its mirror. The blocked inputs, `h_l` and `act'` of every
/// block are left in `stash` (`n_blocks · stash_stride` doubles) and the
/// centre rows in `rows` ([`PairList::rows_len`]) for the gradient passes.
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
    debug_assert_eq!(rows.len(), list.rows_len());
    load_blocks(list, plan.stash_stride, stash, rows);
    let top = plan.top().h;
    for (blk, rows) in stash.chunks_exact_mut(plan.stash_stride).zip(rows.chunks_exact(2 * LANES)) {
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
        for (lane, pairs) in lane_pairs(rows) {
            let s = lanes(blk, S_SLOT)[lane];
            for row in pairs {
                for (j, o) in out[row * m..][..m].iter_mut().enumerate() {
                    *o += blk[top + j * LANES + lane] * s;
                }
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
/// The tangents are computed once per lane and left in `tangent`
/// (`n_blocks · tangent_stride` doubles) for the second-order passes; the
/// sum over `j` runs per pair, a mirror with its own `ĝ`. `u` is in stream
/// order.
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
    let mut next = 0;
    for ((blk, t), rows) in stash
        .chunks_exact(plan.stash_stride)
        .zip(tangent.chunks_exact_mut(plan.t_stride))
        .zip(rows.chunks_exact(2 * LANES))
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
        let (s, h, t) = (lanes(blk, S_SLOT), &blk[top.h..], &t[top.t..]);
        for (lane, pairs) in lane_pairs(rows) {
            let kappa = s[lane] * inv_dstd;
            for row in pairs {
                u[next] = (0..m).fold(0.0, |a, j| {
                    a + g[row * m + j] * inv_avg * (h[j * LANES + lane] + kappa * t[j * LANES + lane])
                });
                next += 1;
            }
        }
    }
    debug_assert_eq!(next, u.len());
}

/// `g`-adjoint of [`embed_sens`]: `gbar[c_p] += ū_p·inv_avg · (h_L +
/// s·inv_dstd·t_L)` over the stream in stream order, a lane's own pair
/// before its mirror (`gbar` is `[n_rows, M]`).
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
    let mut next = 0;
    for ((blk, t), rows) in stash
        .chunks_exact(plan.stash_stride)
        .zip(tangent.chunks_exact(plan.t_stride))
        .zip(rows.chunks_exact(2 * LANES))
    {
        let (h, t) = (&blk[top.h..], &t[top.t..]);
        for (lane, pairs) in lane_pairs(rows) {
            let kappa = lanes(blk, S_SLOT)[lane] * inv_dstd;
            for row in pairs {
                let w = ubar[next] * inv_avg;
                next += 1;
                for (j, o) in gbar[row * m..][..m].iter_mut().enumerate() {
                    *o += w * (h[j * LANES + lane] + kappa * t[j * LANES + lane]);
                }
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
/// and a lane with a mirror adds its mirror's seeds to its own: the sweep
/// is linear in its seeds for a fixed stash, so each lane is swept once,
/// like or not. It runs the reverse of the joint recursion
/// `h_l = act(a_l)`, `t_l = act'(a_l) ∘ (t_{l−1}·W_l)` (DESIGN.md §3.8):
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
    let stream = stash.len() / plan.stash_stride * plan.t_stride;
    let second_order = !seeds.is_empty();
    with_scratch(2 * stream + 4 * plan.wide, |buf| {
        let (abar, rest) = buf.split_at_mut(stream);
        let (rbar, rest) = rest.split_at_mut(stream);
        let (mut hb, rest) = rest.split_at_mut(plan.wide);
        let (mut hb_next, rest) = rest.split_at_mut(plan.wide);
        let (mut tb, mut tb_next) = rest.split_at_mut(plan.wide);
        let mut next = 0;
        for (b, (blk, rows)) in
            stash.chunks_exact(plan.stash_stride).zip(rows.chunks_exact(2 * LANES)).enumerate()
        {
            let s = lanes(blk, S_SLOT);
            // The seeds of a lane's pair, then of its mirror, added up.
            hb[..m * LANES].fill(0.0);
            if second_order {
                tb[..m * LANES].fill(0.0);
            }
            for (lane, pairs) in lane_pairs(rows) {
                let (sl, kl) = (s[lane], s[lane] * inv_dstd);
                for row in pairs {
                    let (c, p) = (row * m, next);
                    next += 1;
                    let d = &dbar[c..][..m];
                    // A training step's one seed: the fold below with its
                    // adjoint and row read once per pair, the same bits.
                    if let [seed] = seeds {
                        let (u, g) = (seed.ubar[p], &seed.g[c..][..m]);
                        for (j, (&dj, &gj)) in d.iter().zip(g).enumerate() {
                            let t = 0.0 + u * (gj * inv_avg);
                            lanes_mut(hb, j)[lane] += dj * inv_avg * sl + t;
                            lanes_mut(tb, j)[lane] += t * kl;
                        }
                        continue;
                    }
                    for (j, &dj) in d.iter().enumerate() {
                        let t = seeds.iter().fold(0.0, |t, seed| t + seed.ubar[p] * (seed.g[c + j] * inv_avg));
                        lanes_mut(hb, j)[lane] += dj * inv_avg * sl + t;
                        if second_order {
                            lanes_mut(tb, j)[lane] += t * kl;
                        }
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
