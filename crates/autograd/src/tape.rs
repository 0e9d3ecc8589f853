//! Eager, taped, reverse-mode automatic differentiation.
//!
//! Every operation both computes its value immediately *and* records a node
//! on the [`Tape`]. [`Tape::grad`] walks the tape backwards and expresses
//! each adjoint **as new taped operations**, so gradients are themselves
//! differentiable. This "double backward" capability is what lets the DNNP
//! trainer minimise a force-matching loss: forces are `-∂E/∂x`, and the loss
//! gradient with respect to the network weights therefore needs
//! `∂/∂w (∂E/∂x)`.
//!
//! The design mirrors `tf.gradients` with second-order support, which is
//! what DeePMD-kit relies on in TensorFlow.
//!
//! ## Arena behaviour
//!
//! A training step rebuilds the same graph topology every iteration, so the
//! tape doubles as an arena: [`Tape::reset`] clears the node list while
//! keeping its capacity and recycles every uniquely-owned value buffer into
//! a size-keyed pool. Subsequent steps then run allocation-free — each op
//! draws its output buffer from the pool instead of the global allocator.
//! Buffers still referenced outside the tape (extracted gradients, shared
//! parameter tensors) are simply not recycled, so pooling is invisible to
//! callers.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::fused::{self, PairList};
use crate::tensor::{Shape, Tensor};

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    idx: usize,
}

impl Var {
    /// Position of this variable on its tape (tapes are append-only).
    #[inline]
    pub fn index(&self) -> usize {
        self.idx
    }
}

/// Elementwise nonlinearities known to the tape.
///
/// `Step` and `Clamp01` exist so that the derivatives of the piecewise
/// activations (`relu`, `relu6`) and of the descriptor switching function
/// can themselves be expressed as taped operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unary {
    Tanh,
    Sigmoid,
    Softplus,
    Relu,
    Relu6,
    Exp,
    Sqrt,
    Recip,
    Square,
    /// `1 - x²` — the tanh derivative expressed from the tanh *output*,
    /// fused into one node so backward chains stay short. Its own
    /// derivative is `-2x`, which keeps double-backward closed.
    OneMinusSquare,
    /// Heaviside step: `1` for `x > 0`, else `0`. Its derivative is zero.
    Step,
    /// Clamp to `[0, 1]`. Its derivative is the indicator of `(0, 1)`.
    Clamp01,
}

impl Unary {
    fn eval(self, x: f64) -> f64 {
        match self {
            // tanh as (e^{2x}-1)/(e^{2x}+1): one exp instead of libm's
            // tanh, ~2× faster, with absolute error ≤ 2.3e-16 across the
            // full range (the infinity guard covers e^{2x} overflow).
            Unary::Tanh => {
                let e = (2.0 * x).exp();
                if e.is_infinite() {
                    1.0
                } else {
                    (e - 1.0) / (e + 1.0)
                }
            }
            Unary::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            // Numerically stable softplus: max(x, 0) + ln(1 + e^{-|x|}).
            Unary::Softplus => x.max(0.0) + (-x.abs()).exp().ln_1p(),
            Unary::Relu => x.max(0.0),
            Unary::Relu6 => x.clamp(0.0, 6.0),
            Unary::Exp => x.exp(),
            Unary::Sqrt => x.sqrt(),
            Unary::Recip => 1.0 / x,
            Unary::Square => x * x,
            Unary::OneMinusSquare => -(x * x) + 1.0,
            Unary::Step => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Unary::Clamp01 => x.clamp(0.0, 1.0),
        }
    }

    /// Apply the nonlinearity across a slice in place. `Tanh` runs as a
    /// branch-free polynomial lane kernel ([`crate::simd::tanh_slice`],
    /// absolute error vs libm below 5e-16, pinned by
    /// `bulk_tanh_matches_libm`); the clamps and the squares are hoisted
    /// loops; the rest — sigmoid, softplus and `exp` through libm — fall
    /// back to the scalar path.
    pub(crate) fn eval_slice(self, out: &mut [f64]) {
        match self {
            Unary::Tanh => crate::simd::tanh_slice(out),
            // The match is hoisted so these loops vectorize; per-element
            // arithmetic is `eval`'s.
            Unary::Relu => {
                for o in out.iter_mut() {
                    *o = o.max(0.0);
                }
            }
            Unary::Relu6 => {
                for o in out.iter_mut() {
                    *o = o.clamp(0.0, 6.0);
                }
            }
            Unary::Square => {
                for o in out.iter_mut() {
                    *o = *o * *o;
                }
            }
            Unary::OneMinusSquare => {
                for o in out.iter_mut() {
                    *o = -(*o * *o) + 1.0;
                }
            }
            _ => {
                for o in out.iter_mut() {
                    *o = self.eval(*o);
                }
            }
        }
    }

    /// `out = act'(a)` expressed from the activation *output* `y = act(a)`
    /// (the pre-activation is never stored). Every MLP activation admits
    /// such a form: tanh' = 1−y², σ' = y(1−y), softplus' = 1−e^{−y} (= σ of
    /// the input), relu' = step(y), relu6' = step(y)·step(6−y). The variant
    /// match is hoisted out of the element loop so each arm is a
    /// straight-line loop the autovectorizer handles.
    pub(crate) fn deriv_slice(self, y: &[f64], out: &mut [f64]) {
        macro_rules! sweep {
            (|$y:ident| $d:expr) => {{
                for (o, &$y) in out.iter_mut().zip(y) {
                    *o = $d;
                }
            }};
        }
        match self {
            Unary::Tanh => sweep!(|y| -(y * y) + 1.0),
            Unary::Sigmoid => sweep!(|y| y * (-y + 1.0)),
            // Negate-then-exp, like the taped `exp(neg(y))` chain.
            Unary::Softplus => sweep!(|y| (-((-y).exp())) + 1.0),
            Unary::Relu => sweep!(|y| if y > 0.0 { 1.0 } else { 0.0 }),
            Unary::Relu6 => sweep!(|y| {
                let s1 = if y > 0.0 { 1.0 } else { 0.0 };
                let s2 = if -y + 6.0 > 0.0 { 1.0 } else { 0.0 };
                s1 * s2
            }),
            _ => panic!("affine fusion only supports MLP activations, got {self:?}"),
        }
    }

    /// One layer of the fused reverse sweep ([`crate::fused::embed_back`]),
    /// elementwise: `r = tb ∘ d` and `a = hb ∘ d + (tb ∘ t) ∘ φ'`, where
    /// `d = act' = φ(y)` is the stashed derivative and `φ'` its derivative
    /// **along the output** `y` (so `act'' = φ'·act'`), each spelled as
    /// [`Unary::back_y_slice`] spells it: tanh `−2y`, sigmoid `1 − 2y` (the
    /// product-rule pair), softplus `e^{−y}` (`φ = 1 − e^{−y}`), zero for
    /// the step-derivative activations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_slice(
        self,
        hb: &[f64],
        tb: &[f64],
        t: &[f64],
        y: &[f64],
        d: &[f64],
        a: &mut [f64],
        r: &mut [f64],
    ) {
        macro_rules! sweep {
            (|$c:ident, $y:ident, $d:ident| $e:expr) => {{
                for ((((((a, r), &hv), &tv), &tl), &$y), &$d) in
                    a.iter_mut().zip(r.iter_mut()).zip(hb).zip(tb).zip(t).zip(y).zip(d)
                {
                    *r = tv * $d;
                    let $c = tv * tl;
                    *a = hv * $d + $e;
                }
            }};
        }
        match self {
            Unary::Tanh => sweep!(|c, y, d| c * (y * -2.0)),
            Unary::Sigmoid => sweep!(|c, y, d| (c * ((-y) + 1.0)) + (-(c * y))),
            Unary::Softplus => sweep!(|c, y, d| -((-c) * (-y).exp())),
            Unary::Relu | Unary::Relu6 => {
                for ((((a, r), &hv), &tv), &dv) in
                    a.iter_mut().zip(r.iter_mut()).zip(hb).zip(tb).zip(d)
                {
                    *r = tv * dv;
                    *a = hv * dv;
                }
            }
            _ => panic!("affine fusion only supports MLP activations, got {self:?}"),
        }
    }

    /// `out = g ∘ act'(y)`, the derivative again taken from the output
    /// ([`Unary::deriv_slice`]) — bitwise the taped
    /// `mul(g, activation_derivative_from_output(y))` chain.
    pub(crate) fn back_slice(self, g: &[f64], y: &[f64], out: &mut [f64]) {
        self.deriv_slice(y, out);
        for (o, &gv) in out.iter_mut().zip(g) {
            *o *= gv;
        }
    }

    /// `out = (g ∘ gg) ∘ d(act')/dy`, the curvature companion of
    /// [`Unary::back_slice`], again from the saved output `y`. Returns
    /// `false` (leaving `out` untouched) for the step-derivative
    /// activations, whose second derivative is zero almost everywhere.
    pub(crate) fn back_y_slice(self, g: &[f64], gg: &[f64], y: &[f64], out: &mut [f64]) -> bool {
        macro_rules! sweep {
            (|$t:ident, $y:ident| $e:expr) => {{
                for (((o, &gv), &hv), &$y) in out.iter_mut().zip(g).zip(gg).zip(y) {
                    let $t = gv * hv;
                    *o = $e;
                }
            }};
        }
        match self {
            Unary::Tanh => sweep!(|t, y| t * (y * -2.0)),
            Unary::Sigmoid => sweep!(|t, y| (t * ((-y) + 1.0)) + (-(t * y))),
            Unary::Softplus => sweep!(|t, y| -((-t) * (-y).exp())),
            Unary::Relu | Unary::Relu6 => return false,
            _ => panic!("affine fusion only supports MLP activations, got {self:?}"),
        }
        true
    }
}

/// Handle into the tape's interned index-list table. Keeping `Op` free of
/// heap payloads makes it `Copy`, so the backward pass reads each node's op
/// without a per-node clone.
type IdxId = u32;

#[derive(Clone, Copy, Debug)]
#[allow(dead_code)] // constant payloads are kept for Debug output even where
                    // the backward pass recomputes them from node shapes
enum Op {
    Const,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f64),
    AddScalar(Var, f64),
    AddBias(Var, Var),
    Matmul(Var, Var),
    /// `A @ Bᵀ` with `B` stored untransposed.
    MatmulNT(Var, Var),
    /// `Aᵀ @ B` with `A` stored untransposed.
    MatmulTN(Var, Var),
    Transpose(Var),
    Unary(Unary, Var),
    /// Fused `act(x @ w + b)` (`act = None` for a linear layer). One node
    /// replaces the matmul / add-bias / activation triple of an MLP layer.
    Affine { x: Var, w: Var, b: Var, act: Option<Unary> },
    SumAll(Var),
    SumRows(Var),
    BroadcastRows(Var, usize),
    BroadcastScalar(Var, Shape),
    GatherRows(Var, IdxId),
    ScatterAddRows(Var, IdxId, usize),
    MulColVec(Var, Var),
    RowwiseDot(Var, Var),
    Reshape(Var, Shape),
    /// Fused activation backward `g ∘ act'(y)`, with the derivative taken
    /// from the saved layer *output* `y`. One node replaces the
    /// derivative-chain / multiply nodes the affine backward used to emit.
    ActBack { g: Var, y: Var, act: Unary },
    /// Fused embedding → pool over a pair stream ([`Tape::embed_pool`]);
    /// `pairs` is the leaf standing for the stream's switching values and
    /// `rec` indexes the tape's embed table (list, layers, stash).
    EmbedPool { pairs: Var, rec: RecId },
    /// Per-pair sensitivity `∂E/∂s` of an [`Op::EmbedPool`] node `pool`
    /// given `g = ∂E/∂pool` — the gradient op [`Tape::grad`] emits.
    EmbedPoolGrad { g: Var, pool: Var },
    /// Forces from per-pair sensitivities ([`Tape::force_assemble`]);
    /// `rec` indexes the tape's force table.
    ForceAssemble { rec: RecId },
}

/// Handle into the tape's embed / force tables (see [`IdxId`]).
type RecId = u32;

/// One `(sensitivity, pair stream)` input of [`Tape::force_assemble`].
type ForcePart = (Var, Rc<PairList>);

/// What an [`Op::EmbedPool`] node ran over, kept for its gradient ops.
struct EmbedRecord {
    list: Rc<PairList>,
    /// `(w, b)` per layer.
    layers: Vec<(Var, Var)>,
    act: Unary,
    inv_dstd: f64,
    inv_avg: f64,
    /// Blocked inputs, `h_l` and `act'` of every lane block, written by the
    /// forward pass.
    stash: Tensor,
    /// Centre row of every lane, blocked like the stash.
    rows: Vec<usize>,
    /// Tangents `∂h_l/∂z` of every lane block, written by the first
    /// sensitivity pass (they depend on the record alone, not on `g`).
    tangent: Option<Tensor>,
    /// Sensitivity nodes met by a running [`Tape::grad_values`] whose
    /// parameter adjoints wait for this node's reverse sweep: `(ū, g)`.
    pending: Vec<(Tensor, Var)>,
}

impl EmbedRecord {
    /// True when any layer parameter is a gradient target (or leads to one).
    fn wants_layers(&self, useful: &[bool]) -> bool {
        self.layers.iter().any(|&(w, b)| useful[w.idx] || useful[b.idx])
    }
}

/// The two variables [`Tape::embed_pool`] records.
#[derive(Clone, Copy, Debug)]
pub struct Pooled {
    /// The pooled descriptor block `[n_rows, M]`.
    pub out: Var,
    /// Leaf standing for the stream's per-pair switching values `s` (its
    /// tensor is empty: the values live in the [`PairList`]). Differentiate
    /// with respect to it to get the per-pair sensitivity
    /// `∂E/∂s + (∂E/∂z)/dstd`, shape `[n_pairs]`.
    pub pairs: Var,
}

struct Node {
    value: Tensor,
    op: Op,
}

/// Stable kernel label for a recorded op (unary ops expand to their
/// nonlinearity's name), used by the step-budget census.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Const => "const",
        Op::Add(..) => "add",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Neg(..) => "neg",
        Op::Scale(..) => "scale",
        Op::AddScalar(..) => "add_scalar",
        Op::AddBias(..) => "add_bias",
        Op::Matmul(..) => "matmul",
        Op::MatmulNT(..) => "matmul_nt",
        Op::MatmulTN(..) => "matmul_tn",
        Op::Transpose(..) => "transpose",
        Op::Unary(u, _) => match u {
            Unary::Tanh => "tanh",
            Unary::Sigmoid => "sigmoid",
            Unary::Softplus => "softplus",
            Unary::Relu => "relu",
            Unary::Relu6 => "relu6",
            Unary::Exp => "exp",
            Unary::Sqrt => "sqrt",
            Unary::Recip => "recip",
            Unary::Square => "square",
            Unary::OneMinusSquare => "one_minus_square",
            Unary::Step => "step",
            Unary::Clamp01 => "clamp01",
        },
        Op::Affine { .. } => "affine",
        Op::SumAll(..) => "sum_all",
        Op::SumRows(..) => "sum_rows",
        Op::BroadcastRows(..) => "broadcast_rows",
        Op::BroadcastScalar(..) => "broadcast_scalar",
        Op::GatherRows(..) => "gather_rows",
        Op::ScatterAddRows(..) => "scatter_add_rows",
        Op::MulColVec(..) => "mul_col_vec",
        Op::RowwiseDot(..) => "rowwise_dot",
        Op::Reshape(..) => "reshape",
        Op::ActBack { .. } => "act_back",
        Op::EmbedPool { .. } => "embed_pool",
        Op::EmbedPoolGrad { .. } => "embed_pool_grad",
        Op::ForceAssemble { .. } => "force_assemble",
    }
}

/// An append-only tape of eagerly evaluated tensor operations.
///
/// See the module docs for the arena/pooling behaviour of [`Tape::reset`].
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Interned `Rc<[usize]>` lists referenced by gather/scatter ops.
    index_lists: RefCell<Vec<Rc<[usize]>>>,
    /// One record per [`Op::EmbedPool`] node.
    embeds: RefCell<Vec<EmbedRecord>>,
    /// The parts of each [`Op::ForceAssemble`] node.
    forces: RefCell<Vec<Vec<ForcePart>>>,
    /// Recycled [`EmbedRecord::rows`] buffers.
    row_pool: RefCell<Vec<Vec<usize>>>,
    /// Recycled value buffers in power-of-two size-class buckets. Buffers
    /// keep their `Arc` wrapper, so reuse skips both the data and the
    /// refcount allocation; the handful of classes makes a linear scan
    /// cheaper than hashing.
    pool: RefCell<Vec<SizeClass>>,
    /// Allocation metering, off by default: when off, the lease path pays
    /// one `Cell` read and nothing else. Observed trainers switch it on so
    /// pool behaviour (hits/misses/bytes) is visible per step and bucket.
    meter: Cell<bool>,
    /// Stats since the last [`Tape::take_alloc_stats`] call.
    meter_window: Cell<TapeAllocStats>,
    /// Bytes currently leased out (leases minus recycles, saturating: the
    /// pool also absorbs caller-donated buffers it never leased).
    live_bytes: Cell<u64>,
}

/// Allocation statistics of a metered [`Tape`] arena. All figures are pure
/// functions of the lease/recycle sequence — no wall clock — so metered and
/// unmetered runs stay bit-identical and the numbers are reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeAllocStats {
    /// Buffer leases served from the recycle pool.
    pub pool_hits: u64,
    /// Buffer leases that had to allocate fresh from the global allocator.
    pub pool_misses: u64,
    /// Total leases (`pool_hits + pool_misses`).
    pub leases: u64,
    /// Bytes of fresh capacity allocated by pool misses.
    pub fresh_bytes: u64,
    /// High-water mark of bytes leased out at once.
    pub leased_bytes_hw: u64,
}

/// One recycling bucket: a power-of-two size class and its free buffers.
type SizeClass = (usize, Vec<Arc<Vec<f64>>>);

/// A uniquely-owned buffer leased from the tape's pool. Derefs to its
/// element slice; finish with [`TapeBuf::into_tensor`] to wrap it without
/// another allocation.
struct TapeBuf(Arc<Vec<f64>>);

impl TapeBuf {
    fn into_tensor(self, shape: Shape) -> Tensor {
        Tensor::from_shared(shape, self.0)
    }
}

impl std::ops::Deref for TapeBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl std::ops::DerefMut for TapeBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        Arc::get_mut(&mut self.0).expect("leased pool buffer is uniquely owned").as_mut_slice()
    }
}

/// Size class a buffer of `len` elements is pooled under.
fn size_class(len: usize) -> usize {
    len.next_power_of_two()
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clear the tape while retaining its allocations: the node list keeps
    /// its capacity and every value buffer not shared outside the tape is
    /// recycled for reuse by subsequent ops. All existing [`Var`] handles
    /// are invalidated.
    pub fn reset(&self) {
        let mut nodes = self.nodes.borrow_mut();
        for node in nodes.drain(..) {
            self.recycle_arc(node.value);
        }
        self.index_lists.borrow_mut().clear();
        for record in self.embeds.borrow_mut().drain(..) {
            self.recycle_arc(record.stash);
            if let Some(tangent) = record.tangent {
                self.recycle_arc(tangent);
            }
            self.row_pool.borrow_mut().push(record.rows);
        }
        self.forces.borrow_mut().clear();
    }

    /// Return a tensor's buffer (Arc included) to the pool when this tensor
    /// is its sole owner.
    fn recycle_arc(&self, t: Tensor) {
        if t.is_empty() {
            return;
        }
        let class = size_class(t.len());
        if let Some(arc) = t.try_unique_shared() {
            let mut pool = self.pool.borrow_mut();
            match pool.iter_mut().find(|(c, _)| *c == class) {
                Some((_, bucket)) => bucket.push(arc),
                None => pool.push((class, vec![arc])),
            }
            if self.meter.get() {
                let bytes = (class * std::mem::size_of::<f64>()) as u64;
                self.live_bytes.set(self.live_bytes.get().saturating_sub(bytes));
            }
        }
    }

    /// Enable or disable allocation metering. Idempotent; enabling starts
    /// the window from zero.
    pub fn set_alloc_metering(&self, on: bool) {
        if on && !self.meter.get() {
            self.meter_window.set(TapeAllocStats::default());
            self.live_bytes.set(0);
        }
        self.meter.set(on);
    }

    /// Whether allocation metering is currently enabled.
    pub fn alloc_metering(&self) -> bool {
        self.meter.get()
    }

    /// Allocation stats since the previous `take_alloc_stats` call, and
    /// start a new window (its high-water begins at the bytes still leased).
    pub fn take_alloc_stats(&self) -> TapeAllocStats {
        let window = self.meter_window.get();
        self.meter_window
            .set(TapeAllocStats { leased_bytes_hw: self.live_bytes.get(), ..TapeAllocStats::default() });
        window
    }

    /// Bytes of capacity currently retained by the recycle pool.
    pub fn retained_bytes(&self) -> u64 {
        self.pool
            .borrow()
            .iter()
            .map(|(class, bucket)| (class * bucket.len() * std::mem::size_of::<f64>()) as u64)
            .sum()
    }

    /// Meter one buffer lease (out-of-line so the unmetered lease path
    /// stays a single predictable branch).
    fn meter_lease(&self, class: usize, hit: bool) {
        let bytes = (class * std::mem::size_of::<f64>()) as u64;
        let live = self.live_bytes.get() + bytes;
        self.live_bytes.set(live);
        let mut s = self.meter_window.get();
        s.leases += 1;
        if hit {
            s.pool_hits += 1;
        } else {
            s.pool_misses += 1;
            s.fresh_bytes += bytes;
        }
        if live > s.leased_bytes_hw {
            s.leased_bytes_hw = live;
        }
        self.meter_window.set(s);
    }

    /// Number of buffers currently available in the recycle pool (test and
    /// diagnostics hook).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.borrow().iter().map(|(_, bucket)| bucket.len()).sum()
    }

    /// Per-kernel node census over a node range: `(kernel name, count)`
    /// pairs sorted by name. Used to build the deterministic step-budget
    /// tables — node counts depend only on graph shape, never on data.
    pub fn op_census(&self, range: std::ops::Range<usize>) -> Vec<(&'static str, usize)> {
        let nodes = self.nodes.borrow();
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for node in &nodes[range] {
            *counts.entry(op_name(&node.op)).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// A buffer of exactly `len` elements with unspecified contents —
    /// callers must overwrite every element.
    fn alloc(&self, len: usize) -> TapeBuf {
        let class = size_class(len);
        let recycled = {
            let mut pool = self.pool.borrow_mut();
            pool.iter_mut().find(|(c, _)| *c == class).and_then(|(_, bucket)| bucket.pop())
        };
        if self.meter.get() {
            self.meter_lease(class, recycled.is_some());
        }
        match recycled {
            Some(mut arc) => {
                let v = Arc::get_mut(&mut arc).expect("pooled buffer is uniquely owned");
                if v.len() != len {
                    v.resize(len, 0.0);
                }
                TapeBuf(arc)
            }
            None => {
                // Reserve the full class so later lengths in the same class
                // resize in place instead of reallocating.
                let mut v = Vec::with_capacity(class);
                v.resize(len, 0.0);
                TapeBuf(Arc::new(v))
            }
        }
    }

    /// A zero-filled buffer of exactly `len` elements.
    fn alloc_zeroed(&self, len: usize) -> TapeBuf {
        let mut buf = self.alloc(len);
        buf.fill(0.0);
        buf
    }

    fn intern_indices(&self, idx: Rc<[usize]>) -> IdxId {
        let mut lists = self.index_lists.borrow_mut();
        lists.push(idx);
        (lists.len() - 1) as IdxId
    }

    fn indices(&self, id: IdxId) -> Rc<[usize]> {
        Rc::clone(&self.index_lists.borrow()[id as usize])
    }

    fn push(&self, value: Tensor, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var { idx: nodes.len() - 1 }
    }

    /// Record a constant (a leaf). Leaves are also the differentiation targets.
    pub fn constant(&self, t: Tensor) -> Var {
        self.push(t, Op::Const)
    }

    /// Record a scalar constant.
    pub fn scalar(&self, v: f64) -> Var {
        self.constant(Tensor::scalar(v))
    }

    /// The current value of a variable. Cheap: tensors share their buffer,
    /// so this is a reference-count bump, not a data copy.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.idx].value.clone()
    }

    /// Run `f` against a borrowed view of the variable's value, without
    /// taking even a shared handle. Do not call tape ops from inside `f`.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.idx].value)
    }

    /// Shape of a variable's value.
    pub fn shape(&self, v: Var) -> Shape {
        self.nodes.borrow()[v.idx].value.shape()
    }

    /// The scalar value of a length-1 variable.
    pub fn item(&self, v: Var) -> f64 {
        self.nodes.borrow()[v.idx].value.item()
    }

    /// True if the variable's value contains NaN or ±∞.
    pub fn has_non_finite(&self, v: Var) -> bool {
        self.nodes.borrow()[v.idx].value.has_non_finite()
    }

    /// Elementwise binary op through a pooled output buffer.
    fn pooled_zip(&self, a: Var, b: Var, op: Op, f: impl Fn(f64, f64) -> f64) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (x, y) = (&nodes[a.idx].value, &nodes[b.idx].value);
            assert_eq!(x.shape(), y.shape(), "shape mismatch {} vs {}", x.shape(), y.shape());
            let mut out = self.alloc(x.len());
            for ((o, &xa), &yb) in out.iter_mut().zip(x.data()).zip(y.data()) {
                *o = f(xa, yb);
            }
            out.into_tensor(x.shape())
        };
        self.push(value, op)
    }

    /// Elementwise unary op through a pooled output buffer.
    fn pooled_map(&self, a: Var, op: Op, f: impl Fn(f64) -> f64) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.idx].value;
            let mut out = self.alloc(x.len());
            for (o, &xa) in out.iter_mut().zip(x.data()) {
                *o = f(xa);
            }
            out.into_tensor(x.shape())
        };
        self.push(value, op)
    }

    fn unary_op(&self, a: Var, f: impl FnOnce(&Tensor) -> Tensor, op: Op) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            f(&nodes[a.idx].value)
        };
        self.push(value, op)
    }

    /// Elementwise sum.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.pooled_zip(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise difference.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.pooled_zip(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.pooled_zip(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        self.pooled_map(a, Op::Neg(a), |x| -x)
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&self, a: Var, c: f64) -> Var {
        self.pooled_map(a, Op::Scale(a, c), |x| x * c)
    }

    /// Add a compile-time constant to every element.
    pub fn add_scalar(&self, a: Var, c: f64) -> Var {
        self.pooled_map(a, Op::AddScalar(a, c), |x| x + c)
    }

    /// `[n,k] + [k]` bias broadcast.
    pub fn add_bias(&self, m: Var, bias: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (x, b) = (&nodes[m.idx].value, &nodes[bias.idx].value);
            let (r, c) = (x.shape().rows(), x.shape().cols());
            assert_eq!(b.len(), c, "bias length {} vs cols {c}", b.len());
            let mut out = self.alloc(r * c);
            crate::simd::add_bias(x.data(), c, b.data(), &mut out);
            out.into_tensor(x.shape())
        };
        self.push(value, Op::AddBias(m, bias))
    }

    /// Matrix product of two rank-2 variables.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        debug_assert!(matches!(self.shape(a), Shape::D2(..)), "matmul lhs must be 2-D");
        debug_assert!(matches!(self.shape(b), Shape::D2(..)), "matmul rhs must be 2-D");
        let value = {
            let nodes = self.nodes.borrow();
            let (x, y) = (&nodes[a.idx].value, &nodes[b.idx].value);
            let (m, n) = (x.shape().rows(), y.shape().cols());
            let mut out = self.alloc_zeroed(m * n);
            x.matmul_into(y, &mut out);
            out.into_tensor(Shape::D2(m, n))
        };
        self.push(value, Op::Matmul(a, b))
    }

    /// `a @ bᵀ` without materialising the transpose (`[m,k] x [p,k] -> [m,p]`).
    pub fn matmul_nt(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (x, y) = (&nodes[a.idx].value, &nodes[b.idx].value);
            let (m, p) = (x.shape().rows(), y.shape().rows());
            let mut out = self.alloc(m * p);
            x.matmul_nt_into(y, &mut out);
            out.into_tensor(Shape::D2(m, p))
        };
        self.push(value, Op::MatmulNT(a, b))
    }

    /// `aᵀ @ b` without materialising the transpose (`[k,m] x [k,n] -> [m,n]`).
    pub fn matmul_tn(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (x, y) = (&nodes[a.idx].value, &nodes[b.idx].value);
            let (m, n) = (x.shape().cols(), y.shape().cols());
            let mut out = self.alloc_zeroed(m * n);
            x.matmul_tn_into(y, &mut out);
            out.into_tensor(Shape::D2(m, n))
        };
        self.push(value, Op::MatmulTN(a, b))
    }

    /// Matrix transpose of a rank-2 variable.
    pub fn transpose(&self, a: Var) -> Var {
        self.unary_op(a, |x| x.transpose(), Op::Transpose(a))
    }

    /// Fused MLP layer `act(x @ w + b)` — or `x @ w + b` when `act` is
    /// `None` — recorded as a single node. The forward runs matmul, bias
    /// add, and activation in one pooled buffer; the backward uses the
    /// transposed-matmul kernels and the activation derivative expressed
    /// from the layer *output*, so the whole layer costs one node instead
    /// of three and its gradient stays differentiable (double backward).
    pub fn affine(&self, x: Var, w: Var, b: Var, act: Option<Unary>) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (xv, wv, bv) =
                (&nodes[x.idx].value, &nodes[w.idx].value, &nodes[b.idx].value);
            let (m, n) = (xv.shape().rows(), wv.shape().cols());
            assert_eq!(bv.len(), n, "affine bias length {} vs cols {n}", bv.len());
            let mut out = self.alloc_zeroed(m * n);
            xv.matmul_into(wv, &mut out);
            crate::simd::add_bias_inplace(&mut out, n, bv.data());
            if let Some(k) = act {
                k.eval_slice(&mut out);
            }
            out.into_tensor(Shape::D2(m, n))
        };
        self.push(value, Op::Affine { x, w, b, act })
    }

    /// Borrow `(w, b)` layer variables from the node list as a kernel net.
    fn with_net<R>(
        nodes: &[Node],
        layers: &[(Var, Var)],
        act: Unary,
        f: impl FnOnce(&fused::Net<'_>) -> R,
    ) -> R {
        let layers: Vec<fused::Layer<'_>> = layers
            .iter()
            .map(|&(w, b)| {
                let wv = &nodes[w.idx].value;
                fused::Layer {
                    w: wv.data(),
                    b: nodes[b.idx].value.data(),
                    k: wv.shape().rows(),
                    n: wv.shape().cols(),
                }
            })
            .collect();
        f(&fused::Net { layers: &layers, act })
    }

    /// Fused embedding → pool over a pair stream, one node for the whole
    /// per-species chain `z → act(affine)… → ·s → sum by centre → ·inv_avg`:
    ///
    /// ```text
    /// out[i] = inv_avg · Σ_{p : centre(p) = i}  s_p · h_L(z_p)
    /// h₀ = z,   h_l = act(h_{l−1}·W_l + b_l)
    /// ```
    ///
    /// `layers` are the `(W_l, b_l)` variables (first layer `[1, n₁]`, any
    /// depth ≥ 1); `inv_dstd` is `dz/ds`, used only by the gradient. The
    /// returned [`Pooled::pairs`] leaf stands for the stream's `s` values:
    /// `grad(e, &[pairs])` records one `embed_pool_grad` node holding
    /// the per-pair total sensitivity `∂e/∂s + (∂e/∂z)·inv_dstd`, and
    /// [`Tape::grad_values`] differentiates through both nodes down to the
    /// layer parameters (kernels and summation orders: `fused.rs`).
    pub fn embed_pool(
        &self,
        list: Rc<PairList>,
        layers: &[(Var, Var)],
        act: Unary,
        inv_dstd: f64,
        inv_avg: f64,
    ) -> Pooled {
        assert!(!layers.is_empty(), "embed_pool needs at least one layer");
        let pairs = self.constant(Tensor::zeros(Shape::D1(0)));
        let mut rows = self.row_pool.borrow_mut().pop().unwrap_or_default();
        rows.resize(list.n_blocks() * fused::LANES, 0);
        let (out, stash) = {
            let nodes = self.nodes.borrow();
            let mut width = 1;
            for &(w, b) in layers {
                let (ws, bl) = (nodes[w.idx].value.shape(), nodes[b.idx].value.len());
                assert_eq!(ws.rows(), width, "embed_pool layer input width");
                assert_eq!(bl, ws.cols(), "embed_pool bias length");
                width = ws.cols();
            }
            Tape::with_net(&nodes, layers, act, |net| {
                let mut out = self.alloc_zeroed(list.n_rows() * width);
                let stash_len = list.n_blocks() * net.stash_stride();
                let mut stash = self.alloc(stash_len);
                fused::embed_pool(&list, net, inv_avg, &mut out, &mut stash, &mut rows);
                (
                    out.into_tensor(Shape::D2(list.n_rows(), width)),
                    stash.into_tensor(Shape::D1(stash_len)),
                )
            })
        };
        let rec = {
            let mut embeds = self.embeds.borrow_mut();
            embeds.push(EmbedRecord {
                list,
                layers: layers.to_vec(),
                act,
                inv_dstd,
                inv_avg,
                stash,
                rows,
                tangent: None,
                pending: Vec::new(),
            });
            (embeds.len() - 1) as RecId
        };
        Pooled { out: self.push(out, Op::EmbedPool { pairs, rec }), pairs }
    }

    /// The record behind an [`Op::EmbedPool`] node.
    fn embed_rec(nodes: &[Node], pool: Var) -> usize {
        match nodes[pool.idx].op {
            Op::EmbedPool { rec, .. } => rec as usize,
            _ => unreachable!("embed_pool_grad points at a non-pool node"),
        }
    }

    /// Value of [`Op::EmbedPoolGrad`]: the per-pair sensitivity `[n_pairs]`
    /// of embed record `rec` under the output adjoint `g`. Leaves the
    /// record's tangents behind for the second-order pass.
    fn val_embed_sens(&self, nodes: &[Node], rec: usize, g: &Tensor) -> Tensor {
        let mut embeds = self.embeds.borrow_mut();
        let record = &mut embeds[rec];
        let n_pairs = record.list.n_pairs();
        let mut u = self.alloc(n_pairs);
        let mut tangent = record.tangent.take();
        Tape::with_net(nodes, &record.layers, record.act, |net| {
            let t_len = record.list.n_blocks() * net.tangent_stride();
            let t = tangent.get_or_insert_with(|| self.alloc(t_len).into_tensor(Shape::D1(t_len)));
            fused::embed_sens(
                net,
                record.stash.data(),
                &record.rows,
                g.data(),
                record.inv_avg,
                record.inv_dstd,
                t.data_mut(),
                &mut u,
            );
        });
        record.tangent = tangent;
        u.into_tensor(Shape::D1(n_pairs))
    }

    /// Record the gradient op of an embed-pool node (emitted by
    /// [`Tape::grad`] for the node's `pairs` leaf).
    fn embed_pool_grad(&self, g: Var, pool: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            self.val_embed_sens(&nodes, Tape::embed_rec(&nodes, pool), &nodes[g.idx].value)
        };
        self.push(value, Op::EmbedPoolGrad { g, pool })
    }

    /// Forces `F = −∂E/∂x` `[n_rows, 3]` from per-pair sensitivities, one
    /// node for all parts: for every pair `p` of every `(u, list)` part,
    /// `r = jac_p·u_p` is added to the centre atom's row and subtracted
    /// from the neighbour's. Differentiable through
    /// [`Tape::grad_values`].
    pub fn force_assemble(&self, parts: &[ForcePart], n_rows: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let views: Vec<(&[f64], &PairList)> = parts
                .iter()
                .map(|(u, list)| {
                    assert_eq!(list.n_rows(), n_rows, "force_assemble row count");
                    assert_eq!(nodes[u.idx].value.len(), list.n_pairs(), "force_assemble sensitivity length");
                    (nodes[u.idx].value.data(), &**list)
                })
                .collect();
            let mut out = self.alloc_zeroed(n_rows * 3);
            fused::force_assemble(&views, &mut out);
            out.into_tensor(Shape::D2(n_rows, 3))
        };
        let rec = {
            let mut forces = self.forces.borrow_mut();
            forces.push(parts.to_vec());
            (forces.len() - 1) as RecId
        };
        self.push(value, Op::ForceAssemble { rec })
    }

    /// Apply an elementwise nonlinearity.
    pub fn unary(&self, k: Unary, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.idx].value;
            let mut out = self.alloc(x.len());
            out.copy_from_slice(x.data());
            k.eval_slice(&mut out);
            out.into_tensor(x.shape())
        };
        self.push(value, Op::Unary(k, a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(Unary::Tanh, a)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(Unary::Sigmoid, a)
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        self.unary(Unary::Exp, a)
    }

    /// Elementwise square root.
    pub fn sqrt(&self, a: Var) -> Var {
        self.unary(Unary::Sqrt, a)
    }

    /// Elementwise reciprocal.
    pub fn recip(&self, a: Var) -> Var {
        self.unary(Unary::Recip, a)
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        self.unary(Unary::Square, a)
    }

    /// Heaviside step (derivative of `relu`).
    pub fn step(&self, a: Var) -> Var {
        self.unary(Unary::Step, a)
    }

    /// Clamp into the unit interval.
    pub fn clamp01(&self, a: Var) -> Var {
        self.unary(Unary::Clamp01, a)
    }

    /// Sum every element into a scalar `[1]`.
    pub fn sum_all(&self, a: Var) -> Var {
        self.unary_op(
            a,
            |x| {
                let mut out = self.alloc(1);
                out[0] = x.sum();
                out.into_tensor(Shape::D1(1))
            },
            Op::SumAll(a),
        )
    }

    /// Column sums: `[n,k] -> [k]`.
    pub fn sum_rows(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.idx].value;
            let c = x.shape().cols();
            let mut out = self.alloc_zeroed(c);
            crate::simd::sum_rows(x.data(), c, &mut out);
            out.into_tensor(Shape::D1(c))
        };
        self.push(value, Op::SumRows(a))
    }

    /// Replicate a `[k]` vector into `[n,k]`.
    pub fn broadcast_rows(&self, a: Var, n: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.idx].value;
            let k = x.len();
            let mut out = self.alloc(n * k);
            for row in out.chunks_exact_mut(k.max(1)) {
                row.copy_from_slice(x.data());
            }
            out.into_tensor(Shape::D2(n, k))
        };
        self.push(value, Op::BroadcastRows(a, n))
    }

    /// Replicate a scalar into an arbitrary shape.
    fn broadcast_scalar(&self, a: Var, shape: Shape) -> Var {
        let value = {
            let v = self.nodes.borrow()[a.idx].value.item();
            let mut out = self.alloc(shape.len());
            out.fill(v);
            out.into_tensor(shape)
        };
        self.push(value, Op::BroadcastScalar(a, shape))
    }

    /// Gather rows by index. Out-of-range indices panic via the kernel's
    /// slice bounds checks.
    pub fn gather_rows(&self, a: Var, idx: Rc<[usize]>) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.idx].value;
            let c = x.shape().cols();
            let mut out = self.alloc(idx.len() * c);
            crate::simd::gather_rows(x.data(), c, &idx, &mut out);
            let shape = match x.shape() {
                Shape::D1(_) => Shape::D1(idx.len()),
                Shape::D2(..) => Shape::D2(idx.len(), c),
            };
            out.into_tensor(shape)
        };
        let id = self.intern_indices(idx);
        self.push(value, Op::GatherRows(a, id))
    }

    /// Scatter-add rows into a zeroed tensor with `n` rows. Out-of-range
    /// indices panic via the kernel's slice bounds checks.
    pub fn scatter_add_rows(&self, a: Var, idx: Rc<[usize]>, n: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.idx].value;
            let c = x.shape().cols();
            assert_eq!(x.shape().rows(), idx.len(), "scatter_add_rows index count");
            let mut out = self.alloc_zeroed(n * c);
            crate::simd::scatter_add_rows(x.data(), c, &idx, &mut out);
            let shape = match x.shape() {
                Shape::D1(_) => Shape::D1(n),
                Shape::D2(..) => Shape::D2(n, c),
            };
            out.into_tensor(shape)
        };
        let id = self.intern_indices(idx);
        self.push(value, Op::ScatterAddRows(a, id, n))
    }

    /// Scale row `i` of `m` by `v[i]`.
    pub fn mul_col_vec(&self, m: Var, v: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (x, s) = (&nodes[m.idx].value, &nodes[v.idx].value);
            let (r, c) = (x.shape().rows(), x.shape().cols());
            assert_eq!(s.len(), r, "mul_col_vec length mismatch");
            let mut out = self.alloc(r * c);
            crate::simd::row_scale(x.data(), c, s.data(), &mut out);
            out.into_tensor(x.shape())
        };
        self.push(value, Op::MulColVec(m, v))
    }

    /// Row-wise dot product, producing `[n]`.
    pub fn rowwise_dot(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.idx].value.rowwise_dot(&nodes[b.idx].value)
        };
        self.push(value, Op::RowwiseDot(a, b))
    }

    /// Reinterpret with a new shape of equal element count. Shares the
    /// underlying buffer — no copy.
    pub fn reshape(&self, a: Var, shape: Shape) -> Var {
        self.unary_op(a, |x| x.reshape(shape), Op::Reshape(a, shape))
    }

    /// A zero constant with the same shape as `a`.
    fn zeros_like(&self, a: Var) -> Var {
        let shape = self.shape(a);
        let value = self.alloc_zeroed(shape.len()).into_tensor(shape);
        self.constant(value)
    }

    /// Derivative `f'(x)` of a unary op, built from taped primitives so that
    /// it is itself differentiable. `y` is the already-computed `f(x)`.
    fn unary_derivative(&self, k: Unary, x: Var, y: Var) -> Var {
        match k {
            // tanh' = 1 - tanh², one fused node instead of a 3-op chain.
            Unary::Tanh => self.unary(Unary::OneMinusSquare, y),
            // σ' = σ(1-σ).
            Unary::Sigmoid => self.mul(y, self.add_scalar(self.scale(y, -1.0), 1.0)),
            // softplus' = σ.
            Unary::Softplus => self.sigmoid(x),
            Unary::Relu => self.step(x),
            // relu6' = 1 on (0,6): step(x)·step(6-x).
            Unary::Relu6 => {
                let six_minus = self.add_scalar(self.scale(x, -1.0), 6.0);
                self.mul(self.step(x), self.step(six_minus))
            }
            Unary::Exp => y,
            // sqrt' = 1/(2√x).
            Unary::Sqrt => self.scale(self.recip(y), 0.5),
            // (1/x)' = -1/x² = -y².
            Unary::Recip => self.scale(self.square(y), -1.0),
            Unary::Square => self.scale(x, 2.0),
            Unary::OneMinusSquare => self.scale(x, -2.0),
            Unary::Step => self.zeros_like(x),
            // clamp01' = 1 on (0,1): step(x)·step(1-x).
            Unary::Clamp01 => {
                let one_minus = self.add_scalar(self.scale(x, -1.0), 1.0);
                self.mul(self.step(x), self.step(one_minus))
            }
        }
    }

    /// Activation derivative expressed purely from the layer *output* `y`,
    /// for the fused affine backward (the pre-activation is never stored).
    /// Every supported activation admits such a form:
    /// tanh' = 1-y², σ' = y(1-y), softplus' = 1-e^{-y} (= σ of the input),
    /// relu' = step(y), relu6' = step(y)·step(6-y).
    /// Fused `g ∘ act'(y)` from a saved activation output: the taped
    /// counterpart of [`Tape::val_affine_gm`], evaluated in one pass and
    /// recorded as a single [`Op::ActBack`] node. Bit-identical to the
    /// decomposed `mul(g, activation_derivative_from_output(...))` chain —
    /// every per-element rounding happens in the same order.
    fn act_back(&self, g: Var, y: Var, act: Unary) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            self.val_affine_gm(act, &nodes[g.idx].value, &nodes[y.idx].value)
        };
        self.push(value, Op::ActBack { g, y, act })
    }

    fn activation_derivative_from_output(&self, k: Unary, y: Var) -> Var {
        match k {
            Unary::Tanh => self.unary(Unary::OneMinusSquare, y),
            Unary::Sigmoid => self.mul(y, self.add_scalar(self.scale(y, -1.0), 1.0)),
            Unary::Softplus => self.add_scalar(self.neg(self.exp(self.neg(y))), 1.0),
            // y = max(x,0): x > 0 ⟺ y > 0, and the derivative at 0 is 0
            // either way, matching `unary_derivative`'s step convention.
            Unary::Relu => self.step(y),
            // y = clamp(x,0,6): interior ⟺ 0 < y < 6.
            Unary::Relu6 => {
                let six_minus = self.add_scalar(self.scale(y, -1.0), 6.0);
                self.mul(self.step(y), self.step(six_minus))
            }
            _ => panic!("affine fusion only supports MLP activations, got {k:?}"),
        }
    }

    /// Return a tensor's buffer to the recycle pool if nothing else holds it.
    fn recycle(&self, t: Tensor) {
        self.recycle_arc(t);
    }

    /// Elementwise map into a pooled buffer (value-level, no node).
    fn val_map(&self, x: &Tensor, f: impl Fn(f64) -> f64) -> Tensor {
        let mut out = self.alloc(x.len());
        for (o, &v) in out.iter_mut().zip(x.data()) {
            *o = f(v);
        }
        out.into_tensor(x.shape())
    }

    /// Elementwise zip into a pooled buffer (value-level, no node).
    fn val_zip(&self, x: &Tensor, y: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        debug_assert_eq!(x.shape().len(), y.shape().len());
        let mut out = self.alloc(x.len());
        for ((o, &a), &b) in out.iter_mut().zip(x.data()).zip(y.data()) {
            *o = f(a, b);
        }
        out.into_tensor(x.shape())
    }

    /// Column sums into a pooled buffer (value-level, no node).
    fn val_sum_rows(&self, x: &Tensor) -> Tensor {
        let c = x.shape().cols();
        let mut out = self.alloc_zeroed(c);
        crate::simd::sum_rows(x.data(), c, &mut out);
        out.into_tensor(Shape::D1(c))
    }

    /// Row-scaled copy into a pooled buffer (value-level, no node).
    fn val_mul_col_vec(&self, x: &Tensor, s: &Tensor) -> Tensor {
        let (r, c) = (x.shape().rows(), x.shape().cols());
        debug_assert_eq!(s.len(), r);
        let mut out = self.alloc(r * c);
        crate::simd::row_scale(x.data(), c, s.data(), &mut out);
        out.into_tensor(x.shape())
    }

    /// `g ∘ f'(x)` in one pooled pass, arithmetic mirroring
    /// [`Tape::unary_derivative`] exactly (bit-identical to the taped chain).
    fn val_unary_backward(&self, k: Unary, g: &Tensor, xv: &Tensor, yv: &Tensor) -> Option<Tensor> {
        if matches!(k, Unary::Step) {
            return None; // derivative is identically zero
        }
        let mut out = self.alloc(xv.len());
        // One fused pass per variant: the activation match is hoisted out
        // of the element loop so each arm is a straight-line loop the
        // autovectorizer handles. Arithmetic per element is unchanged.
        macro_rules! sweep {
            (|$x:ident, $y:ident| $d:expr) => {{
                for (((o, &gv), &$x, ), &$y) in
                    out.iter_mut().zip(g.data()).zip(xv.data()).zip(yv.data())
                {
                    let d = $d;
                    *o = gv * d;
                }
            }};
        }
        match k {
            Unary::Tanh => sweep!(|_x, y| -(y * y) + 1.0),
            Unary::Sigmoid => sweep!(|_x, y| y * (-y + 1.0)),
            Unary::Softplus => sweep!(|x, _y| Unary::Sigmoid.eval(x)),
            Unary::Relu => sweep!(|x, _y| if x > 0.0 { 1.0 } else { 0.0 }),
            Unary::Relu6 => sweep!(|x, _y| {
                let s1 = if x > 0.0 { 1.0 } else { 0.0 };
                let s2 = if -x + 6.0 > 0.0 { 1.0 } else { 0.0 };
                s1 * s2
            }),
            Unary::Exp => sweep!(|_x, y| y),
            Unary::Sqrt => sweep!(|_x, y| (1.0 / y) * 0.5),
            Unary::Recip => sweep!(|_x, y| -(y * y)),
            Unary::Square => sweep!(|x, _y| x * 2.0),
            Unary::OneMinusSquare => sweep!(|x, _y| x * (-2.0)),
            Unary::Clamp01 => sweep!(|x, _y| {
                let s1 = if x > 0.0 { 1.0 } else { 0.0 };
                let s2 = if -x + 1.0 > 0.0 { 1.0 } else { 0.0 };
                s1 * s2
            }),
            Unary::Step => unreachable!(),
        }
        Some(out.into_tensor(xv.shape()))
    }

    /// `g ∘ act'(y)` from the fused-affine output in one pooled pass,
    /// mirroring [`Tape::activation_derivative_from_output`] exactly.
    fn val_affine_gm(&self, k: Unary, g: &Tensor, yv: &Tensor) -> Tensor {
        let mut out = self.alloc(yv.len());
        k.back_slice(g.data(), yv.data(), &mut out);
        out.into_tensor(yv.shape())
    }

    /// y-adjoint of [`Op::ActBack`]: `(G ∘ g) ∘ d(act')/dy` evaluated from
    /// the saved output, with every intermediate rounded in exactly the
    /// order the decomposed derivative chain rounded it (see the taped
    /// `ActBack` arm in [`Tape::grad`]). Returns `None` for step-derivative
    /// activations, whose second derivative is zero almost everywhere —
    /// matching the decomposed chain, which contributed nothing.
    fn val_act_back_y(
        &self,
        k: Unary,
        g: &Tensor,
        ggv: &Tensor,
        yv: &Tensor,
    ) -> Option<Tensor> {
        if matches!(k, Unary::Relu | Unary::Relu6) {
            return None;
        }
        let mut out = self.alloc(yv.len());
        k.back_y_slice(g.data(), ggv.data(), yv.data(), &mut out);
        Some(out.into_tensor(yv.shape()))
    }

    /// Lease adjoint buffers for every layer of `record`, let `fill` run a
    /// kernel that overwrites them, then accumulate the wanted ones.
    fn embed_layer_adjoints(
        &self,
        nodes: &[Node],
        record: &EmbedRecord,
        useful: &[bool],
        adjoint: &mut [Option<Tensor>],
        fill: impl FnOnce(&fused::Net<'_>, &mut [fused::LayerGrad<'_>]),
    ) {
        let mut bufs: Vec<(TapeBuf, TapeBuf)> = record
            .layers
            .iter()
            .map(|&(w, b)| {
                (self.alloc(nodes[w.idx].value.len()), self.alloc(nodes[b.idx].value.len()))
            })
            .collect();
        Tape::with_net(nodes, &record.layers, record.act, |net| {
            let mut grads: Vec<fused::LayerGrad<'_>> =
                bufs.iter_mut().map(|(w, b)| fused::LayerGrad { w, b }).collect();
            fill(net, &mut grads);
        });
        for (&(w, b), (gw, gb)) in record.layers.iter().zip(bufs) {
            for (var, buf) in [(w, gw), (b, gb)] {
                let t = buf.into_tensor(nodes[var.idx].value.shape());
                if useful[var.idx] {
                    self.accumulate_value(var, t, adjoint);
                } else {
                    self.recycle(t);
                }
            }
        }
    }

    /// In-place adjoint accumulation of [`Tape::grad_values`]:
    /// `existing[j] += contribution[j]` is the same arithmetic as the taped
    /// `add(existing, contribution)`.
    fn accumulate_value(&self, slot: Var, contribution: Tensor, adjoint: &mut [Option<Tensor>]) {
        match &mut adjoint[slot.idx] {
            entry @ None => *entry = Some(contribution),
            Some(existing) => {
                let out = existing.data_mut();
                for (o, &c) in out.iter_mut().zip(contribution.data()) {
                    *o += c;
                }
                self.recycle(contribution);
            }
        }
    }

    /// Nodes from which at least one `wrt` target is reachable by walking
    /// op inputs. Both backward passes only propagate adjoints into useful
    /// nodes: a gradient of anything else would be discarded anyway, and
    /// skipping it never changes a kept gradient, because a useful node
    /// only ever receives contributions from useful consumers. In the
    /// force/double-backward pattern this skips every weight-gradient
    /// matmul of the inner `grad(energy, [z, s])` pass.
    fn useful_mask(&self, nodes: &[Node], limit: usize, wrt: &[Var]) -> Vec<bool> {
        let embeds = self.embeds.borrow();
        let forces = self.forces.borrow();
        let mut useful = vec![false; limit];
        for v in wrt {
            if v.idx < limit {
                useful[v.idx] = true;
            }
        }
        for i in 0..limit {
            if useful[i] {
                continue;
            }
            useful[i] = match nodes[i].op {
                Op::Const => false,
                Op::Add(a, b)
                | Op::Sub(a, b)
                | Op::Mul(a, b)
                | Op::AddBias(a, b)
                | Op::Matmul(a, b)
                | Op::MatmulNT(a, b)
                | Op::MatmulTN(a, b)
                | Op::MulColVec(a, b)
                | Op::RowwiseDot(a, b) => useful[a.idx] || useful[b.idx],
                Op::Affine { x, w, b, .. } => {
                    useful[x.idx] || useful[w.idx] || useful[b.idx]
                }
                Op::ActBack { g, y, .. } => useful[g.idx] || useful[y.idx],
                Op::EmbedPool { pairs, rec } => {
                    useful[pairs.idx] || embeds[rec as usize].wants_layers(&useful)
                }
                Op::EmbedPoolGrad { g, pool } => {
                    useful[g.idx] || useful[pool.idx]
                }
                Op::ForceAssemble { rec } => {
                    forces[rec as usize].iter().any(|(u, _)| useful[u.idx])
                }
                Op::Neg(a)
                | Op::Scale(a, _)
                | Op::AddScalar(a, _)
                | Op::Transpose(a)
                | Op::Unary(_, a)
                | Op::SumAll(a)
                | Op::SumRows(a)
                | Op::BroadcastRows(a, _)
                | Op::BroadcastScalar(a, _)
                | Op::GatherRows(a, _)
                | Op::ScatterAddRows(a, _, _)
                | Op::Reshape(a, _) => useful[a.idx],
            };
        }
        useful
    }

    /// First-order reverse-mode gradients of `sum(y)` as plain tensors.
    ///
    /// Computes the same values as [`Tape::grad`] (bit-for-bit: every
    /// adjoint uses the same kernels in the same order) but records
    /// **nothing** on the tape: adjoints live in pooled scratch buffers,
    /// accumulation happens in place, and activation-derivative chains run
    /// as single fused passes. This is the fast path for an optimiser-bound
    /// caller that needs gradient *values* only — when the gradient must be
    /// differentiated again (e.g. force construction), use [`Tape::grad`].
    pub fn grad_values(&self, y: Var, wrt: &[Var]) -> Vec<Tensor> {
        let nodes = self.nodes.borrow();
        let limit = y.idx + 1;
        let mut is_target = vec![false; limit];
        for v in wrt {
            assert!(v.idx < limit, "grad target created after output variable");
            is_target[v.idx] = true;
        }
        let useful = self.useful_mask(&nodes, limit, wrt);
        let mut adjoint: Vec<Option<Tensor>> = vec![None; limit];
        adjoint[y.idx] = Some(Tensor::ones(nodes[y.idx].value.shape()));

        for i in (0..limit).rev() {
            let Some(g) = adjoint[i].take() else { continue };
            let op = nodes[i].op;
            let acc = |slot: Var, contribution: Tensor, adjoint: &mut Vec<Option<Tensor>>| {
                self.accumulate_value(slot, contribution, adjoint)
            };
            match op {
                Op::Const => {}
                Op::Add(a, b) => {
                    if useful[a.idx] {
                        acc(a, g.clone(), &mut adjoint);
                    }
                    if useful[b.idx] {
                        acc(b, g.clone(), &mut adjoint);
                    }
                }
                Op::Sub(a, b) => {
                    if useful[a.idx] {
                        acc(a, g.clone(), &mut adjoint);
                    }
                    if useful[b.idx] {
                        let ng = self.val_map(&g, |v| -v);
                        acc(b, ng, &mut adjoint);
                    }
                }
                Op::Mul(a, b) => {
                    if useful[a.idx] {
                        let ga = self.val_zip(&g, &nodes[b.idx].value, |x, y| x * y);
                        acc(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.val_zip(&g, &nodes[a.idx].value, |x, y| x * y);
                        acc(b, gb, &mut adjoint);
                    }
                }
                Op::Neg(a) => {
                    if useful[a.idx] {
                        let ng = self.val_map(&g, |v| -v);
                        acc(a, ng, &mut adjoint);
                    }
                }
                Op::Scale(a, c) => {
                    if useful[a.idx] {
                        let gs = self.val_map(&g, |v| v * c);
                        acc(a, gs, &mut adjoint);
                    }
                }
                Op::AddScalar(a, _) => {
                    if useful[a.idx] {
                        acc(a, g.clone(), &mut adjoint);
                    }
                }
                Op::AddBias(m, bias) => {
                    if useful[m.idx] {
                        acc(m, g.clone(), &mut adjoint);
                    }
                    if useful[bias.idx] {
                        let gb = self.val_sum_rows(&g);
                        acc(bias, gb, &mut adjoint);
                    }
                }
                Op::Matmul(a, b) => {
                    let (av, bv) = (&nodes[a.idx].value, &nodes[b.idx].value);
                    if useful[a.idx] {
                        let mut ga = self.alloc(g.shape().rows() * bv.shape().rows());
                        g.matmul_nt_into(bv, &mut ga);
                        acc(a, ga.into_tensor(Shape::D2(g.shape().rows(), bv.shape().rows())), &mut adjoint);
                    }
                    if useful[b.idx] {
                        let mut gb = self.alloc_zeroed(av.shape().cols() * g.shape().cols());
                        av.matmul_tn_into(&g, &mut gb);
                        acc(b, gb.into_tensor(Shape::D2(av.shape().cols(), g.shape().cols())), &mut adjoint);
                    }
                }
                Op::MatmulNT(a, b) => {
                    let (av, bv) = (&nodes[a.idx].value, &nodes[b.idx].value);
                    if useful[a.idx] {
                        let mut ga = self.alloc_zeroed(g.shape().rows() * bv.shape().cols());
                        g.matmul_into(bv, &mut ga);
                        acc(a, ga.into_tensor(Shape::D2(g.shape().rows(), bv.shape().cols())), &mut adjoint);
                    }
                    if useful[b.idx] {
                        let mut gb = self.alloc_zeroed(g.shape().cols() * av.shape().cols());
                        g.matmul_tn_into(av, &mut gb);
                        acc(b, gb.into_tensor(Shape::D2(g.shape().cols(), av.shape().cols())), &mut adjoint);
                    }
                }
                Op::MatmulTN(a, b) => {
                    let (av, bv) = (&nodes[a.idx].value, &nodes[b.idx].value);
                    if useful[a.idx] {
                        let mut ga = self.alloc(bv.shape().rows() * g.shape().rows());
                        bv.matmul_nt_into(&g, &mut ga);
                        acc(a, ga.into_tensor(Shape::D2(bv.shape().rows(), g.shape().rows())), &mut adjoint);
                    }
                    if useful[b.idx] {
                        let mut gb = self.alloc_zeroed(av.shape().rows() * g.shape().cols());
                        av.matmul_into(&g, &mut gb);
                        acc(b, gb.into_tensor(Shape::D2(av.shape().rows(), g.shape().cols())), &mut adjoint);
                    }
                }
                Op::Transpose(a) => {
                    if useful[a.idx] {
                        let gt = g.transpose();
                        acc(a, gt, &mut adjoint);
                    }
                }
                Op::Unary(k, x) => {
                    if useful[x.idx] {
                        if let Some(gx) =
                            self.val_unary_backward(k, &g, &nodes[x.idx].value, &nodes[i].value)
                        {
                            acc(x, gx, &mut adjoint);
                        }
                    }
                }
                Op::Affine { x, w, b, act } => {
                    if useful[x.idx] || useful[w.idx] || useful[b.idx] {
                        let gm = match act {
                            Some(k) => self.val_affine_gm(k, &g, &nodes[i].value),
                            None => g.clone(),
                        };
                        let (xv, wv) = (&nodes[x.idx].value, &nodes[w.idx].value);
                        if useful[x.idx] {
                            let mut gx = self.alloc(gm.shape().rows() * wv.shape().rows());
                            gm.matmul_nt_into(wv, &mut gx);
                            acc(x, gx.into_tensor(Shape::D2(gm.shape().rows(), wv.shape().rows())), &mut adjoint);
                        }
                        if useful[w.idx] {
                            let mut gw = self.alloc_zeroed(xv.shape().cols() * gm.shape().cols());
                            xv.matmul_tn_into(&gm, &mut gw);
                            acc(w, gw.into_tensor(Shape::D2(xv.shape().cols(), gm.shape().cols())), &mut adjoint);
                        }
                        if useful[b.idx] {
                            let gb = self.val_sum_rows(&gm);
                            acc(b, gb, &mut adjoint);
                        }
                        self.recycle(gm);
                    }
                }
                Op::ActBack { g: gg, y, act } => {
                    let yv = &nodes[y.idx].value;
                    if useful[gg.idx] {
                        let c = self.val_affine_gm(act, &g, yv);
                        acc(gg, c, &mut adjoint);
                    }
                    if useful[y.idx] {
                        let ggv = &nodes[gg.idx].value;
                        if let Some(c) = self.val_act_back_y(act, &g, ggv, yv) {
                            acc(y, c, &mut adjoint);
                        }
                    }
                }
                Op::EmbedPool { pairs, rec } => {
                    // `g` is ∂L/∂out. One reverse sweep yields the layer
                    // adjoints of this node and of every sensitivity node
                    // that left its `ū` pending; the pair-leaf adjoint is
                    // the kernel the taped gradient op runs.
                    let mut embeds = self.embeds.borrow_mut();
                    let record = &mut embeds[rec as usize];
                    let pending = std::mem::take(&mut record.pending);
                    if record.wants_layers(&useful) {
                        let seeds: Vec<fused::SensSeed<'_>> = pending
                            .iter()
                            .map(|(ubar, gv)| fused::SensSeed {
                                g: nodes[gv.idx].value.data(),
                                ubar: ubar.data(),
                            })
                            .collect();
                        let tangent = record.tangent.as_ref().map_or(&[][..], |t| t.data());
                        self.embed_layer_adjoints(&nodes, record, &useful, &mut adjoint, |net, grads| {
                            fused::embed_back(
                                record.list.n_pairs(),
                                net,
                                record.stash.data(),
                                &record.rows,
                                tangent,
                                g.data(),
                                &seeds,
                                record.inv_avg,
                                record.inv_dstd,
                                grads,
                            );
                        });
                    }
                    for (ubar, _) in pending {
                        self.recycle(ubar);
                    }
                    drop(embeds);
                    if useful[pairs.idx] {
                        let u = self.val_embed_sens(&nodes, rec as usize, &g);
                        acc(pairs, u, &mut adjoint);
                    }
                }
                Op::EmbedPoolGrad { g: gv, pool } => {
                    // `g` is ū = ∂L/∂u. The adjoint of the node's input is
                    // a scatter; its parameter adjoints are folded into
                    // the pool node's sweep (same layers, same stash), so
                    // `ū` waits there and the pool node is made sure to be
                    // visited.
                    let mut embeds = self.embeds.borrow_mut();
                    let record = &mut embeds[Tape::embed_rec(&nodes, pool)];
                    if useful[gv.idx] {
                        let gval = &nodes[gv.idx].value;
                        let tangent = record.tangent.as_ref().expect("sensitivity pass left tangents");
                        let mut gbar = self.alloc_zeroed(gval.len());
                        Tape::with_net(&nodes, &record.layers, record.act, |net| {
                            fused::embed_sens_gbar(
                                net,
                                record.stash.data(),
                                &record.rows,
                                tangent.data(),
                                g.data(),
                                record.inv_avg,
                                record.inv_dstd,
                                &mut gbar,
                            );
                        });
                        acc(gv, gbar.into_tensor(gval.shape()), &mut adjoint);
                    }
                    if record.wants_layers(&useful) {
                        record.pending.push((g.clone(), gv));
                        if adjoint[pool.idx].is_none() {
                            let shape = nodes[pool.idx].value.shape();
                            adjoint[pool.idx] =
                                Some(self.alloc_zeroed(shape.len()).into_tensor(shape));
                        }
                    }
                }
                Op::ForceAssemble { rec } => {
                    let forces = self.forces.borrow();
                    for (u, list) in &forces[rec as usize] {
                        if useful[u.idx] {
                            let mut ubar = self.alloc(list.n_pairs());
                            fused::force_assemble_back(list, g.data(), &mut ubar);
                            acc(*u, ubar.into_tensor(Shape::D1(list.n_pairs())), &mut adjoint);
                        }
                    }
                }
                Op::SumAll(a) => {
                    if useful[a.idx] {
                        let shape = nodes[a.idx].value.shape();
                        let mut out = self.alloc(shape.len());
                        out.fill(g.item());
                        acc(a, out.into_tensor(shape), &mut adjoint);
                    }
                }
                Op::SumRows(a) => {
                    if useful[a.idx] {
                        let n = nodes[a.idx].value.shape().rows();
                        let k = g.len();
                        let mut out = self.alloc(n * k);
                        for row in out.chunks_exact_mut(k.max(1)) {
                            row.copy_from_slice(g.data());
                        }
                        acc(a, out.into_tensor(Shape::D2(n, k)), &mut adjoint);
                    }
                }
                Op::BroadcastRows(a, _) => {
                    if useful[a.idx] {
                        let gs = self.val_sum_rows(&g);
                        acc(a, gs, &mut adjoint);
                    }
                }
                Op::BroadcastScalar(a, _) => {
                    if useful[a.idx] {
                        let mut gs = self.alloc(1);
                        gs[0] = g.sum();
                        acc(a, gs.into_tensor(Shape::D1(1)), &mut adjoint);
                    }
                }
                Op::GatherRows(a, id) => {
                    if useful[a.idx] {
                        let ashape = nodes[a.idx].value.shape();
                        let c = ashape.cols();
                        let idx = self.indices(id);
                        let mut out = self.alloc_zeroed(ashape.len());
                        crate::simd::scatter_add_rows(g.data(), c, &idx, &mut out);
                        acc(a, out.into_tensor(ashape), &mut adjoint);
                    }
                }
                Op::ScatterAddRows(a, id, _) => {
                    if useful[a.idx] {
                        let ashape = nodes[a.idx].value.shape();
                        let c = ashape.cols();
                        let idx = self.indices(id);
                        let mut out = self.alloc(ashape.len());
                        crate::simd::gather_rows(g.data(), c, &idx, &mut out);
                        acc(a, out.into_tensor(ashape), &mut adjoint);
                    }
                }
                Op::MulColVec(m, v) => {
                    if useful[m.idx] {
                        let gm = self.val_mul_col_vec(&g, &nodes[v.idx].value);
                        acc(m, gm, &mut adjoint);
                    }
                    if useful[v.idx] {
                        let mv = &nodes[m.idx].value;
                        let (r, c) = (mv.shape().rows(), mv.shape().cols());
                        let mut gv = self.alloc(r);
                        crate::simd::rowwise_dot(g.data(), mv.data(), c, &mut gv);
                        acc(v, gv.into_tensor(Shape::D1(r)), &mut adjoint);
                    }
                }
                Op::RowwiseDot(a, b) => {
                    if useful[a.idx] {
                        let ga = self.val_mul_col_vec(&nodes[b.idx].value, &g);
                        acc(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.val_mul_col_vec(&nodes[a.idx].value, &g);
                        acc(b, gb, &mut adjoint);
                    }
                }
                Op::Reshape(a, _) => {
                    if useful[a.idx] {
                        let gr = g.reshape(nodes[a.idx].value.shape());
                        acc(a, gr, &mut adjoint);
                    }
                }
            }
            if is_target[i] {
                adjoint[i] = Some(g);
            } else {
                self.recycle(g);
            }
        }

        let out: Vec<Tensor> = wrt
            .iter()
            .map(|v| match &adjoint[v.idx] {
                Some(t) => t.clone(),
                None => self
                    .alloc_zeroed(nodes[v.idx].value.len())
                    .into_tensor(nodes[v.idx].value.shape()),
            })
            .collect();
        for slot in adjoint.into_iter().flatten() {
            self.recycle(slot);
        }
        out
    }

    /// Reverse-mode gradients of `sum(y)` with respect to each entry in `wrt`.
    ///
    /// The returned gradients are ordinary tape variables, so calling `grad`
    /// on an expression built from them yields correct second-order
    /// derivatives. Variables that `y` does not depend on receive zero
    /// gradients of the appropriate shape. When only first-order *values*
    /// are needed, [`Tape::grad_values`] computes the identical numbers
    /// without growing the tape.
    pub fn grad(&self, y: Var, wrt: &[Var]) -> Vec<Var> {
        let limit = y.idx + 1;
        let useful = {
            let nodes = self.nodes.borrow();
            self.useful_mask(&nodes, limit, wrt)
        };
        let mut adjoint: Vec<Option<Var>> = vec![None; limit];
        let seed_shape = self.shape(y);
        adjoint[y.idx] = Some(self.constant(Tensor::ones(seed_shape)));

        for i in (0..limit).rev() {
            let Some(g) = adjoint[i] else { continue };
            // `Op` is `Copy`: reading it is a load, not a clone.
            let op = self.nodes.borrow()[i].op;
            let accumulate = |slot: Var, contribution: Var, adjoint: &mut Vec<Option<Var>>| {
                let entry = &mut adjoint[slot.idx];
                *entry = Some(match *entry {
                    None => contribution,
                    Some(existing) => self.add(existing, contribution),
                });
            };
            match op {
                Op::Const => {}
                Op::Add(a, b) => {
                    if useful[a.idx] {
                        accumulate(a, g, &mut adjoint);
                    }
                    if useful[b.idx] {
                        accumulate(b, g, &mut adjoint);
                    }
                }
                Op::Sub(a, b) => {
                    if useful[a.idx] {
                        accumulate(a, g, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let ng = self.neg(g);
                        accumulate(b, ng, &mut adjoint);
                    }
                }
                Op::Mul(a, b) => {
                    if useful[a.idx] {
                        let ga = self.mul(g, b);
                        accumulate(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.mul(g, a);
                        accumulate(b, gb, &mut adjoint);
                    }
                }
                Op::Neg(a) => {
                    if useful[a.idx] {
                        let ng = self.neg(g);
                        accumulate(a, ng, &mut adjoint);
                    }
                }
                Op::Scale(a, c) => {
                    if useful[a.idx] {
                        let gs = self.scale(g, c);
                        accumulate(a, gs, &mut adjoint);
                    }
                }
                Op::AddScalar(a, _) => {
                    if useful[a.idx] {
                        accumulate(a, g, &mut adjoint);
                    }
                }
                Op::AddBias(m, bias) => {
                    if useful[m.idx] {
                        accumulate(m, g, &mut adjoint);
                    }
                    if useful[bias.idx] {
                        let gb = self.sum_rows(g);
                        accumulate(bias, gb, &mut adjoint);
                    }
                }
                Op::Matmul(a, b) => {
                    // d(A@B): dA = g @ Bᵀ, dB = Aᵀ @ g — via the transposed
                    // kernels, so no transpose is ever materialised.
                    if useful[a.idx] {
                        let ga = self.matmul_nt(g, b);
                        accumulate(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.matmul_tn(a, g);
                        accumulate(b, gb, &mut adjoint);
                    }
                }
                Op::MatmulNT(a, b) => {
                    // C = A @ Bᵀ: dA = g @ B, dB = gᵀ @ A.
                    if useful[a.idx] {
                        let ga = self.matmul(g, b);
                        accumulate(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.matmul_tn(g, a);
                        accumulate(b, gb, &mut adjoint);
                    }
                }
                Op::MatmulTN(a, b) => {
                    // C = Aᵀ @ B: dA = B @ gᵀ, dB = A @ g.
                    if useful[a.idx] {
                        let ga = self.matmul_nt(b, g);
                        accumulate(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.matmul(a, g);
                        accumulate(b, gb, &mut adjoint);
                    }
                }
                Op::Transpose(a) => {
                    if useful[a.idx] {
                        let gt = self.transpose(g);
                        accumulate(a, gt, &mut adjoint);
                    }
                }
                Op::Unary(k, x) => {
                    if useful[x.idx] {
                        let d = self.unary_derivative(k, x, Var { idx: i });
                        let gx = self.mul(g, d);
                        accumulate(x, gx, &mut adjoint);
                    }
                }
                Op::Affine { x, w, b, act } => {
                    // gm = g ∘ act'(y) pulled back through the bias add,
                    // then the two matmul adjoints via transposed kernels.
                    if useful[x.idx] || useful[w.idx] || useful[b.idx] {
                        let gm = match act {
                            Some(k) => self.act_back(g, Var { idx: i }, k),
                            None => g,
                        };
                        if useful[x.idx] {
                            let gx = self.matmul_nt(gm, w);
                            accumulate(x, gx, &mut adjoint);
                        }
                        if useful[w.idx] {
                            let gw = self.matmul_tn(x, gm);
                            accumulate(w, gw, &mut adjoint);
                        }
                        if useful[b.idx] {
                            let gb = self.sum_rows(gm);
                            accumulate(b, gb, &mut adjoint);
                        }
                    }
                }
                Op::ActBack { g: gg, y, act } => {
                    // out = gg ∘ act'(y). The gg-adjoint recreates the
                    // derivative chain; the y-adjoint mirrors, node for
                    // node, the chain the decomposed backward would have
                    // differentiated, so roundings are unchanged.
                    if useful[gg.idx] {
                        let d = self.activation_derivative_from_output(act, y);
                        let c = self.mul(g, d);
                        accumulate(gg, c, &mut adjoint);
                    }
                    if useful[y.idx] {
                        let gd = self.mul(g, gg);
                        match act {
                            // act'(y) = 1 - y² ⇒ d/dy = -2y.
                            Unary::Tanh => {
                                let c = self.mul(gd, self.scale(y, -2.0));
                                accumulate(y, c, &mut adjoint);
                            }
                            // act'(y) = y(1-y) ⇒ the product-rule pair.
                            Unary::Sigmoid => {
                                let t = self.add_scalar(self.scale(y, -1.0), 1.0);
                                let c = self.add(
                                    self.mul(gd, t),
                                    self.scale(self.mul(gd, y), -1.0),
                                );
                                accumulate(y, c, &mut adjoint);
                            }
                            // act'(y) = 1 - e⁻ʸ ⇒ d/dy = e⁻ʸ, chained
                            // through the same neg/exp/neg node shapes.
                            Unary::Softplus => {
                                let e = self.exp(self.neg(y));
                                let c = self.neg(self.mul(self.neg(gd), e));
                                accumulate(y, c, &mut adjoint);
                            }
                            // Step-function factors: second derivative is
                            // zero almost everywhere, matching the None
                            // contribution of the decomposed step nodes.
                            Unary::Relu | Unary::Relu6 => {}
                            _ => panic!("affine fusion only supports MLP activations, got {act:?}"),
                        }
                    }
                }
                Op::EmbedPool { pairs, rec } => {
                    assert!(
                        !self.embeds.borrow()[rec as usize].wants_layers(&useful),
                        "Tape::grad cannot record the layer adjoints of embed_pool as taped \
                         ops; use Tape::grad_values for parameter gradients"
                    );
                    if useful[pairs.idx] {
                        let u = self.embed_pool_grad(g, Var { idx: i });
                        accumulate(pairs, u, &mut adjoint);
                    }
                }
                Op::EmbedPoolGrad { g: gv, pool } => {
                    assert!(
                        !(useful[gv.idx] || useful[pool.idx]),
                        "Tape::grad through embed_pool_grad would be a third-order taped \
                         derivative, which is not implemented; its adjoints exist only at \
                         value level (Tape::grad_values)"
                    );
                }
                Op::ForceAssemble { rec } => {
                    let any = self.forces.borrow()[rec as usize].iter().any(|(u, _)| useful[u.idx]);
                    assert!(
                        !any,
                        "Tape::grad cannot record the adjoint of force_assemble as a taped op; \
                         use Tape::grad_values"
                    );
                }
                Op::SumAll(a) => {
                    if useful[a.idx] {
                        let shape = self.shape(a);
                        let gb = self.broadcast_scalar(g, shape);
                        accumulate(a, gb, &mut adjoint);
                    }
                }
                Op::SumRows(a) => {
                    if useful[a.idx] {
                        let n = self.shape(a).rows();
                        let gb = self.broadcast_rows(g, n);
                        accumulate(a, gb, &mut adjoint);
                    }
                }
                Op::BroadcastRows(a, _) => {
                    if useful[a.idx] {
                        let gs = self.sum_rows(g);
                        accumulate(a, gs, &mut adjoint);
                    }
                }
                Op::BroadcastScalar(a, _) => {
                    if useful[a.idx] {
                        let gs = self.sum_all(g);
                        accumulate(a, gs, &mut adjoint);
                    }
                }
                Op::GatherRows(a, id) => {
                    if useful[a.idx] {
                        let n = self.shape(a).rows();
                        let gs = self.scatter_add_rows(g, self.indices(id), n);
                        accumulate(a, gs, &mut adjoint);
                    }
                }
                Op::ScatterAddRows(a, id, _) => {
                    if useful[a.idx] {
                        let gg = self.gather_rows(g, self.indices(id));
                        accumulate(a, gg, &mut adjoint);
                    }
                }
                Op::MulColVec(m, v) => {
                    if useful[m.idx] {
                        let gm = self.mul_col_vec(g, v);
                        accumulate(m, gm, &mut adjoint);
                    }
                    if useful[v.idx] {
                        let gv = self.rowwise_dot(g, m);
                        accumulate(v, gv, &mut adjoint);
                    }
                }
                Op::RowwiseDot(a, b) => {
                    if useful[a.idx] {
                        let ga = self.mul_col_vec(b, g);
                        accumulate(a, ga, &mut adjoint);
                    }
                    if useful[b.idx] {
                        let gb = self.mul_col_vec(a, g);
                        accumulate(b, gb, &mut adjoint);
                    }
                }
                Op::Reshape(a, _) => {
                    if useful[a.idx] {
                        let shape = self.shape(a);
                        let gr = self.reshape(g, shape);
                        accumulate(a, gr, &mut adjoint);
                    }
                }
            }
        }

        wrt.iter()
            .map(|v| {
                assert!(v.idx < limit, "grad target created after output variable");
                adjoint[v.idx].unwrap_or_else(|| self.zeros_like(*v))
            })
            .collect()
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(&[f64]) -> f64, x: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                let mut xm = x.to_vec();
                xp[i] += h;
                xm[i] -= h;
                (f(&xp) - f(&xm)) / (2.0 * h)
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn bulk_tanh_matches_libm() {
        // Dense sweep plus edge cases: the vectorized slice path must stay
        // within 5e-16 of libm tanh and handle saturation/NaN exactly.
        let mut xs: Vec<f64> = (-4000..=4000).map(|i| i as f64 * 0.005).collect();
        xs.extend([
            0.0, -0.0, 1e-300, -1e-300, 1e-18, 19.0, 20.0, 40.0, 1e6, -1e6,
            f64::INFINITY, f64::NEG_INFINITY,
        ]);
        let mut ys = xs.clone();
        Unary::Tanh.eval_slice(&mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            let want = x.tanh();
            assert!(
                (y - want).abs() <= 5e-16,
                "tanh({x}): slice {y} vs libm {want}"
            );
        }
        let mut nan = [f64::NAN];
        Unary::Tanh.eval_slice(&mut nan);
        assert!(nan[0].is_nan());
        assert_eq!(ys[xs.iter().position(|&x| x == 1e6).unwrap()], 1.0);
        assert_eq!(ys[xs.iter().position(|&x| x.is_infinite() && x < 0.0).unwrap()], -1.0);
    }

    #[test]
    fn grad_of_simple_polynomial() {
        // y = sum(x² + 3x), dy/dx = 2x + 3.
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[1.0, -2.0, 0.5]));
        let y = t.sum_all(t.add(t.square(x), t.scale(x, 3.0)));
        let g = t.grad(y, &[x]);
        assert_eq!(t.value(g[0]).data(), &[5.0, -1.0, 4.0]);
    }

    #[test]
    fn grad_matches_finite_difference_mlp() {
        // One hidden layer net, all five paper activations.
        for act in [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Relu, Unary::Relu6] {
            let w_data = [0.3, -0.2, 0.5, 0.7, -0.4, 0.1];
            let eval = |w: &[f64]| -> f64 {
                let t = Tape::new();
                let x = t.constant(Tensor::matrix(2, 2, vec![0.4, -1.2, 2.5, 0.3]));
                let w1 = t.constant(Tensor::matrix(2, 2, w[..4].to_vec()));
                let b1 = t.constant(Tensor::vector(&w[4..6]));
                let h = t.unary(act, t.add_bias(t.matmul(x, w1), b1));
                t.item(t.sum_all(t.square(h)))
            };
            let t = Tape::new();
            let x = t.constant(Tensor::matrix(2, 2, vec![0.4, -1.2, 2.5, 0.3]));
            let w1 = t.constant(Tensor::matrix(2, 2, w_data[..4].to_vec()));
            let b1 = t.constant(Tensor::vector(&w_data[4..6]));
            let h = t.unary(act, t.add_bias(t.matmul(x, w1), b1));
            let y = t.sum_all(t.square(h));
            let g = t.grad(y, &[w1, b1]);
            let fd = finite_diff(eval, &w_data);
            let mut analytic = t.value(g[0]).into_data();
            analytic.extend(t.value(g[1]).into_data());
            assert_close(&analytic, &fd, 1e-5);
        }
    }

    #[test]
    fn fused_affine_matches_unfused_composition() {
        // Same MLP as above, but through the fused layer op: value and
        // weight gradients must agree with matmul/add_bias/unary.
        for act in [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Relu, Unary::Relu6] {
            let w_data = [0.3, -0.2, 0.5, 0.7, -0.4, 0.1];
            let t = Tape::new();
            let x = t.constant(Tensor::matrix(2, 2, vec![0.4, -1.2, 2.5, 0.3]));
            let w1 = t.constant(Tensor::matrix(2, 2, w_data[..4].to_vec()));
            let b1 = t.constant(Tensor::vector(&w_data[4..6]));
            let fused = t.affine(x, w1, b1, Some(act));
            let unfused = t.unary(act, t.add_bias(t.matmul(x, w1), b1));
            assert_eq!(t.value(fused), t.value(unfused), "{act:?} forward");
            let yf = t.sum_all(t.square(fused));
            let yu = t.sum_all(t.square(unfused));
            let gf = t.grad(yf, &[w1, b1]);
            let gu = t.grad(yu, &[w1, b1]);
            for (a, b) in gf.iter().zip(gu.iter()) {
                assert_close(t.value(*a).data(), t.value(*b).data(), 1e-12);
            }
        }
    }

    #[test]
    fn linear_affine_matches_matmul_plus_bias() {
        let t = Tape::new();
        let x = t.constant(Tensor::matrix(2, 3, vec![0.4, -1.2, 2.5, 0.3, 1.1, -0.7]));
        let w = t.constant(Tensor::matrix(3, 2, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]));
        let b = t.constant(Tensor::vector(&[0.25, -0.5]));
        let fused = t.affine(x, w, b, None);
        let unfused = t.add_bias(t.matmul(x, w), b);
        assert_eq!(t.value(fused), t.value(unfused));
        let g = t.grad(t.sum_all(t.square(fused)), &[x, w, b]);
        let gu = t.grad(t.sum_all(t.square(unfused)), &[x, w, b]);
        for (a, b) in g.iter().zip(gu.iter()) {
            assert_close(t.value(*a).data(), t.value(*b).data(), 1e-12);
        }
    }

    #[test]
    fn transposed_matmul_gradients_match_explicit_transpose() {
        let a0 = Tensor::matrix(2, 3, vec![1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let b0 = Tensor::matrix(4, 3, (0..12).map(|v| v as f64 * 0.25 - 1.0).collect());
        // NT: a @ b0ᵀ versus a @ transpose(b0).
        let t = Tape::new();
        let a = t.constant(a0.clone());
        let b = t.constant(b0.clone());
        let nt = t.matmul_nt(a, b);
        let explicit = t.matmul(a, t.transpose(b));
        assert_eq!(t.value(nt), t.value(explicit));
        let g = t.grad(t.sum_all(t.square(nt)), &[a, b]);
        let ge = t.grad(t.sum_all(t.square(explicit)), &[a, b]);
        assert_close(t.value(g[0]).data(), t.value(ge[0]).data(), 1e-12);
        assert_close(t.value(g[1]).data(), t.value(ge[1]).data(), 1e-12);
        // TN: b0ᵀ @ c versus transpose(b0) @ c.
        let t2 = Tape::new();
        let b2 = t2.constant(b0);
        let c = t2.constant(Tensor::matrix(4, 2, (0..8).map(|v| (v as f64).cos()).collect()));
        let tn = t2.matmul_tn(b2, c);
        let explicit2 = t2.matmul(t2.transpose(b2), c);
        assert_eq!(t2.value(tn), t2.value(explicit2));
        let g2 = t2.grad(t2.sum_all(t2.square(tn)), &[b2, c]);
        let ge2 = t2.grad(t2.sum_all(t2.square(explicit2)), &[b2, c]);
        assert_close(t2.value(g2[0]).data(), t2.value(ge2[0]).data(), 1e-12);
        assert_close(t2.value(g2[1]).data(), t2.value(ge2[1]).data(), 1e-12);
    }

    #[test]
    fn affine_double_backward_matches_unfused() {
        // Force-matching shape: E built through a fused layer, F = -dE/dx,
        // then d(sum F²)/dw — second-order through the fused backward.
        for act in [Unary::Tanh, Unary::Sigmoid, Unary::Softplus] {
            let run = |fused: bool| -> (Vec<f64>, Vec<f64>) {
                let t = Tape::new();
                let x = t.constant(Tensor::matrix(1, 2, vec![0.5, -1.0]));
                let w1 = t.constant(Tensor::matrix(2, 2, vec![0.2, -0.6, 0.4, 0.9]));
                let b1 = t.constant(Tensor::vector(&[0.1, -0.3]));
                let w2 = t.constant(Tensor::matrix(2, 1, vec![0.1, -0.3]));
                let h = if fused {
                    t.affine(x, w1, b1, Some(act))
                } else {
                    t.unary(act, t.add_bias(t.matmul(x, w1), b1))
                };
                let e = t.sum_all(t.matmul(h, w2));
                let f = t.neg(t.grad(e, &[x])[0]);
                let l = t.sum_all(t.square(f));
                let g = t.grad(l, &[w1, b1]);
                (t.value(g[0]).into_data(), t.value(g[1]).into_data())
            };
            let (gw_f, gb_f) = run(true);
            let (gw_u, gb_u) = run(false);
            assert_close(&gw_f, &gw_u, 1e-10);
            assert_close(&gb_f, &gb_u, 1e-10);
        }
    }

    #[test]
    fn reset_recycles_buffers_and_preserves_results() {
        let t = Tape::new();
        let run = |t: &Tape| -> Vec<f64> {
            let x = t.constant(Tensor::matrix(2, 2, vec![0.4, -1.2, 2.5, 0.3]));
            let w = t.constant(Tensor::matrix(2, 2, vec![0.3, -0.2, 0.5, 0.7]));
            let b = t.constant(Tensor::vector(&[-0.4, 0.1]));
            let h = t.affine(x, w, b, Some(Unary::Tanh));
            let y = t.sum_all(t.square(h));
            let g = t.grad(y, &[w]);
            t.value(g[0]).into_data()
        };
        let first = run(&t);
        let nodes_first = t.len();
        t.reset();
        assert_eq!(t.len(), 0);
        assert!(t.pooled_buffers() > 0, "reset should recycle value buffers");
        // An identical second pass reuses the arena and reproduces the
        // result bit-for-bit.
        let second = run(&t);
        assert_eq!(t.len(), nodes_first);
        assert_eq!(first, second);
    }

    #[test]
    fn alloc_metering_counts_hits_misses_and_bytes() {
        let t = Tape::new();
        let run = |t: &Tape| {
            let x = t.constant(Tensor::matrix(2, 2, vec![0.4, -1.2, 2.5, 0.3]));
            let w = t.constant(Tensor::matrix(2, 2, vec![0.3, -0.2, 0.5, 0.7]));
            let y = t.sum_all(t.square(t.matmul(x, w)));
            t.value(y).into_data()
        };
        assert!(!t.alloc_metering());
        t.set_alloc_metering(true);
        let unmetered_result = {
            let u = Tape::new();
            run(&u)
        };
        let first = run(&t);
        assert_eq!(first, unmetered_result, "metering must not perturb values");
        t.reset();
        let cold = t.take_alloc_stats();
        assert_eq!(cold.leases, cold.pool_hits + cold.pool_misses);
        assert!(cold.pool_misses > 0, "cold pass allocates fresh");
        assert!(cold.fresh_bytes > 0);
        assert!(cold.leased_bytes_hw >= cold.fresh_bytes);
        assert!(t.retained_bytes() > 0, "reset retains capacity in the pool");
        let second = run(&t);
        t.reset();
        assert_eq!(first, second);
        let warm = t.take_alloc_stats();
        assert_eq!(warm.pool_misses, 0, "warm pass runs allocation-free");
        assert_eq!(warm.pool_hits, cold.leases);
    }

    #[test]
    fn op_census_labels_every_kernel_deterministically() {
        let t = Tape::new();
        let x = t.constant(Tensor::matrix(2, 2, vec![0.4, -1.2, 2.5, 0.3]));
        let w = t.constant(Tensor::matrix(2, 2, vec![0.3, -0.2, 0.5, 0.7]));
        let b = t.constant(Tensor::vector(&[-0.4, 0.1]));
        let start = t.len();
        let h = t.affine(x, w, b, Some(Unary::Tanh));
        let _ = t.sum_all(t.square(h));
        let census = t.op_census(start..t.len());
        assert_eq!(census, vec![("affine", 1), ("square", 1), ("sum_all", 1)]);
        let full = t.op_census(0..t.len());
        assert!(full.contains(&("const", 3)));
        assert_eq!(full.iter().map(|(_, c)| c).sum::<usize>(), t.len());
    }

    #[test]
    fn grad_values_matches_taped_grad_bitwise() {
        // The value-level backward must reproduce the taped backward
        // bit-for-bit over a graph exercising every hot-path op: fused
        // affine layers, an inner (taped) force gradient, gather/scatter,
        // col-vec scaling, and the force-matching loss shape.
        let t = Tape::new();
        for act in [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Relu, Unary::Relu6] {
            let x = t.constant(Tensor::matrix(3, 2, vec![0.4, -1.2, 2.5, 0.3, -0.7, 1.1]));
            let w1 =
                t.constant(Tensor::matrix(2, 4, (0..8).map(|i| 0.25 - 0.07 * i as f64).collect()));
            let b1 = t.constant(Tensor::vector(&[0.1, -0.2, 0.05, 0.3]));
            let w2 = t.constant(Tensor::matrix(4, 1, vec![0.4, -0.1, 0.2, 0.6]));
            let b2 = t.constant(Tensor::vector(&[0.02]));
            let s = t.constant(Tensor::vector(&[0.9, 0.5, 1.3]));
            let h = t.affine(x, w1, b1, Some(act));
            let weighted = t.mul_col_vec(h, s);
            let idx: Rc<[usize]> = Rc::from(vec![0usize, 1, 1]);
            let pooled = t.scatter_add_rows(weighted, Rc::clone(&idx), 2);
            let picked = t.gather_rows(pooled, Rc::from(vec![0usize, 1, 0]));
            let e = t.sum_all(t.affine(picked, w2, b2, None));
            // Inner taped gradient (the force path) — the outer backward
            // must traverse these adjoint nodes too.
            let fx = t.grad(e, &[x])[0];
            let loss = t.add(t.sum_all(t.square(fx)), e);
            let wrt = [w1, b1, w2, b2, x, s];
            let taped: Vec<Tensor> = t.grad(loss, &wrt).iter().map(|&g| t.value(g)).collect();
            let before = t.len();
            let values = t.grad_values(loss, &wrt);
            assert_eq!(t.len(), before, "grad_values must not record nodes");
            for (a, b) in values.iter().zip(taped.iter()) {
                assert_eq!(a.shape(), b.shape());
                assert_eq!(a.data(), b.data(), "{act:?}");
            }
            t.reset();
        }
    }

    #[test]
    fn grad_values_zero_for_unused_and_duplicate_targets() {
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[1.0, 2.0]));
        let unused = t.constant(Tensor::matrix(2, 2, vec![1.0; 4]));
        let y = t.sum_all(t.square(x));
        let g = t.grad_values(y, &[x, unused, x]);
        assert_eq!(g[0].data(), &[2.0, 4.0]);
        assert_eq!(g[1].shape(), Shape::D2(2, 2));
        assert!(g[1].data().iter().all(|&v| v == 0.0));
        assert_eq!(g[2].data(), g[0].data(), "duplicate targets get the same gradient");
    }

    #[test]
    fn reset_leaves_externally_held_values_untouched() {
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[1.0, 2.0, 3.0]));
        let y = t.scale(x, 2.0);
        let kept = t.value(y);
        t.reset();
        // The extracted tensor still owns its buffer...
        assert_eq!(kept.data(), &[2.0, 4.0, 6.0]);
        // ...and a new op of the same size must not clobber it.
        let z = t.constant(Tensor::vector(&[9.0, 9.0, 9.0]));
        let _ = t.scale(z, 1.0);
        assert_eq!(kept.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_scatter_gradients() {
        // y = sum(gather(x, [0,0,2])²); dy/dx0 counts both gathers of row 0.
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[2.0, 5.0, -1.0]));
        let idx: Rc<[usize]> = Rc::from(vec![0usize, 0, 2]);
        let g1 = t.gather_rows(x, idx);
        let y = t.sum_all(t.square(g1));
        let g = t.grad(y, &[x]);
        assert_eq!(t.value(g[0]).data(), &[8.0, 0.0, -2.0]);
    }

    #[test]
    fn mul_col_vec_and_rowwise_dot_gradients() {
        let m0 = [1.0, 2.0, 3.0, 4.0];
        let v0 = [0.5, -1.5];
        let eval = |p: &[f64]| -> f64 {
            let t = Tape::new();
            let m = t.constant(Tensor::matrix(2, 2, p[..4].to_vec()));
            let v = t.constant(Tensor::vector(&p[4..6]));
            let s = t.mul_col_vec(m, v);
            let d = t.rowwise_dot(s, m);
            t.item(t.sum_all(t.square(d)))
        };
        let t = Tape::new();
        let m = t.constant(Tensor::matrix(2, 2, m0.to_vec()));
        let v = t.constant(Tensor::vector(&v0));
        let s = t.mul_col_vec(m, v);
        let d = t.rowwise_dot(s, m);
        let y = t.sum_all(t.square(d));
        let g = t.grad(y, &[m, v]);
        let mut p = m0.to_vec();
        p.extend_from_slice(&v0);
        let fd = finite_diff(eval, &p);
        let mut analytic = t.value(g[0]).into_data();
        analytic.extend(t.value(g[1]).into_data());
        assert_close(&analytic, &fd, 1e-5);
    }

    #[test]
    fn double_backward_cubic() {
        // y = sum(x³) → dy/dx = 3x² → d²y/dx² (diag) = 6x.
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[1.5, -0.5, 2.0]));
        let y = t.sum_all(t.mul(t.square(x), x));
        let g = t.grad(y, &[x])[0];
        // Differentiating sum(g) gives the Hessian row sums = 6x for a
        // diagonal Hessian.
        let sg = t.sum_all(g);
        let h = t.grad(sg, &[x])[0];
        assert_close(t.value(h).data(), &[9.0, -3.0, 12.0], 1e-12);
    }

    #[test]
    fn double_backward_through_tanh() {
        // f = tanh(x); check d²f/dx² = -2 tanh (1 - tanh²) via double grad.
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[0.7]));
        let y = t.sum_all(t.tanh(x));
        let g = t.grad(y, &[x])[0];
        let h = t.grad(t.sum_all(g), &[x])[0];
        let v: f64 = 0.7;
        let expected = -2.0 * v.tanh() * (1.0 - v.tanh() * v.tanh());
        assert_close(t.value(h).data(), &[expected], 1e-12);
    }

    #[test]
    fn force_matching_style_second_order() {
        // The critical DNNP pattern: E = net(x); F = -dE/dx;
        // L = sum((F - F*)²); dL/dw checked against finite differences of L.
        let w0 = [0.2, -0.6, 0.4, 0.9, 0.1, -0.3];
        let x0 = [0.5, -1.0];
        let f_star = [0.3, -0.2];
        let loss = |w: &[f64]| -> f64 {
            let t = Tape::new();
            let x = t.constant(Tensor::matrix(1, 2, x0.to_vec()));
            let w1 = t.constant(Tensor::matrix(2, 2, w[..4].to_vec()));
            let w2 = t.constant(Tensor::matrix(2, 1, w[4..6].to_vec()));
            let e = t.sum_all(t.matmul(t.tanh(t.matmul(x, w1)), w2));
            let de_dx = t.grad(e, &[x])[0];
            let f = t.neg(de_dx);
            let fs = t.constant(Tensor::matrix(1, 2, f_star.to_vec()));
            t.item(t.sum_all(t.square(t.sub(f, fs))))
        };
        let t = Tape::new();
        let x = t.constant(Tensor::matrix(1, 2, x0.to_vec()));
        let w1 = t.constant(Tensor::matrix(2, 2, w0[..4].to_vec()));
        let w2 = t.constant(Tensor::matrix(2, 1, w0[4..6].to_vec()));
        let e = t.sum_all(t.matmul(t.tanh(t.matmul(x, w1)), w2));
        let de_dx = t.grad(e, &[x])[0];
        let f = t.neg(de_dx);
        let fs = t.constant(Tensor::matrix(1, 2, f_star.to_vec()));
        let l = t.sum_all(t.square(t.sub(f, fs)));
        let grads = t.grad(l, &[w1, w2]);
        let mut analytic = t.value(grads[0]).into_data();
        analytic.extend(t.value(grads[1]).into_data());
        let fd = finite_diff(loss, &w0);
        assert_close(&analytic, &fd, 1e-4);
    }

    #[test]
    fn grad_of_independent_variable_is_zero() {
        let t = Tape::new();
        let x = t.constant(Tensor::vector(&[1.0]));
        let z = t.constant(Tensor::vector(&[4.0, 4.0]));
        let y = t.sum_all(t.square(x));
        let g = t.grad(y, &[z]);
        assert_eq!(t.value(g[0]).data(), &[0.0, 0.0]);
    }

    #[test]
    fn switching_function_composition_is_differentiable() {
        // s(r) = (1/r)·p(clamp01(u)), u = (r-rmin)/(rmax-rmin),
        // p(u) = 1 + u³(-6u² + 15u - 10) — smooth from 1/r to 0.
        let rmin = 2.0;
        let rmax = 6.0;
        let s_of = |r: f64| -> f64 {
            let u = ((r - rmin) / (rmax - rmin)).clamp(0.0, 1.0);
            (1.0 / r) * (1.0 + u * u * u * (-6.0 * u * u + 15.0 * u - 10.0))
        };
        let t = Tape::new();
        let r = t.constant(Tensor::vector(&[1.0, 3.0, 5.9, 7.0]));
        let u = t.clamp01(t.scale(t.add_scalar(r, -rmin), 1.0 / (rmax - rmin)));
        let u3 = t.mul(t.square(u), u);
        let poly = t.add_scalar(
            t.mul(
                u3,
                t.add_scalar(
                    t.add(t.scale(t.square(u), -6.0), t.scale(u, 15.0)),
                    -10.0,
                ),
            ),
            1.0,
        );
        let s = t.mul(t.recip(r), poly);
        let vals = t.value(s);
        for (i, &rv) in [1.0, 3.0, 5.9, 7.0].iter().enumerate() {
            assert!((vals.data()[i] - s_of(rv)).abs() < 1e-12);
        }
        // r < rmin behaves as 1/r; r > rmax is exactly zero.
        assert!((vals.data()[0] - 1.0).abs() < 1e-12);
        assert!(vals.data()[3].abs() < 1e-15);
        // And the whole thing is differentiable.
        let g = t.grad(t.sum_all(s), &[r]);
        let gv = t.value(g[0]);
        assert!((gv.data()[0] + 1.0).abs() < 1e-9); // d(1/r)/dr = -1 at r=1
        assert!(gv.data()[3].abs() < 1e-15);
    }
}
