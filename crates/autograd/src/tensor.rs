//! Dense `f64` tensors restricted to one and two dimensions.
//!
//! This is deliberately a small tensor type: the DNNP substrate only needs
//! vectors (per-pair scalars, per-atom scalars) and matrices (activations,
//! weights). Keeping the rank bounded keeps every operation allocation-lean
//! and easy to audit, per the workspace's HPC coding guides.
//!
//! The backing storage is a shared `Arc<Vec<f64>>`: cloning a tensor is a
//! reference-count bump, `reshape` aliases the same buffer, and mutation
//! goes through copy-on-write (`data_mut`), so the autograd tape can hand
//! out values without copying and recycle uniquely-owned buffers between
//! training steps.

use std::fmt;
use std::sync::Arc;

/// Shape of a [`Tensor`]: rank 1 (`[n]`) or rank 2 (`[rows, cols]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// A vector of length `n`.
    D1(usize),
    /// A row-major matrix with `rows × cols` elements.
    D2(usize, usize),
}

impl Shape {
    /// Total number of scalar elements.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            Shape::D1(n) => n,
            Shape::D2(r, c) => r * c,
        }
    }

    /// True when the shape holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows for a matrix, length for a vector.
    #[inline]
    pub fn rows(&self) -> usize {
        match *self {
            Shape::D1(n) => n,
            Shape::D2(r, _) => r,
        }
    }

    /// Columns for a matrix, `1` for a vector.
    #[inline]
    pub fn cols(&self) -> usize {
        match *self {
            Shape::D1(_) => 1,
            Shape::D2(_, c) => c,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Shape::D1(n) => write!(f, "[{n}]"),
            Shape::D2(r, c) => write!(f, "[{r}, {c}]"),
        }
    }
}

/// A dense, row-major, `f64` tensor of rank 1 or 2 with shared storage.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f64>>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{}, {}, …, {}]", self.data[0], self.data[1], self.data[self.data.len() - 1])
        }
    }
}

impl Tensor {
    /// Build a tensor from a shape and backing data; panics on length mismatch.
    pub fn new(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} does not match data length {}",
            data.len()
        );
        Tensor { shape, data: Arc::new(data) }
    }

    /// A vector tensor from a slice.
    pub fn vector(data: &[f64]) -> Self {
        Tensor::new(Shape::D1(data.len()), data.to_vec())
    }

    /// A matrix tensor from row-major data.
    pub fn matrix(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        Tensor::new(Shape::D2(rows, cols), data)
    }

    /// A scalar, represented as a length-1 vector.
    pub fn scalar(v: f64) -> Self {
        Tensor::new(Shape::D1(1), vec![v])
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        Tensor { shape, data: Arc::new(vec![0.0; shape.len()]) }
    }

    /// All-one tensor of the given shape.
    pub fn ones(shape: Shape) -> Self {
        Tensor { shape, data: Arc::new(vec![1.0; shape.len()]) }
    }

    /// Fill with a constant.
    pub fn full(shape: Shape, v: f64) -> Self {
        Tensor { shape, data: Arc::new(vec![v; shape.len()]) }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Flat element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing data (row-major). Copy-on-write: if the
    /// buffer is shared with another tensor, it is cloned first.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume into the backing vector (cloning only if the buffer is
    /// shared with another tensor).
    pub fn into_data(self) -> Vec<f64> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Build a tensor around an already-shared buffer without reallocating.
    /// Panics on length mismatch.
    pub(crate) fn from_shared(shape: Shape, data: Arc<Vec<f64>>) -> Self {
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} does not match data length {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Consume into the shared buffer only when this tensor is the sole
    /// owner — the tape's pool recycles the `Arc` allocation itself, so a
    /// recycled buffer costs no heap traffic when reused.
    pub(crate) fn try_unique_shared(mut self) -> Option<Arc<Vec<f64>>> {
        if Arc::get_mut(&mut self.data).is_some() {
            Some(self.data)
        } else {
            None
        }
    }

    /// The single value of a scalar tensor; panics if `len() != 1`.
    pub fn item(&self) -> f64 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar tensor {}", self.shape);
        self.data[0]
    }

    /// Matrix element access (row-major).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        let cols = self.shape.cols();
        self.data[r * cols + c]
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Reinterpret the data with a new shape of identical element count.
    /// Shares the backing buffer — no copy.
    pub fn reshape(&self, shape: Shape) -> Tensor {
        assert_eq!(self.shape.len(), shape.len(), "reshape {} -> {shape}", self.shape);
        Tensor { shape, data: Arc::clone(&self.data) }
    }

    /// Elementwise binary map; shapes must match exactly.
    fn zip_map(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch {} vs {}", self.shape, other.shape);
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor { shape: self.shape, data: Arc::new(data) }
    }

    /// Elementwise unary map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor { shape: self.shape, data: Arc::new(self.data.iter().map(|&a| f(a)).collect()) }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiply every element by `c`.
    pub fn scale(&self, c: f64) -> Tensor {
        self.map(|a| a * c)
    }

    /// Add `c` to every element.
    pub fn add_scalar(&self, c: f64) -> Tensor {
        self.map(|a| a + c)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Euclidean norm of the flattened data.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `[n,k] + [k]` row-broadcast addition (bias add).
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let (r, c) = match self.shape {
            Shape::D2(r, c) => (r, c),
            Shape::D1(n) => (1, n),
        };
        assert_eq!(bias.shape.len(), c, "bias length {} vs cols {c}", bias.shape.len());
        let _ = r;
        let mut data = vec![0.0; self.data.len()];
        crate::simd::add_bias(&self.data, c, &bias.data, &mut data);
        Tensor { shape: self.shape, data: Arc::new(data) }
    }

    fn matmul_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        let (m, k) = match self.shape {
            Shape::D2(m, k) => (m, k),
            Shape::D1(k) => (1, k),
        };
        let (k2, n) = match other.shape {
            Shape::D2(k2, n) => (k2, n),
            Shape::D1(k2) => (k2, 1),
        };
        assert_eq!(k, k2, "matmul inner-dim mismatch {} x {}", self.shape, other.shape);
        (m, k, n)
    }

    /// Matrix product `self @ other` for 2-D operands.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, _, n) = self.matmul_dims(other);
        let mut out = vec![0.0; m * n];
        self.matmul_into(other, &mut out);
        Tensor { shape: Shape::D2(m, n), data: Arc::new(out) }
    }

    /// Matrix product accumulated into a caller-provided zeroed buffer of
    /// length `m·n`.
    ///
    /// Delegates to the register-tiled wide kernel in `crate::simd`:
    /// const-width column tiles with 4-row register accumulators. Each
    /// output element still accumulates in ascending-`k` order, so results
    /// are bit-identical to the naive triple loop for finite operands (see
    /// the module docs of `simd` for the exact FP contract).
    pub fn matmul_into(&self, other: &Tensor, out: &mut [f64]) {
        let (m, k, n) = self.matmul_dims(other);
        assert_eq!(out.len(), m * n, "matmul_into output length");
        crate::simd::mm(&self.data, m, k, &other.data, n, out);
    }

    /// `self @ otherᵀ` without materialising the transpose: `[m,k] x [p,k]
    /// -> [m,p]`. Both operands are walked along contiguous rows.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, p) = (self.shape.rows(), other.shape.rows());
        let mut out = vec![0.0; m * p];
        self.matmul_nt_into(other, &mut out);
        Tensor { shape: Shape::D2(m, p), data: Arc::new(out) }
    }

    /// `self @ otherᵀ` into a caller-provided buffer (fully overwritten).
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut [f64]) {
        let (m, k) = match self.shape {
            Shape::D2(m, k) => (m, k),
            Shape::D1(k) => (1, k),
        };
        let (p, k2) = match other.shape {
            Shape::D2(p, k2) => (p, k2),
            Shape::D1(k2) => (1, k2),
        };
        assert_eq!(k, k2, "matmul_nt inner-dim mismatch {} x {}ᵀ", self.shape, other.shape);
        assert_eq!(out.len(), m * p, "matmul_nt_into output length");
        // Each output element is a length-k dot product — a serial FP
        // reduction the compiler may not reorder. The wide kernel packs
        // `otherᵀ` into a k-major panel once, turning the strided row walk
        // into contiguous vector FMAs while keeping every dot's
        // accumulation order (and thus the result bits) unchanged.
        crate::simd::mm_nt(&self.data, m, k, &other.data, p, out);
    }

    /// `selfᵀ @ other` without materialising the transpose: `[k,m] x [k,n]
    /// -> [m,n]`. The k-outer loop streams contiguous rows of both inputs.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (m, n) = (self.shape.cols(), other.shape.cols());
        let mut out = vec![0.0; m * n];
        self.matmul_tn_into(other, &mut out);
        Tensor { shape: Shape::D2(m, n), data: Arc::new(out) }
    }

    /// `selfᵀ @ other` into a caller-provided zeroed buffer.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut [f64]) {
        let (k, m) = match self.shape {
            Shape::D2(k, m) => (k, m),
            Shape::D1(k) => (k, 1),
        };
        let (k2, n) = match other.shape {
            Shape::D2(k2, n) => (k2, n),
            Shape::D1(k2) => (k2, 1),
        };
        assert_eq!(k, k2, "matmul_tn inner-dim mismatch {}ᵀ x {}", self.shape, other.shape);
        assert_eq!(out.len(), m * n, "matmul_tn_into output length");
        crate::simd::mm_tn(&self.data, k, m, &other.data, n, out);
    }

    /// Matrix transpose; vectors become `[1, n]` row matrices transposed to `[n, 1]`.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = match self.shape {
            Shape::D2(r, c) => (r, c),
            Shape::D1(n) => (1, n),
        };
        let mut data = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor { shape: Shape::D2(c, r), data: Arc::new(data) }
    }

    /// Column-sum: `[n,k] -> [k]`.
    pub fn sum_rows(&self) -> Tensor {
        let c = match self.shape {
            Shape::D2(_, c) => c,
            Shape::D1(n) => n,
        };
        let mut out = vec![0.0; c];
        crate::simd::sum_rows(&self.data, c, &mut out);
        Tensor { shape: Shape::D1(c), data: Arc::new(out) }
    }

    /// Replicate a `[k]` vector into an `[n, k]` matrix.
    pub fn broadcast_rows(&self, n: usize) -> Tensor {
        let k = match self.shape {
            Shape::D1(k) => k,
            Shape::D2(1, k) => k,
            s => panic!("broadcast_rows on shape {s}"),
        };
        let mut data = Vec::with_capacity(n * k);
        for _ in 0..n {
            data.extend_from_slice(&self.data[..k]);
        }
        Tensor { shape: Shape::D2(n, k), data: Arc::new(data) }
    }

    /// Gather rows by index: `out[i] = self[idx[i]]`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let c = self.shape.cols();
        let r = self.shape.rows();
        for &i in idx {
            assert!(i < r, "gather_rows index {i} out of range {r}");
        }
        let mut data = vec![0.0; idx.len() * c];
        crate::simd::gather_rows(&self.data, c, idx, &mut data);
        let shape = match self.shape {
            Shape::D1(_) => Shape::D1(idx.len()),
            Shape::D2(..) => Shape::D2(idx.len(), c),
        };
        Tensor { shape, data: Arc::new(data) }
    }

    /// Scatter-add rows into a fresh `[n, cols]` (or `[n]`) tensor:
    /// `out[idx[i]] += self[i]`.
    pub fn scatter_add_rows(&self, idx: &[usize], n: usize) -> Tensor {
        let c = self.shape.cols();
        assert_eq!(self.shape.rows(), idx.len(), "scatter_add_rows index count");
        for &i in idx {
            assert!(i < n, "scatter_add_rows index {i} out of range {n}");
        }
        let mut data = vec![0.0; n * c];
        crate::simd::scatter_add_rows(&self.data, c, idx, &mut data);
        let shape = match self.shape {
            Shape::D1(_) => Shape::D1(n),
            Shape::D2(..) => Shape::D2(n, c),
        };
        Tensor { shape, data: Arc::new(data) }
    }

    /// Scale row `i` of a matrix by `v[i]` (column-vector broadcast multiply).
    pub fn mul_col_vec(&self, v: &Tensor) -> Tensor {
        let (r, c) = match self.shape {
            Shape::D2(r, c) => (r, c),
            Shape::D1(n) => (n, 1),
        };
        assert_eq!(v.shape.len(), r, "mul_col_vec length mismatch");
        let mut data = vec![0.0; r * c];
        crate::simd::row_scale(&self.data, c, &v.data, &mut data);
        Tensor { shape: self.shape, data: Arc::new(data) }
    }

    /// Row-wise dot product of two same-shape matrices: `out[i] = Σ_j a[i,j] b[i,j]`.
    pub fn rowwise_dot(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "rowwise_dot shape mismatch");
        let (r, c) = match self.shape {
            Shape::D2(r, c) => (r, c),
            Shape::D1(n) => (n, 1),
        };
        let mut out = vec![0.0; r];
        crate::simd::rowwise_dot(&self.data, &other.data, c, &mut out);
        Tensor { shape: Shape::D1(r), data: Arc::new(out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accessors() {
        assert_eq!(Shape::D1(5).len(), 5);
        assert_eq!(Shape::D2(3, 4).len(), 12);
        assert_eq!(Shape::D2(3, 4).rows(), 3);
        assert_eq!(Shape::D2(3, 4).cols(), 4);
        assert_eq!(Shape::D1(5).cols(), 1);
        assert!(Shape::D1(0).is_empty());
        assert!(!Shape::D2(1, 1).is_empty());
    }

    #[test]
    fn construction_and_item() {
        let t = Tensor::scalar(3.5);
        assert_eq!(t.item(), 3.5);
        let m = Tensor::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.at(1, 0), 3.0);
        assert_eq!(Tensor::zeros(Shape::D1(3)).sum(), 0.0);
        assert_eq!(Tensor::ones(Shape::D2(2, 3)).sum(), 6.0);
        assert_eq!(Tensor::full(Shape::D1(4), 2.0).mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn bad_construction_panics() {
        let _ = Tensor::new(Shape::D1(3), vec![1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::vector(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn clone_shares_and_mutation_unshares() {
        let a = Tensor::vector(&[1.0, 2.0]);
        let mut b = a.clone();
        // The clone aliases the same buffer…
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        // …until one side writes.
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[9.0, 2.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::matrix(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), Shape::D2(2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::matrix(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_blocked_matches_naive_on_wide_output() {
        // Output wider than one 16-column tile exercises the tiling loop,
        // with an odd remainder width and a row-block remainder.
        let n = 16 * 3 + 5;
        let a = Tensor::matrix(3, 5, (0..15).map(|v| v as f64 * 0.37 - 2.0).collect());
        let b = Tensor::matrix(5, n, (0..5 * n).map(|v| (v % 97) as f64 * 0.11 - 4.0).collect());
        let c = a.matmul(&b);
        for i in 0..3 {
            for j in [0, 1, 15, 16, 47, 48, n - 1] {
                let expect: f64 = (0..5).map(|kk| a.at(i, kk) * b.at(kk, j)).sum();
                assert!((c.at(i, j) - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn transposed_matmul_variants_match_explicit_transpose() {
        let a = Tensor::matrix(2, 3, vec![1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let b = Tensor::matrix(4, 3, (0..12).map(|v| v as f64 * 0.25 - 1.0).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
        let c = Tensor::matrix(3, 4, (0..12).map(|v| (v as f64).sin()).collect());
        let d = Tensor::matrix(3, 2, vec![2.0, -1.0, 0.0, 3.0, 1.5, 0.5]);
        assert_eq!(c.matmul_tn(&d), c.transpose().matmul(&d));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::matrix(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), Shape::D2(3, 2));
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn bias_and_row_reductions() {
        let m = Tensor::matrix(2, 3, vec![1.0; 6]);
        let b = Tensor::vector(&[1.0, 2.0, 3.0]);
        let mb = m.add_bias(&b);
        assert_eq!(mb.data(), &[2.0, 3.0, 4.0, 2.0, 3.0, 4.0]);
        assert_eq!(mb.sum_rows().data(), &[4.0, 6.0, 8.0]);
        let br = b.broadcast_rows(2);
        assert_eq!(br.shape(), Shape::D2(2, 3));
        assert_eq!(br.sum_rows().data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let m = Tensor::matrix(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.data(), &[1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    fn col_vec_and_rowwise_dot() {
        let m = Tensor::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let v = Tensor::vector(&[10.0, 0.5]);
        assert_eq!(m.mul_col_vec(&v).data(), &[10.0, 20.0, 1.5, 2.0]);
        let d = m.rowwise_dot(&m);
        assert_eq!(d.data(), &[5.0, 25.0]);
    }

    #[test]
    fn reshape_preserves_data_and_shares_buffer() {
        let v = Tensor::vector(&[1.0, 2.0, 3.0, 4.0]);
        let m = v.reshape(Shape::D2(2, 2));
        assert_eq!(m.at(1, 1), 4.0);
        assert_eq!(v.data().as_ptr(), m.data().as_ptr());
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::vector(&[1.0, 2.0]);
        assert!(!t.has_non_finite());
        t.data_mut()[0] = f64::NAN;
        assert!(t.has_non_finite());
    }
}
