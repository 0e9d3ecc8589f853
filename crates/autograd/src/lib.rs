//! # dphpo-autograd
//!
//! A compact dense-tensor automatic-differentiation engine with
//! **double-backward** support, built for the DNNP (deep neural network
//! potential) training substrate of this workspace.
//!
//! Why double backward matters here: a neural network potential predicts a
//! total energy `E(x; w)` from atomic positions `x`, and the forces are its
//! negative position gradient `F = -∂E/∂x`. Training minimises a weighted
//! sum of the energy error *and the force error*, so the weight gradient of
//! the loss contains the mixed second derivative `∂/∂w (∂E/∂x)`. The
//! [`Tape`] here expresses every backward computation as new taped
//! operations, making gradients themselves differentiable — the same
//! capability DeePMD-kit obtains from TensorFlow.
//!
//! ## Example
//!
//! ```
//! use dphpo_autograd::{Tape, Tensor};
//!
//! let t = Tape::new();
//! let x = t.constant(Tensor::vector(&[1.0, 2.0]));
//! let y = t.sum_all(t.square(x)); // y = Σ x²
//! let g = t.grad(y, &[x])[0];     // dy/dx = 2x — and g is differentiable too
//! assert_eq!(t.value(g).data(), &[2.0, 4.0]);
//! ```

pub(crate) mod fused;
pub(crate) mod simd;
pub mod tape;
pub mod tensor;

pub use fused::{PairList, PairSet};
pub use tape::{Pooled, Tape, TapeAllocStats, Unary, Var};
pub use tensor::{Shape, Tensor};
