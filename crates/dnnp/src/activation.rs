//! The five activation functions the paper's EA selects among for both the
//! descriptor (embedding) network and the fitting network.

use dphpo_autograd::{Tape, Unary, Var};

/// Activation function choice: `{relu, relu6, softplus, sigmoid, tanh}`,
/// in the paper's decoding order (§2.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// ReLU clipped at six.
    Relu6,
    /// Softplus `ln(1 + eˣ)`.
    Softplus,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent (the DeePMD default).
    Tanh,
}

impl Activation {
    /// All activations in decode order — the index of each entry is the
    /// value produced by the paper's `floor(gene) % 5` decoder.
    pub const ALL: [Activation; 5] = [
        Activation::Relu,
        Activation::Relu6,
        Activation::Softplus,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    /// DeePMD-style lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Relu6 => "relu6",
            Activation::Softplus => "softplus",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }

    /// Inverse of [`Activation::name`].
    pub fn from_name(name: &str) -> Option<Activation> {
        Activation::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Decode-order index.
    pub fn index(&self) -> usize {
        Activation::ALL.iter().position(|a| a == self).unwrap()
    }

    /// The tape-level unary op implementing this activation — used both
    /// for standalone application and as the fused-affine activation.
    pub fn unary(&self) -> Unary {
        match self {
            Activation::Relu => Unary::Relu,
            Activation::Relu6 => Unary::Relu6,
            Activation::Softplus => Unary::Softplus,
            Activation::Sigmoid => Unary::Sigmoid,
            Activation::Tanh => Unary::Tanh,
        }
    }

    /// Apply the activation to a taped variable.
    pub fn apply(&self, tape: &Tape, x: Var) -> Var {
        tape.unary(self.unary(), x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_autograd::Tensor;

    /// libm reference for each activation, independent of the tape's
    /// polynomial kernels.
    fn libm(a: Activation, x: f64) -> f64 {
        match a {
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::Softplus => x.max(0.0) + (-x.abs()).exp().ln_1p(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    #[test]
    fn names_round_trip() {
        for a in Activation::ALL {
            assert_eq!(Activation::from_name(a.name()), Some(a));
        }
        assert_eq!(Activation::from_name("gelu"), None);
    }

    #[test]
    fn decode_order_matches_paper() {
        assert_eq!(Activation::ALL[0].name(), "relu");
        assert_eq!(Activation::ALL[4].name(), "tanh");
        assert_eq!(Activation::Tanh.index(), 4);
    }

    #[test]
    fn taped_apply_matches_scalar_eval() {
        let xs = [-3.0, -0.5, 0.0, 0.5, 3.0, 7.0];
        for a in Activation::ALL {
            let tape = Tape::new();
            let x = tape.constant(Tensor::vector(&xs));
            let y = a.apply(&tape, x);
            let values = tape.value(y);
            for (i, &xv) in xs.iter().enumerate() {
                assert!(
                    (values.data()[i] - libm(a, xv)).abs() < 1e-12,
                    "{} at {xv}",
                    a.name()
                );
            }
        }
    }

    #[test]
    fn known_values() {
        let taped = |a: Activation, x: f64| {
            let tape = Tape::new();
            let v = tape.constant(Tensor::vector(&[x]));
            tape.value(a.apply(&tape, v)).data()[0]
        };
        assert_eq!(taped(Activation::Relu, -1.0), 0.0);
        assert_eq!(taped(Activation::Relu6, 10.0), 6.0);
        assert!((taped(Activation::Sigmoid, 0.0) - 0.5).abs() < 1e-12);
        assert!((taped(Activation::Tanh, 0.0)).abs() < 1e-12);
        assert!((taped(Activation::Softplus, 0.0) - 2f64.ln()).abs() < 1e-12);
    }
}
