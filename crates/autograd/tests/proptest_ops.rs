//! Property-based finite-difference validation of every differentiable
//! primitive, plus second-order spot checks.

use dphpo_autograd::{Shape, Tape, Tensor, Unary};
use proptest::prelude::*;

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

fn check_unary(kind: Unary, data: &[f64]) {
    // Keep away from the kinks of relu/relu6 where finite differences are
    // invalid.
    let safe: Vec<f64> = data
        .iter()
        .map(|&v| {
            let mut v = v;
            for kink in [0.0, 1.0, 6.0] {
                if (v - kink).abs() < 1e-3 {
                    v += 2e-3;
                }
            }
            v
        })
        .collect();
    let eval = |x: &[f64]| -> f64 {
        let tape = Tape::new();
        let v = tape.constant(Tensor::vector(x));
        tape.item(tape.sum_all(tape.unary(kind, v)))
    };
    let tape = Tape::new();
    let v = tape.constant(Tensor::vector(&safe));
    let y = tape.sum_all(tape.unary(kind, v));
    let g = tape.grad(y, &[v])[0];
    let analytic = tape.value(g);
    let numeric = finite_diff(eval, &safe);
    for (a, n) in analytic.data().iter().zip(numeric.iter()) {
        assert!(
            (a - n).abs() < 1e-4 * (1.0 + n.abs()),
            "{kind:?}: {a} vs {n}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unary_gradients_match_finite_differences(
        data in prop::collection::vec(-3.0f64..3.0, 1..12)
    ) {
        for kind in [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Relu,
                     Unary::Relu6, Unary::Square] {
            check_unary(kind, &data);
        }
    }

    #[test]
    fn positive_domain_unary_gradients(
        data in prop::collection::vec(0.1f64..4.0, 1..12)
    ) {
        for kind in [Unary::Sqrt, Unary::Recip, Unary::Exp] {
            check_unary(kind, &data);
        }
    }

    #[test]
    fn structural_op_gradients(
        data in prop::collection::vec(-2.0f64..2.0, 6)
    ) {
        // Compose sum_rows → broadcast_rows → reshape → mul and check the
        // whole chain against finite differences.
        let eval = |x: &[f64]| -> f64 {
            let tape = Tape::new();
            let m = tape.constant(Tensor::matrix(2, 3, x.to_vec()));
            let cols = tape.sum_rows(m);                     // [3]
            let back = tape.broadcast_rows(cols, 2);         // [2,3]
            let flat = tape.reshape(back, Shape::D1(6));     // [6]
            let orig = tape.reshape(m, Shape::D1(6));
            tape.item(tape.sum_all(tape.mul(flat, orig)))
        };
        let tape = Tape::new();
        let m = tape.constant(Tensor::matrix(2, 3, data.clone()));
        let cols = tape.sum_rows(m);
        let back = tape.broadcast_rows(cols, 2);
        let flat = tape.reshape(back, Shape::D1(6));
        let orig = tape.reshape(m, Shape::D1(6));
        let y = tape.sum_all(tape.mul(flat, orig));
        let g = tape.grad(y, &[m])[0];
        let numeric = finite_diff(eval, &data);
        for (a, n) in tape.value(g).data().iter().zip(numeric.iter()) {
            prop_assert!((a - n).abs() < 1e-4 * (1.0 + n.abs()));
        }
    }

    #[test]
    fn second_derivative_of_quartic(x0 in -1.5f64..1.5) {
        // y = x⁴ → y'' = 12x².
        let tape = Tape::new();
        let x = tape.constant(Tensor::vector(&[x0]));
        let y = tape.sum_all(tape.square(tape.square(x)));
        let g = tape.grad(y, &[x])[0];
        let h = tape.grad(tape.sum_all(g), &[x])[0];
        let expected = 12.0 * x0 * x0;
        prop_assert!((tape.value(h).data()[0] - expected).abs() < 1e-8 * (1.0 + expected));
    }

    #[test]
    fn fused_affine_matches_unfused_composition(
        dims in (1usize..5, 1usize..5, 1usize..5),
        pool in prop::collection::vec(-1.5f64..1.5, 75)
    ) {
        // act(x@w + b) as one fused node must equal the three-op spelling in
        // value, first derivative, and second derivative, for every MLP
        // activation. (Tolerance, not equality: e.g. the fused softplus
        // backward computes σ as 1−e^{−softplus(u)}, which rounds
        // differently from σ(u).)
        let (m, k, n) = dims;
        let xs = &pool[..m * k];
        let ws = &pool[25..25 + k * n];
        let bs = &pool[50..50 + n];
        for act in [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Relu, Unary::Relu6] {
            let run = |fused: bool| -> (Vec<f64>, Vec<f64>, Vec<f64>) {
                let t = Tape::new();
                let x = t.constant(Tensor::matrix(m, k, xs.to_vec()));
                let w = t.constant(Tensor::matrix(k, n, ws.to_vec()));
                let b = t.constant(Tensor::vector(bs));
                let h = if fused {
                    t.affine(x, w, b, Some(act))
                } else {
                    t.unary(act, t.add_bias(t.matmul(x, w), b))
                };
                // First order: dL/dw for L = Σ h². Second order: the
                // force-matching shape d(Σ (dL'/dx)²)/dw with L' = Σ h.
                let l = t.sum_all(t.square(h));
                let gw = t.grad(l, &[w])[0];
                let gx = t.grad(t.sum_all(h), &[x])[0];
                let hw = t.grad(t.sum_all(t.square(gx)), &[w])[0];
                (t.value(h).into_data(), t.value(gw).into_data(), t.value(hw).into_data())
            };
            let (v_f, g_f, h_f) = run(true);
            let (v_u, g_u, h_u) = run(false);
            for (a, b) in v_f.iter().zip(v_u.iter()) {
                prop_assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{act:?} value");
            }
            for (a, b) in g_f.iter().zip(g_u.iter()) {
                prop_assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "{act:?} grad");
            }
            for (a, b) in h_f.iter().zip(h_u.iter()) {
                prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{act:?} 2nd order");
            }
        }
    }

    #[test]
    fn transposed_matmuls_match_matmul_with_transpose(
        dims in (1usize..5, 1usize..5, 1usize..5),
        pool in prop::collection::vec(-2.0f64..2.0, 50)
    ) {
        let (m, k, p) = dims;
        let a_data = &pool[..m * k];
        let b_data = &pool[25..25 + p * k];
        // NT: A[m,k] @ (B[p,k])ᵀ — values and both gradients.
        {
            let t = Tape::new();
            let a = t.constant(Tensor::matrix(m, k, a_data.to_vec()));
            let b = t.constant(Tensor::matrix(p, k, b_data.to_vec()));
            let nt = t.matmul_nt(a, b);
            let explicit = t.matmul(a, t.transpose(b));
            prop_assert_eq!(t.value(nt), t.value(explicit));
            let g = t.grad(t.sum_all(t.square(nt)), &[a, b]);
            let ge = t.grad(t.sum_all(t.square(explicit)), &[a, b]);
            for (x, y) in g.iter().zip(ge.iter()) {
                for (va, vb) in t.value(*x).data().iter().zip(t.value(*y).data()) {
                    prop_assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()));
                }
            }
        }
        // TN: (A[k,m])ᵀ @ B[k,p].
        {
            let t = Tape::new();
            let a = t.constant(Tensor::matrix(k, m, a_data.to_vec()));
            let b = t.constant(Tensor::matrix(k, p, b_data[..k * p].to_vec()));
            let tn = t.matmul_tn(a, b);
            let explicit = t.matmul(t.transpose(a), b);
            prop_assert_eq!(t.value(tn), t.value(explicit));
            let g = t.grad(t.sum_all(t.square(tn)), &[a, b]);
            let ge = t.grad(t.sum_all(t.square(explicit)), &[a, b]);
            for (x, y) in g.iter().zip(ge.iter()) {
                for (va, vb) in t.value(*x).data().iter().zip(t.value(*y).data()) {
                    prop_assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()));
                }
            }
        }
    }

    #[test]
    fn tape_reset_reproduces_results_bitwise(
        data in prop::collection::vec(-2.0f64..2.0, 12)
    ) {
        // Rebuilding the same graph on a reset (pooled) tape must reproduce
        // the gradient bit-for-bit — pooling can never leak stale values.
        let t = Tape::new();
        let run = |t: &Tape| -> Vec<f64> {
            let x = t.constant(Tensor::matrix(3, 4, data.clone()));
            let w = t.constant(Tensor::matrix(4, 2, (0..8).map(|i| 0.3 - 0.1 * i as f64).collect()));
            let b = t.constant(Tensor::vector(&[0.1, -0.2]));
            let h = t.affine(x, w, b, Some(Unary::Tanh));
            let g = t.grad(t.sum_all(t.square(h)), &[w])[0];
            t.value(g).into_data()
        };
        let first = run(&t);
        t.reset();
        let second = run(&t);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn matmul_family_matches_naive_scalar_reference_bitwise(
        dims in (0usize..14, 0usize..14, 0usize..14),
        pool in prop::collection::vec(-2.0f64..2.0, 2 * 13 * 13)
    ) {
        // The tiled/packed SIMD kernels promise the *exact* bits of a naive
        // triple loop that accumulates each output element independently in
        // ascending k order (DESIGN.md §10): no mul_add, no zero-skip, no
        // reduction-axis blocking. Odd sizes exercise every remainder-lane
        // path of the const-width column tiles; zero dims are the empty
        // batch. Compare through to_bits so a −0.0/+0.0 swap would fail.
        let (m, k, n) = dims;
        let a_data = &pool[..m * k];
        let b_data = &pool[13 * 13..13 * 13 + k * n];
        let reference = |a: &[f64], b: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    out[i * n + j] = acc;
                }
            }
            out
        };
        let expect = reference(a_data, b_data);
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let t = Tape::new();
        // Plain matmul: A[m,k] @ B[k,n].
        let a = t.constant(Tensor::matrix(m, k, a_data.to_vec()));
        let b = t.constant(Tensor::matrix(k, n, b_data.to_vec()));
        prop_assert_eq!(bits(t.value(t.matmul(a, b)).data()), bits(&expect));
        // NT: A[m,k] @ (Bᵀ[n,k])ᵀ reads B transposed but must keep the same
        // ascending-k accumulation (the pack is a layout change only).
        let mut b_t = vec![0.0; k * n];
        for kk in 0..k {
            for j in 0..n {
                b_t[j * k + kk] = b_data[kk * n + j];
            }
        }
        let bt = t.constant(Tensor::matrix(n, k, b_t));
        prop_assert_eq!(bits(t.value(t.matmul_nt(a, bt)).data()), bits(&expect));
        // TN: (Aᵀ[k,m])ᵀ @ B[k,n].
        let mut a_t = vec![0.0; m * k];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a_data[i * k + kk];
            }
        }
        let at = t.constant(Tensor::matrix(k, m, a_t));
        prop_assert_eq!(bits(t.value(t.matmul_tn(at, b)).data()), bits(&expect));
    }

    #[test]
    fn bulk_unary_matches_singleton_evaluation_bitwise(
        data in prop::collection::vec(
            (-4.0f64..4.0, -750.0f64..750.0, 0.0f64..1.0)
                .prop_map(|(near, far, pick)| if pick < 0.5 { near } else { far }),
            1..40,
        )
    ) {
        // The bulk activation kernels process fixed-width lane blocks with a
        // scalar tail; every element must come out bit-identical to
        // evaluating that element alone (a length-1 tensor only ever takes
        // the remainder path). Random lengths 1..40 cover full blocks,
        // partial tails, and the degenerate single-lane case; half the
        // inputs lie in ±750, past the `exp` core's clamps.
        let t = Tape::new();
        for kind in
            [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Exp, Unary::Relu, Unary::Relu6]
        {
            let v = t.constant(Tensor::vector(&data));
            let bulk = t.value(t.unary(kind, v));
            for (i, &x) in data.iter().enumerate() {
                let s = t.constant(Tensor::vector(&[x]));
                let solo = t.value(t.unary(kind, s));
                prop_assert_eq!(
                    bulk.data()[i].to_bits(),
                    solo.data()[0].to_bits(),
                    "{:?} lane {} of {}", kind, i, data.len()
                );
            }
            t.reset();
        }
    }

    #[test]
    fn add_bias_and_sum_rows_are_adjoint(
        m in prop::collection::vec(-2.0f64..2.0, 6),
        bias in prop::collection::vec(-2.0f64..2.0, 3)
    ) {
        // d(sum(M + 1·bᵀ))/db = column counts: each bias column contributes
        // once per row.
        let tape = Tape::new();
        let vm = tape.constant(Tensor::matrix(2, 3, m));
        let vb = tape.constant(Tensor::vector(&bias));
        let y = tape.sum_all(tape.add_bias(vm, vb));
        let g = tape.grad(y, &[vb])[0];
        for v in tape.value(g).data() {
            prop_assert!((v - 2.0).abs() < 1e-12);
        }
    }
}
