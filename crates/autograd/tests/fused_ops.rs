//! The three fused pair-stream ops against the same computation spelled
//! with unfused taped primitives (affine chain, `mul_col_vec`,
//! `scatter_add_rows`, taped double backward): values, first-order
//! sensitivities, forces, and the second-order parameter gradients of a
//! force-matching loss — over random depths, widths, segment lists with
//! offsets, empty segments, pair counts on neither side of a lane block
//! boundary, and like-species pairs whose reverse rides on their lane as a
//! mirror: a mirror straddling a block boundary, partial last blocks,
//! streams of unlike pairs only, a lone like pair.

use std::rc::Rc;

use dphpo_autograd::{PairList, PairSet, Shape, Tape, Tensor, Unary, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACTS: [Unary; 5] = [Unary::Tanh, Unary::Sigmoid, Unary::Softplus, Unary::Relu, Unary::Relu6];

/// One pair per entry of `like`; a like pair is followed by its reverse,
/// its mirror (same `z` and `s`, atoms swapped, its own `jac`).
fn random_set(like: &[bool], n_atoms: usize, rng: &mut StdRng) -> PairSet {
    let (mut z, mut s, mut centers, mut neighbors) = (vec![], vec![], vec![], vec![]);
    for &like in like {
        let (zv, sv) = (rng.random_range(-1.5..1.5), rng.random_range(-1.5..1.5));
        let (i, j) = (rng.random_range(0..n_atoms), rng.random_range(0..n_atoms));
        for (c, n) in [(i, j), (j, i)].into_iter().take(1 + usize::from(like)) {
            z.push(zv);
            s.push(sv);
            centers.push(c);
            neighbors.push(n);
        }
    }
    let pairs = s.len();
    PairSet {
        z: Tensor::matrix(pairs, 1, z),
        s: Tensor::new(Shape::D1(pairs), s),
        jac: Tensor::matrix(pairs, 3, (0..3 * pairs).map(|_| rng.random_range(-1.5..1.5)).collect()),
        centers: centers.into(),
        neighbors: neighbors.into(),
    }
}

/// Pair `p` of `set` as a set of its own.
fn pair(set: &PairSet, p: usize) -> PairSet {
    PairSet {
        z: Tensor::matrix(1, 1, vec![set.z.data()[p]]),
        s: Tensor::new(Shape::D1(1), vec![set.s.data()[p]]),
        jac: Tensor::matrix(1, 3, set.jac.data()[3 * p..3 * p + 3].to_vec()),
        centers: Rc::from([set.centers[p]]),
        neighbors: Rc::from([set.neighbors[p]]),
    }
}

fn random_layers(depth: usize, widths: &[usize], rng: &mut StdRng) -> (Vec<(Tensor, Tensor)>, usize) {
    let mut input = 1;
    let layers = widths[..depth]
        .iter()
        .map(|&n| {
            let w = Tensor::matrix(input, n, (0..input * n).map(|_| rng.random_range(-1.0..1.0)).collect());
            let b = Tensor::vector(&(0..n).map(|_| rng.random_range(-0.5..0.5)).collect::<Vec<_>>());
            input = n;
            (w, b)
        })
        .collect();
    (layers, input)
}

/// A case over `layouts` (one segment each, frames of `n_atoms` atoms).
fn random_case(layouts: &[Vec<bool>], n_atoms: usize, depth: usize, widths: &[usize], act: Unary, rng: &mut StdRng) -> Case {
    let (layers, m) = random_layers(depth, widths, rng);
    let segments: Vec<(PairSet, usize)> =
        layouts.iter().enumerate().map(|(b, like)| (random_set(like, n_atoms, rng), b * n_atoms)).collect();
    let n_rows = n_atoms * layouts.len();
    Case {
        segments,
        lanes: layouts.iter().map(Vec::len).sum(),
        n_rows,
        layers,
        act,
        inv_dstd: rng.random_range(0.5..3.0),
        inv_avg: rng.random_range(0.05..1.0),
        readout: Tensor::matrix(n_rows, m, (0..n_rows * m).map(|_| rng.random_range(-1.0..1.0)).collect()),
    }
}

struct Case {
    segments: Vec<(PairSet, usize)>,
    /// One per layout entry: a like pair's reverse shares its lane.
    lanes: usize,
    n_rows: usize,
    /// `(w, b)` per layer.
    layers: Vec<(Tensor, Tensor)>,
    act: Unary,
    inv_dstd: f64,
    inv_avg: f64,
    /// Weights of the scalar "energy" read off the pooled block.
    readout: Tensor,
}

/// Concatenate the segments the way a merged batch would be laid out.
fn merged(case: &Case) -> (Tensor, Tensor, Tensor, Rc<[usize]>, Rc<[usize]>) {
    let (mut z, mut s, mut jac, mut c, mut n) = (vec![], vec![], vec![], vec![], vec![]);
    for (set, offset) in &case.segments {
        z.extend_from_slice(set.z.data());
        s.extend_from_slice(set.s.data());
        jac.extend_from_slice(set.jac.data());
        c.extend(set.centers.iter().map(|&i| i + offset));
        n.extend(set.neighbors.iter().map(|&i| i + offset));
    }
    let p = s.len();
    (
        Tensor::matrix(p, 1, z),
        Tensor::new(Shape::D1(p), s),
        Tensor::matrix(p, 3, jac),
        c.into(),
        n.into(),
    )
}

struct Outcome {
    pooled: Tensor,
    sens: Tensor,
    forces: Tensor,
    grads: Vec<Tensor>,
}

fn register(tape: &Tape, case: &Case) -> (Vec<(Var, Var)>, Vec<Var>) {
    let layers: Vec<(Var, Var)> =
        case.layers.iter().map(|(w, b)| (tape.constant(w.clone()), tape.constant(b.clone()))).collect();
    let flat = layers.iter().flat_map(|&(w, b)| [w, b]).collect();
    (layers, flat)
}

/// Energy `Σ tanh(pooled)·readout` (curved, so the sensitivity depends on
/// the weights through `g` too), forces, and the loss
/// `Σ F² + Σ pooled²` differentiated down to the layers.
fn finish(tape: &Tape, case: &Case, pooled: Var, sens: impl FnOnce(Var) -> (Var, Var), flat: &[Var]) -> Outcome {
    let readout = tape.constant(case.readout.clone());
    let energy = tape.sum_all(tape.mul(tape.tanh(pooled), readout));
    let (u, forces) = sens(energy);
    let loss = tape.add(tape.sum_all(tape.square(forces)), tape.sum_all(tape.square(pooled)));
    Outcome {
        pooled: tape.value(pooled),
        sens: tape.value(u),
        forces: tape.value(forces),
        grads: tape.grad_values(loss, flat),
    }
}

fn fused(case: &Case) -> Outcome {
    let tape = Tape::new();
    let (layers, flat) = register(&tape, case);
    let list = Rc::new(PairList::new(case.segments.clone(), case.n_rows));
    let pooled = tape.embed_pool(Rc::clone(&list), &layers, case.act, case.inv_dstd, case.inv_avg);
    finish(
        &tape,
        case,
        pooled.out,
        |energy| {
            let u = tape.grad(energy, &[pooled.pairs])[0];
            (u, tape.force_assemble(&[(u, list)], case.n_rows))
        },
        &flat,
    )
}

fn unfused(case: &Case) -> Outcome {
    let tape = Tape::new();
    let (layers, flat) = register(&tape, case);
    let (z, s, jac, centers, neighbors) = merged(case);
    let p = s.len();
    let (z, s) = (tape.constant(z), tape.constant(s));
    let mut h = z;
    for &(w, b) in &layers {
        h = tape.affine(h, w, b, Some(case.act));
    }
    let pooled = tape.scale(
        tape.scatter_add_rows(tape.mul_col_vec(h, s), Rc::clone(&centers), case.n_rows),
        case.inv_avg,
    );
    finish(
        &tape,
        case,
        pooled,
        |energy| {
            let g = tape.grad(energy, &[z, s]);
            let u = tape.add(g[1], tape.scale(tape.reshape(g[0], Shape::D1(p)), case.inv_dstd));
            let rows = tape.mul_col_vec(tape.constant(jac), u);
            let to_n = tape.scatter_add_rows(rows, neighbors, case.n_rows);
            let to_c = tape.scatter_add_rows(rows, centers, case.n_rows);
            (u, tape.sub(to_c, to_n))
        },
        &flat,
    )
}

fn assert_close(what: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.len(), b.len(), "{what} length");
    let scale = b.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!((x - y).abs() <= 1e-11 * scale, "{what}[{i}]: fused {x} vs unfused {y}");
    }
}

fn assert_bitwise(what: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: fused {x} vs unfused {y}");
    }
}

/// The fused ops against the unfused chain: the pool keeps the unfused
/// arithmetic and summation order, bit for bit; the sensitivities, forces
/// and second-order parameter gradients agree to 1e-11 of the largest
/// entry. Against the same stream cut into one-pair segments — no pair
/// follows its partner inside a set, so each takes a lane of its own — the
/// pool, sensitivities and forces are bit for bit the same and the
/// parameter gradients differ in rounding only.
fn check(case: &Case) {
    assert_eq!(PairList::new(case.segments.clone(), case.n_rows).n_lanes(), case.lanes);
    let (f, u) = (fused(case), unfused(case));
    assert_bitwise("pooled", &f.pooled, &u.pooled);
    assert_close("sensitivity", &f.sens, &u.sens);
    assert_close("forces", &f.forces, &u.forces);
    for (k, (a, b)) in f.grads.iter().zip(&u.grads).enumerate() {
        assert_close(&format!("grad {k}"), a, b);
    }
    let segments: Vec<_> =
        case.segments.iter().flat_map(|(set, offset)| (0..set.len()).map(|p| (pair(set, p), *offset))).collect();
    let lone = Case { lanes: segments.len(), segments, layers: case.layers.clone(), readout: case.readout.clone(), ..*case };
    let lone = fused(&lone);
    assert_bitwise("pooled vs one lane per pair", &f.pooled, &lone.pooled);
    assert_bitwise("sensitivity vs one lane per pair", &f.sens, &lone.sens);
    assert_bitwise("forces vs one lane per pair", &f.forces, &lone.forces);
    for (k, (a, b)) in f.grads.iter().zip(&lone.grads).enumerate() {
        assert_close(&format!("grad {k} vs one lane per pair"), a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_ops_match_the_unfused_chain(
        seed in 0usize..100_000,
        depth in 1usize..4,
        widths in prop::collection::vec(1usize..7, 3),
        seg_units in prop::collection::vec(0usize..41, 1..5),
        like_share in 0usize..3,
        n_atoms in 1usize..7,
        act in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        // No like pair, about half, or every pair like.
        let p_like = like_share as f64 / 2.0;
        let layouts: Vec<Vec<bool>> =
            seg_units.iter().map(|&k| (0..k).map(|_| rng.random_bool(p_like)).collect()).collect();
        check(&random_case(&layouts, n_atoms, depth, &widths, ACTS[act], &mut rng));
    }
}

#[test]
fn mirror_layouts_match_the_unfused_chain() {
    let unlike = |k: usize| vec![false; k];
    // Fifteen unlike pairs, then a like pair: counted one lane per pair,
    // its mirror (pair 16) opens the second block of 16. The 27 lanes leave
    // the last lane block partial.
    let straddle: Vec<bool> = (0..27).map(|k| k == 15 || (k > 15 && k % 3 == 0)).collect();
    let layouts: [Vec<Vec<bool>>; 6] = [
        vec![straddle.clone()],
        vec![unlike(37)],
        vec![vec![true]],
        vec![vec![true; 17], unlike(1)],
        vec![vec![true; 16], vec![], straddle, vec![true]],
        vec![vec![true, false, true], unlike(16)],
    ];
    let mut rng = StdRng::seed_from_u64(12);
    for layout in &layouts {
        for act in ACTS {
            check(&random_case(layout, 5, 2, &[4, 3, 0], act, &mut rng));
        }
    }
}

fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn taped_grad_through_the_gradient_op_panics_with_a_reason() {
    // Third order is never needed; it must fail loudly, not return zeros.
    let message = panic_message(|| {
        let mut rng = StdRng::seed_from_u64(3);
        let tape = Tape::new();
        let w = tape.constant(Tensor::matrix(1, 2, vec![0.3, -0.4]));
        let b = tape.constant(Tensor::vector(&[0.1, 0.2]));
        let list = Rc::new(PairList::new(vec![(random_set(&[false, true, false], 3, &mut rng), 0)], 3));
        let pooled = tape.embed_pool(list, &[(w, b)], Unary::Tanh, 1.0, 1.0);
        let energy = tape.sum_all(tape.square(pooled.out));
        let u = tape.grad(energy, &[pooled.pairs])[0];
        tape.grad(tape.sum_all(tape.square(u)), &[w]);
    });
    assert!(message.contains("third-order") && message.contains("grad_values"), "{message}");
}

#[test]
fn census_names_the_fused_ops() {
    let mut rng = StdRng::seed_from_u64(4);
    let tape = Tape::new();
    let w = tape.constant(Tensor::matrix(1, 2, vec![0.3, -0.4]));
    let b = tape.constant(Tensor::vector(&[0.1, 0.2]));
    let list = Rc::new(PairList::new(vec![(random_set(&[false, true, false], 3, &mut rng), 0)], 3));
    let pooled = tape.embed_pool(Rc::clone(&list), &[(w, b)], Unary::Tanh, 1.0, 1.0);
    let u = tape.grad(tape.sum_all(pooled.out), &[pooled.pairs])[0];
    tape.force_assemble(&[(u, list)], 3);
    let census = tape.op_census(0..tape.len());
    for name in ["embed_pool", "embed_pool_grad", "force_assemble"] {
        assert!(census.contains(&(name, 1)), "{name} missing from {census:?}");
    }
}
