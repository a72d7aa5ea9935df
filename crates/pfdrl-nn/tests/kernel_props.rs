//! Property tests pinning the zero-allocation kernel family to the
//! naive reference kernels — *bitwise*, via `f64::to_bits`, not within
//! a tolerance. The optimized `_into` kernels claim the exact same
//! floating-point accumulation order as the `*_reference` loops; any
//! reassociation (or a dropped/added zero-skip) shows up here as a flipped
//! bit. Shapes deliberately include dimensions that are not multiples of
//! the accumulator widths, and payloads include NaN, ±0.0, infinities
//! and subnormals.
//!
//! The `_noskip` entry points drop the `a == 0.0` skip only when the
//! right operand is finite, so they get a second value generator with
//! no NaN or ±∞ (but exact zeros, -0.0 and subnormals): with the first
//! generator almost every right operand would be non-finite and the
//! skip-free kernels would go untested.
//!
//! One deliberate carve-out: when *both* sides produce a NaN at the same
//! element, the NaN payload bits are not compared. IEEE 754 leaves NaN
//! payload propagation unspecified, and LLVM commutes `fadd`/`fmul`
//! operands freely, so which of two NaN inputs survives an addition is a
//! codegen artifact, not a property of the accumulation order. NaN
//! *placement* is still exact, as are the sign of zeros, infinities,
//! subnormals and every finite bit pattern — which is the contract the
//! bit-identical checkpoint-resume guarantee actually needs (a run that
//! hits NaN has already diverged and is not resumable).

use pfdrl_nn::optimizer::{Adam, Optimizer};
use pfdrl_nn::{Activation, Layered, Matrix, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64: derives arbitrarily many deterministic values from one
/// sampled seed (the vendored proptest shim only supports simple
/// range/tuple strategies, so all structure is derived here).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Mostly well-scaled finite values, with a deliberate sprinkle of
    /// exact zeros (they trigger the kernels' zero-skip branch), -0.0,
    /// NaN and infinities.
    fn value(&mut self) -> f64 {
        match self.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::MIN_POSITIVE / 2.0, // subnormal
            _ => {
                let u = self.next();
                // Uniform in [-8, 8): enough dynamic range to exercise
                // rounding without everything overflowing.
                (u as f64 / u64::MAX as f64) * 16.0 - 8.0
            }
        }
    }

    /// Like [`Gen::value`] but always finite: exact zeros, -0.0 and
    /// subnormals stay, NaN and ±∞ go.
    fn finite_value(&mut self) -> f64 {
        match self.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0,
            3 => -f64::MIN_POSITIVE / 4.0,
            _ => {
                let u = self.next();
                (u as f64 / u64::MAX as f64) * 16.0 - 8.0
            }
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.value())
    }

    fn finite_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.finite_value())
    }
}

/// Output widths for the `_noskip` entry points: register kernels with
/// and without row pairing (12 and 14 are the tiny Q-net's hidden width
/// and the repro state width), SAXPY-fallback widths, and widths above
/// the skip-free bound (which must take the skipping kernel).
const NOSKIP_WIDTHS: [usize; 10] = [1, 3, 5, 12, 14, 16, 27, 28, 48, 100];

/// Trains twin MLPs for `steps` steps, one through the allocating
/// `forward`/`backward`/`step` path (which keeps the skipping kernels,
/// so it is the oracle) and one through the workspace path
/// (`forward_ws`/`backward_ws`/`step_fused`, skip-free where the
/// operand is finite), and asserts bit-identical weights.
fn check_ws_training_matches_allocating(dims: &[usize], batch: usize, steps: usize, seed: u64) {
    let g = &mut Gen(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let (d_in, d_out) = (dims[0], *dims.last().expect("dims"));
    let mut net_a = Mlp::new(dims, Activation::Relu, Activation::Identity, &mut rng);
    let mut net_b = net_a.clone();
    let mut opt_a = Adam::new(1e-2);
    let mut opt_b = Adam::new(1e-2);
    let mut grad_buf = Matrix::default();
    for _ in 0..steps {
        // Finite inputs/upstream grads: ReLU on NaN would make both
        // paths NaN anyway, which proves nothing extra here. About half
        // the ReLU outputs are exact zeros, the skip's trigger.
        let x = Matrix::from_fn(batch, d_in, |_, _| (g.below(2000) as f64 - 1000.0) / 250.0);
        let dout = Matrix::from_fn(batch, d_out, |_, _| (g.below(2000) as f64 - 1000.0) / 250.0);

        net_a.zero_grad();
        let _ = net_a.forward(&x);
        let _ = net_a.backward(&dout);
        opt_a.step(&mut net_a.param_grad_pairs());

        net_b.zero_grad();
        let _ = net_b.forward_ws(&x);
        grad_buf.resize(dout.rows(), dout.cols());
        grad_buf.as_mut_slice().copy_from_slice(dout.as_slice());
        net_b.backward_ws(&x, &grad_buf);
        opt_b.step_fused(net_b.param_tensor_count(), |f| net_b.for_each_param_grad(f));
    }
    for (la, lb) in net_a.export_all().iter().zip(net_b.export_all().iter()) {
        for (x, y) in la.iter().zip(lb) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "dims {dims:?}: weight bits differ"
            );
        }
    }
}

/// Zeros in `A` meeting ±∞ in `B`: the reference skips those terms, so
/// its output is finite there. The `_noskip` entry points must notice
/// the non-finite operand, keep the skip, and leak no `0 * ∞ = NaN`.
#[test]
fn noskip_entry_points_keep_the_skip_for_infinite_operands() {
    for &n in &NOSKIP_WIDTHS {
        let (m, k) = (5, 7);
        // A: every even column zero (±0), odd columns finite.
        let a = Matrix::from_fn(m, k, |r, c| match c % 2 {
            0 if r % 2 == 0 => 0.0,
            0 => -0.0,
            _ => (r * k + c) as f64 * 0.25 - 3.0,
        });
        // B: ±∞ exactly in the rows that meet A's zero columns.
        let b = Matrix::from_fn(k, n, |r, c| match (r % 2, c % 2) {
            (0, 0) => f64::INFINITY,
            (0, _) => f64::NEG_INFINITY,
            _ => (r + c) as f64 * 0.5 - 1.0,
        });
        let want = a.matmul_reference(&b);
        assert!(
            want.as_slice().iter().all(|v| v.is_finite()),
            "n {n}: oracle"
        );
        let mut out = Matrix::default();
        a.matmul_noskip_into(&b, || b.all_finite(), &mut out);
        assert_bits_eq(&out, &want, "matmul_noskip_into with ∞ in B");

        // Aᵀ·B: A's zero columns meet ∞ in the same rows of B.
        let at = a.transpose();
        let bt = Matrix::from_fn(k, n, |r, c| if r % 2 == 0 { b.get(r, c) } else { 1.5 });
        let want = at.t_matmul_reference(&bt);
        assert!(
            want.as_slice().iter().all(|v| !v.is_nan()),
            "n {n}: t oracle"
        );
        at.t_matmul_noskip_into(&bt, || bt.all_finite(), &mut out);
        assert_bits_eq(&out, &want, "t_matmul_noskip_into with ∞ in B");
    }
}

/// Bitwise equality, except that two NaNs match regardless of payload
/// (see the module docs for why payloads are a codegen artifact).
fn bits_match(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            bits_match(x, y),
            "{what}: element {i} differs: {x:?} ({:#018x}) vs {y:?} ({:#018x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

proptest! {
    /// `matmul_into` (blocked, unroll-by-4) is bit-identical to the
    /// naive `matmul_reference` for every shape, including dims not
    /// divisible by 4 and degenerate 1-wide cases.
    #[test]
    fn matmul_into_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..11,
    ) {
        let g = &mut Gen(seed);
        let a = g.matrix(m, k);
        let b = g.matrix(k, n);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_bits_eq(&out, &a.matmul_reference(&b), "matmul_into");
        // The allocating wrapper delegates to the same kernel.
        assert_bits_eq(&a.matmul(&b), &a.matmul_reference(&b), "matmul");
    }

    /// `t_matmul_into` (Aᵀ·B) is bit-identical to `t_matmul_reference`.
    #[test]
    fn t_matmul_into_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..11,
    ) {
        let g = &mut Gen(seed);
        let a = g.matrix(m, k);
        let b = g.matrix(m, n);
        let mut out = Matrix::default();
        a.t_matmul_into(&b, &mut out);
        assert_bits_eq(&out, &a.t_matmul_reference(&b), "t_matmul_into");
        let _ = k;
    }

    /// The skip-free `matmul_noskip_into` is bit-identical to
    /// `matmul_reference` on finite right operands (zeros, -0.0 and
    /// subnormals included), and on arbitrary ones, where it must fall
    /// back to the skip. `A` keeps NaN and ±∞.
    #[test]
    fn matmul_noskip_into_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        ni in 0usize..NOSKIP_WIDTHS.len(),
    ) {
        let g = &mut Gen(seed);
        let n = NOSKIP_WIDTHS[ni];
        let a = g.matrix(m, k);
        let mut out = Matrix::default();
        for b in [g.finite_matrix(k, n), g.matrix(k, n)] {
            a.matmul_noskip_into(&b, || b.all_finite(), &mut out);
            assert_bits_eq(&out, &a.matmul_reference(&b), "matmul_noskip_into");
        }
        // ReLU-shaped A (exact zeros, finite): the DQN hot case.
        let a = Matrix::from_fn(m, k, |_, _| g.finite_value().max(0.0));
        let b = g.finite_matrix(k, n);
        a.matmul_noskip_into(&b, || b.all_finite(), &mut out);
        assert_bits_eq(&out, &a.matmul_reference(&b), "matmul_noskip_into relu");
    }

    /// `t_matmul_noskip_into` (Aᵀ·B) is bit-identical to
    /// `t_matmul_reference` on finite and on arbitrary right operands.
    #[test]
    fn t_matmul_noskip_into_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        ni in 0usize..NOSKIP_WIDTHS.len(),
    ) {
        let g = &mut Gen(seed);
        let n = NOSKIP_WIDTHS[ni];
        let a = g.matrix(m, k);
        let mut out = Matrix::default();
        for b in [g.finite_matrix(m, n), g.matrix(m, n)] {
            a.t_matmul_noskip_into(&b, || b.all_finite(), &mut out);
            assert_bits_eq(&out, &a.t_matmul_reference(&b), "t_matmul_noskip_into");
        }
        let a = Matrix::from_fn(m, k, |_, _| g.finite_value().max(0.0));
        let b = g.finite_matrix(m, n);
        a.t_matmul_noskip_into(&b, || b.all_finite(), &mut out);
        assert_bits_eq(&out, &a.t_matmul_reference(&b), "t_matmul_noskip_into relu");
    }

    /// `matmul_t_into` (A·Bᵀ) is bit-identical to `matmul_t_reference`,
    /// and so is `matmul_cached_t_into` over a pre-transposed `rhs` —
    /// the cached-transpose path the backward passes use.
    #[test]
    fn matmul_t_variants_match_reference_bitwise(
        seed in 0u64..u64::MAX,
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..11,
    ) {
        let g = &mut Gen(seed);
        let a = g.matrix(m, k);
        let b = g.matrix(n, k);
        let reference = a.matmul_t_reference(&b);
        let mut out = Matrix::default();
        a.matmul_t_into(&b, &mut out);
        assert_bits_eq(&out, &reference, "matmul_t_into");
        let b_t = b.transpose();
        a.matmul_cached_t_into(&b_t, &mut out);
        assert_bits_eq(&out, &reference, "matmul_cached_t_into");
    }

    /// `Adam::step_fused` applies the exact per-element update of the
    /// pair-based `Optimizer::step`, bit for bit, across multiple steps
    /// (so the first-moment history and bias correction agree too).
    #[test]
    fn adam_step_fused_matches_step_bitwise(
        seed in 0u64..u64::MAX,
        tensors in 1usize..5,
        steps in 1usize..5,
    ) {
        let g = &mut Gen(seed);
        let lens: Vec<usize> = (0..tensors).map(|_| 1 + g.below(9) as usize).collect();
        let mut w_a: Vec<Vec<f64>> =
            lens.iter().map(|&l| (0..l).map(|_| g.value()).collect()).collect();
        let mut w_b = w_a.clone();
        let mut opt_a = Adam::new(1e-2);
        let mut opt_b = Adam::new(1e-2);
        for _ in 0..steps {
            let grads: Vec<Vec<f64>> =
                lens.iter().map(|&l| (0..l).map(|_| g.value()).collect()).collect();
            let mut pairs: Vec<(&mut [f64], &[f64])> = w_a
                .iter_mut()
                .zip(&grads)
                .map(|(w, g)| (&mut w[..], &g[..]))
                .collect();
            opt_a.step(&mut pairs);
            opt_b.step_fused(tensors, |f| {
                for (i, (w, g)) in w_b.iter_mut().zip(&grads).enumerate() {
                    f(i, w, g);
                }
            });
        }
        for (a, b) in w_a.iter().zip(&w_b) {
            for (&x, &y) in a.iter().zip(b) {
                prop_assert!(bits_match(x, y));
            }
        }
        let (sa, sb) = (opt_a.export_state(), opt_b.export_state());
        prop_assert_eq!(sa.t, sb.t);
        for (ma, mb) in sa.m.iter().zip(&sb.m).chain(sa.v.iter().zip(&sb.v)) {
            for (&x, &y) in ma.iter().zip(mb) {
                prop_assert!(bits_match(x, y));
            }
        }
    }

    /// End to end: training an MLP through the workspace path
    /// (`forward_ws`/`backward_ws`/`step_fused`) yields bit-identical
    /// weights to the allocating path (`forward`/`backward`/`step`) on
    /// the twin network — on a toy shape and on the shipped Q-net
    /// shapes: `SimConfig::tiny`'s 3x12 at batch 16 and the repro 8x16
    /// over the 14-wide state at batch 24.
    #[test]
    fn ws_training_path_matches_allocating_path_bitwise(
        seed in 0u64..u64::MAX,
        steps in 1usize..4,
        batch in 1usize..5,
    ) {
        check_ws_training_matches_allocating(&[3, 5, 2], batch, steps, seed);
        check_ws_training_matches_allocating(&[12, 12, 12, 12, 3], 16, steps, seed);
        let mut repro = vec![14];
        repro.extend([16; 8]);
        repro.push(3);
        check_ws_training_matches_allocating(&repro, 24, steps, seed);
    }
}
