//! Dense row-major matrix used by every layer in the library.
//!
//! The networks in PFDRL are small (at most a few hundred units per layer)
//! but their forward/backward kernels run millions of times per simulated
//! day, so the hot products come in two flavors: allocating wrappers
//! (`matmul`, `t_matmul`, `matmul_t`) and non-allocating `_into` variants
//! that write into a caller-owned buffer. For the layer widths the
//! workspace actually uses, the `_into` kernels hold each output row in a
//! const-width register accumulator across the whole reduction, but keep
//! the per-element `k`-accumulation order of the original scalar `ikj`
//! loops, so results are **bit-identical** to the retained `*_reference`
//! oracles — a hard requirement, since checkpoint resume is verified
//! bit-for-bit. The reference loops skip `a == 0.0` terms; the `_noskip`
//! entry points drop that branch when the right operand is all finite,
//! where the skip cannot change a bit.

use serde::{Deserialize, Serialize};

/// Monomorphizes a kernel call over the output widths this workspace
/// actually produces — LSTM hidden/concat widths (24, 27), MLP hidden
/// widths (12, 16, 48, 100), the repro DQN state width (14),
/// action/head widths (1..4) and a few small sizes the property tests
/// exercise — falling back to the generic SAXPY loop for anything else.
/// The bracketed const argument forwards the kernel's zero-skip flag.
macro_rules! dispatch_acc {
    ($n:expr, [$($skip:tt)*], $run:ident($($a:expr),*), $fallback:expr) => {
        match $n {
            1 => $run::<1, $($skip)*>($($a),*),
            2 => $run::<2, $($skip)*>($($a),*),
            3 => $run::<3, $($skip)*>($($a),*),
            4 => $run::<4, $($skip)*>($($a),*),
            6 => $run::<6, $($skip)*>($($a),*),
            8 => $run::<8, $($skip)*>($($a),*),
            12 => $run::<12, $($skip)*>($($a),*),
            14 => $run::<14, $($skip)*>($($a),*),
            16 => $run::<16, $($skip)*>($($a),*),
            24 => $run::<24, $($skip)*>($($a),*),
            27 => $run::<27, $($skip)*>($($a),*),
            32 => $run::<32, $($skip)*>($($a),*),
            48 => $run::<48, $($skip)*>($($a),*),
            100 => $run::<100, $($skip)*>($($a),*),
            _ => $fallback,
        }
    };
}

/// Widest output for which two register accumulators still fit the
/// vector register file: the kernels pair output rows up to this width,
/// and the `_noskip` entry points drop the zero-skip only up to it.
/// Wider rows cost enough per `a` that skipping a zero outweighs the
/// branch (measured on the 8x100 paper Q-net).
const NARROW_N: usize = 27;

/// `A(m x k) * B(k x N)` with each output row kept in an `[f64; N]`
/// accumulator: the compiler maps the accumulator to vector registers,
/// so the row is stored exactly once instead of being reloaded per `k`.
/// Per output column the sum runs in ascending `k` from `0.0`, skipping
/// `a == 0.0` terms iff `SKIP` — the reference `ikj` order, bit for bit.
///
/// Narrow widths (`N <= NARROW_N`) process output rows in pairs sharing one
/// stream of `B` rows, halving the `B` load traffic. Each row's
/// accumulation chain is exactly the single-row chain — pairing only
/// reorders *independent* per-row sums, so bits are unchanged.
fn matmul_acc_rows<const N: usize, const SKIP: bool>(
    a: &[f64],
    k: usize,
    b: &[f64],
    out: &mut [f64],
) {
    let mut a_tail = a;
    let mut out_tail = out;
    if N <= NARROW_N {
        let pairs = (a_tail.len() / k) / 2;
        let (a2, ar) = a_tail.split_at(pairs * 2 * k);
        let (o2, or) = out_tail.split_at_mut(pairs * 2 * N);
        for (a_pair, o_pair) in a2.chunks_exact(2 * k).zip(o2.chunks_exact_mut(2 * N)) {
            let (a0, a1) = a_pair.split_at(k);
            let mut acc0 = [0.0f64; N];
            let mut acc1 = [0.0f64; N];
            for ((&av0, &av1), b_row) in a0.iter().zip(a1.iter()).zip(b.chunks_exact(N)) {
                let skip0 = SKIP && av0 == 0.0;
                let skip1 = SKIP && av1 == 0.0;
                if !skip0 && !skip1 {
                    for ((o0, o1), &bv) in acc0.iter_mut().zip(acc1.iter_mut()).zip(b_row) {
                        *o0 += av0 * bv;
                        *o1 += av1 * bv;
                    }
                } else if !skip0 {
                    for (o0, &bv) in acc0.iter_mut().zip(b_row) {
                        *o0 += av0 * bv;
                    }
                } else if !skip1 {
                    for (o1, &bv) in acc1.iter_mut().zip(b_row) {
                        *o1 += av1 * bv;
                    }
                }
            }
            let (out0, out1) = o_pair.split_at_mut(N);
            out0.copy_from_slice(&acc0);
            out1.copy_from_slice(&acc1);
        }
        a_tail = ar;
        out_tail = or;
    }
    for (a_row, out_row) in a_tail.chunks_exact(k).zip(out_tail.chunks_exact_mut(N)) {
        let mut acc = [0.0f64; N];
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(N)) {
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out_row.copy_from_slice(&acc);
    }
}

/// `Aᵀ(k x m) * B(m x N)` with register-tile accumulation: output row
/// `ck` sums `a[r][ck] * b[r]` over rows `r` in ascending order from
/// `0.0`, skipping `a == 0.0` iff `SKIP` — the reference order exactly.
/// `A` and `B` are re-streamed once per output row; at the layer sizes
/// dispatched here both stay L1-resident.
fn t_matmul_acc_rows<const N: usize, const SKIP: bool>(
    a: &[f64],
    k: usize,
    b: &[f64],
    out: &mut [f64],
) {
    let n_rows = out.len() / N;
    let mut ck = 0usize;
    let mut out_rows = out.chunks_exact_mut(N);
    // Narrow widths pair output rows (adjacent columns of `a`) so one
    // pass over `A`/`B` feeds two register accumulators; each row's
    // per-element sum order is untouched, so bits match the single-row
    // loop below.
    if N <= NARROW_N {
        while ck + 2 <= n_rows {
            let out0 = out_rows.next().expect("paired output row");
            let out1 = out_rows.next().expect("paired output row");
            let mut acc0 = [0.0f64; N];
            let mut acc1 = [0.0f64; N];
            for (a_row, b_row) in a.chunks_exact(k).zip(b.chunks_exact(N)) {
                let av0 = a_row[ck];
                let av1 = a_row[ck + 1];
                let skip0 = SKIP && av0 == 0.0;
                let skip1 = SKIP && av1 == 0.0;
                if !skip0 && !skip1 {
                    for ((o0, o1), &bv) in acc0.iter_mut().zip(acc1.iter_mut()).zip(b_row) {
                        *o0 += av0 * bv;
                        *o1 += av1 * bv;
                    }
                } else if !skip0 {
                    for (o0, &bv) in acc0.iter_mut().zip(b_row) {
                        *o0 += av0 * bv;
                    }
                } else if !skip1 {
                    for (o1, &bv) in acc1.iter_mut().zip(b_row) {
                        *o1 += av1 * bv;
                    }
                }
            }
            out0.copy_from_slice(&acc0);
            out1.copy_from_slice(&acc1);
            ck += 2;
        }
    }
    for out_row in out_rows {
        let mut acc = [0.0f64; N];
        for (a_row, b_row) in a.chunks_exact(k).zip(b.chunks_exact(N)) {
            let av = a_row[ck];
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out_row.copy_from_slice(&acc);
        ck += 1;
    }
}

/// Row-streaming SAXPY `A(m x k) * B(k x n)` for widths without a
/// register kernel: the same ascending-`k` sum per output element (and
/// the same `SKIP`) as [`matmul_acc_rows`], reloading the output row for
/// every `a[i][k]`.
fn matmul_saxpy_rows<const SKIP: bool>(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    out.fill(0.0);
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Row-streaming `Aᵀ(k x m) * B(m x n)` for widths without a register
/// kernel; per output element the sum order of [`t_matmul_acc_rows`].
fn t_matmul_saxpy_rows<const SKIP: bool>(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    out.fill(0.0);
    for (a_row, b_row) in a.chunks_exact(k.max(1)).zip(b.chunks_exact(n)) {
        for (out_row, &av) in out.chunks_exact_mut(n).zip(a_row) {
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1 x n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether every element is finite (no NaN, no ±∞): the condition
    /// under which [`Matrix::matmul_noskip_into`] and
    /// [`Matrix::t_matmul_noskip_into`] may drop the zero-skip. One
    /// branch-free fold, so it vectorizes.
    pub fn all_finite(&self) -> bool {
        self.data.iter().fold(true, |ok, v| ok & v.is_finite())
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over immutable row slices (bounds-check-free).
    #[inline]
    pub fn rows_iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Reshapes to `rows x cols` in place, reusing the existing
    /// allocation whenever capacity allows. Element values after the
    /// call are unspecified — callers must overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * rhs`. Delegates to [`Matrix::matmul_into`];
    /// bit-identical to [`Matrix::matmul_reference`].
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `selfᵀ * rhs` without materializing the transpose. Delegates to
    /// [`Matrix::t_matmul_into`].
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// `self * rhsᵀ` without materializing the transpose. Delegates to
    /// [`Matrix::matmul_t_into`].
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// Non-allocating `self * rhs` into `out` (resized to fit, reusing
    /// its buffer). Bit-identical to [`Matrix::matmul_reference`].
    ///
    /// For the layer widths this workspace actually uses (see
    /// [`dispatch_acc`]) the output row is held in a const-width stack
    /// array across the whole `k` loop, so the compiler keeps it in
    /// vector registers and the row is stored exactly once — roughly
    /// halving the kernel's memory traffic versus the row-streaming
    /// SAXPY fallback, which reloads and restores the output row for
    /// every `a[i][k]`. Both forms visit each output column as an
    /// independent `k`-sum in ascending `k` order with the reference
    /// loop's `a == 0.0` skip, and an accumulator starting from `0.0`
    /// is indistinguishable from a zero-filled output row, so every
    /// output bit matches the reference.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_matmul(rhs, "matmul_into");
        self.matmul_kernel::<true>(rhs, out);
    }

    /// [`Matrix::matmul_into`] without the `a == 0.0` skip whenever
    /// `rhs` is at most `NARROW_N` (27) wide and all finite.
    /// `rhs_finite` must return [`Matrix::all_finite`] of `rhs`; it is
    /// called only for narrow `rhs`, so callers can cache the answer or
    /// skip the scan. Still bit-identical to
    /// [`Matrix::matmul_reference`] on every input:
    ///
    /// every accumulator starts at `+0.0` and, under round-to-nearest,
    /// can never become `-0.0` (`x + (-x) = +0`, `+0 + -0 = +0`), so a
    /// skipped term `0 * b = ±0` with finite `b` leaves it bit for bit
    /// unchanged. Only `0 * ±∞ = NaN` makes the skip observable, and a
    /// non-finite `rhs` takes the skipping kernel. Dropping the branch
    /// pays off on ReLU activations, whose data-dependent zeros make it
    /// mispredict.
    pub fn matmul_noskip_into(
        &self,
        rhs: &Matrix,
        rhs_finite: impl FnOnce() -> bool,
        out: &mut Matrix,
    ) {
        self.check_matmul(rhs, "matmul_noskip_into");
        if rhs.narrow_and_finite(rhs_finite) {
            self.matmul_kernel::<false>(rhs, out);
        } else {
            self.matmul_kernel::<true>(rhs, out);
        }
    }

    /// Whether a `_noskip` product with `self` on the right may drop the
    /// zero-skip: `self` is narrow and `finite()` (its finiteness,
    /// evaluated only when narrow) holds.
    fn narrow_and_finite(&self, finite: impl FnOnce() -> bool) -> bool {
        if self.cols > NARROW_N {
            return false;
        }
        let finite = finite();
        debug_assert_eq!(finite, self.all_finite(), "stale finiteness");
        finite
    }

    fn check_matmul(&self, rhs: &Matrix, what: &str) {
        assert_eq!(
            self.cols, rhs.rows,
            "{what}: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    /// `self * rhs` into `out` through the register kernel for `rhs`'s
    /// width (SAXPY fallback otherwise), skipping `a == 0.0` iff `SKIP`.
    fn matmul_kernel<const SKIP: bool>(&self, rhs: &Matrix, out: &mut Matrix) {
        out.resize(self.rows, rhs.cols);
        let (k, n) = (self.cols, rhs.cols);
        if n == 0 {
            return;
        }
        if k == 0 {
            out.fill_zero();
            return;
        }
        dispatch_acc!(
            n,
            [SKIP],
            matmul_acc_rows(&self.data, k, &rhs.data, &mut out.data),
            matmul_saxpy_rows::<SKIP>(&self.data, k, &rhs.data, n, &mut out.data)
        );
    }

    /// Non-allocating `selfᵀ * rhs` into `out`. Bit-identical to
    /// [`Matrix::t_matmul_reference`].
    ///
    /// Dispatch-width shapes accumulate each output row (one per column
    /// of `self`) in a const-width register tile over the shared row
    /// dimension; the summation order per output element (ascending row
    /// index, skipping `a == 0.0`) is exactly the reference loop's.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_t_matmul(rhs, "t_matmul_into");
        self.t_matmul_kernel::<true>(rhs, out);
    }

    /// [`Matrix::t_matmul_into`] without the `a == 0.0` skip whenever
    /// `rhs` is at most `NARROW_N` (27) wide and all finite, with the
    /// `rhs_finite` contract of [`Matrix::matmul_noskip_into`];
    /// bit-identical to [`Matrix::t_matmul_reference`] for the reason
    /// given there.
    pub fn t_matmul_noskip_into(
        &self,
        rhs: &Matrix,
        rhs_finite: impl FnOnce() -> bool,
        out: &mut Matrix,
    ) {
        self.check_t_matmul(rhs, "t_matmul_noskip_into");
        if rhs.narrow_and_finite(rhs_finite) {
            self.t_matmul_kernel::<false>(rhs, out);
        } else {
            self.t_matmul_kernel::<true>(rhs, out);
        }
    }

    fn check_t_matmul(&self, rhs: &Matrix, what: &str) {
        assert_eq!(
            self.rows, rhs.rows,
            "{what}: {}x{} ᵀ* {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    fn t_matmul_kernel<const SKIP: bool>(&self, rhs: &Matrix, out: &mut Matrix) {
        out.resize(self.cols, rhs.cols);
        let n = rhs.cols;
        if n == 0 {
            return;
        }
        dispatch_acc!(
            n,
            [SKIP],
            t_matmul_acc_rows(&self.data, self.cols, &rhs.data, &mut out.data),
            t_matmul_saxpy_rows::<SKIP>(&self.data, self.cols, &rhs.data, n, &mut out.data)
        );
    }

    /// Non-allocating `self * rhsᵀ` into `out`. Bit-identical to
    /// [`Matrix::matmul_t_reference`].
    ///
    /// Unrolled by 4 over `rhs` rows: four independent dot products share
    /// one pass over `a_row`, giving instruction-level parallelism. Each
    /// dot still accumulates in ascending `k` order from 0.0 (no
    /// zero-skip — the reference loop has none), so bits match.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t_into: {}x{} * {}x{}ᵀ dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.rows);
        if self.cols == 0 {
            out.fill_zero();
            return;
        }
        let k = self.cols;
        for (a_row, out_row) in self
            .data
            .chunks_exact(k)
            .zip(out.data.chunks_exact_mut(rhs.rows.max(1)))
        {
            let mut b_rows = rhs.data.chunks_exact(k);
            let mut j = 0;
            while j + 4 <= rhs.rows {
                let b0 = b_rows.next().expect("rhs row");
                let b1 = b_rows.next().expect("rhs row");
                let b2 = b_rows.next().expect("rhs row");
                let b3 = b_rows.next().expect("rhs row");
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for (i, &a) in a_row.iter().enumerate() {
                    s0 += a * b0[i];
                    s1 += a * b1[i];
                    s2 += a * b2[i];
                    s3 += a * b3[i];
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += 4;
            }
            for o in &mut out_row[j..] {
                let b_row = b_rows.next().expect("rhs row");
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// Non-allocating `self * rhsᵀ` given the **already transposed**
    /// right-hand side: `rhs_t` must equal `rhs.transpose()`. Bit-identical
    /// to `self.matmul_t(&rhs)` — each output element accumulates in the
    /// same ascending `k` order from 0.0 with no zero-skip (the direct
    /// kernel has none) — but in row-streaming SAXPY form over `rhs_t`,
    /// which vectorizes across output columns where the direct kernel's
    /// per-element dot products cannot. Layers cache the transposed
    /// weight and invalidate it whenever weights mutate.
    pub fn matmul_cached_t_into(&self, rhs_t: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs_t.rows,
            "matmul_cached_t_into: {}x{} * ({}x{})ᵀᵀ dimension mismatch",
            self.rows, self.cols, rhs_t.rows, rhs_t.cols
        );
        self.matmul_kernel::<false>(rhs_t, out);
    }

    /// The original scalar `ikj` matmul, kept verbatim as the
    /// bit-identity oracle the optimized kernels are proptested against.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_reference: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The original `selfᵀ * rhs` loop, kept as the bit-identity oracle.
    pub fn t_matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul_reference: {}x{} ᵀ* {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let b_row = &rhs.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The original `self * rhsᵀ` loop, kept as the bit-identity oracle.
    pub fn matmul_t_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t_reference: {}x{} * {}x{}ᵀ dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `rhs` elementwise in place.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Adds `scale * rhs` elementwise in place (axpy).
    pub fn add_scaled(&mut self, scale: f64, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add_scaled shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Adds the row vector `bias` to every row in place.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(self.cols, bias.len(), "add_row_broadcast width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Adds the row vector `bias` and applies `f`, in one traversal.
    /// Bit-identical to [`Matrix::add_row_broadcast`] followed by
    /// [`Matrix::map_inplace`]: the sum is rounded once before `f` is
    /// applied either way.
    pub fn add_row_broadcast_map(&mut self, bias: &[f64], f: impl Fn(f64) -> f64) {
        assert_eq!(self.cols, bias.len(), "add_row_broadcast width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v = f(*v + b);
            }
        }
    }

    /// Elementwise (Hadamard) product in place.
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a *= b;
        }
    }

    /// Elementwise (Hadamard) product, allocating the result.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.hadamard_assign(rhs);
        out
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Sum of every column, returning a `cols`-length vector.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Non-allocating transpose into `out` (resized to fit).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Sum of every column into `out` (overwritten). Bit-identical to
    /// [`Matrix::col_sums`].
    ///
    /// # Panics
    /// Panics if `out.len() != self.cols`.
    pub fn col_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "col_sums_into width mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns `max |a - b|` over corresponding elements.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "max_abs_diff shape mismatch"
        );
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_has_right_shape_and_content() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 0), 10.0);
        assert_eq!(a.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_panics_on_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_panics_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_to_every_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_sums_down_columns() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn hadamard_is_elementwise() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
    }

    #[test]
    fn norm_of_3_4_vector_is_5() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rows_views_are_consistent() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }

    #[test]
    fn serde_round_trip() {
        let a = m(2, 2, &[1.5, -2.0, 0.0, 4.25]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
