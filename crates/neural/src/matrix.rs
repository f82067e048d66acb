//! Dense row-major `f32` matrices with cache-blocked, autovectorization-
//! friendly kernels.
//!
//! ## Kernel design
//!
//! `matmul` (and the fused [`Matrix::dense_forward`]) uses a register-
//! accumulator micro-kernel: each 2×`NR` output tile is held in
//! vector registers across the entire reduction, so the inner loop is
//! four `b` vector loads plus two broadcasts feeding 2·`NR`
//! multiply-adds — no output reload/store per reduction step. `t_matmul`
//! uses the same tile shape with its coefficient loads walking columns
//! of `a`, and `matmul_t` computes 2×4 output tiles as eight independent
//! ascending-index dot chains (instruction-level parallelism without
//! reassociation). In all three, SIMD lanes map to adjacent output
//! columns — LLVM autovectorizes without horizontal reductions.
//!
//! **Bit-stability invariant:** every output element accumulates its
//! reduction terms in strictly ascending index order — the unroll adds
//! the four products *sequentially* per lane — so results are bitwise
//! identical to the naive kernels, at any thread count, with or without
//! the fused epilogue. Training trajectories (and therefore every seeded
//! test fixture) are unchanged by this rewrite.
//!
//! Large products fan out across row chunks on the shared persistent
//! [`crate::pool`] (no per-call thread spawning). Parallel tasks are
//! `'static`, so the inputs are cloned behind `Arc` for the dispatch —
//! an O(m·k + k·n) copy under an O(m·k·n) multiply, only paid above
//! `PAR_THRESHOLD_FLOPS`.
//!
//! [`Matrix::dense_forward`] is the fused dense-layer kernel: GEMM, bias
//! add, and optional ReLU in one pass, applying the epilogue per row
//! tile while the tile is cache-hot instead of re-sweeping the output.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Multiply-accumulate flop count (`m·k·n`) above which a product fans
/// out across the worker pool; below it the dispatch + input-clone cost
/// outweighs the parallel win.
const PAR_THRESHOLD_FLOPS: usize = 1 << 22;

/// Minimum output rows before a product is worth splitting across tasks.
const PAR_MIN_ROWS: usize = 8;

/// Minimum output rows at which `matmul_t` materializes the transposed
/// right-hand side and switches to the register-tiled GEMM; below it the
/// O(q·k) transpose rivals the product itself.
const MT_TRANSPOSE_MIN_ROWS: usize = 16;

/// Output-column register tile width (four 8-lane `f32` vectors): the
/// 2×`NR` accumulator tile of [`gemm_kernel`] lives in registers for
/// the whole reduction, so the inner loop issues four `b` vector loads
/// plus two broadcasts per 2·`NR` multiply-adds instead of reloading
/// and restoring the output row at every reduction step.
const NR: usize = 32;

/// Store an accumulated row segment (`out += acc`), applying the optional
/// bias/ReLU epilogue in the same order as the unfused sweeps.
#[inline]
fn store_row(orow: &mut [f32], acc: &[f32], bias: Option<&[f32]>, relu: bool) {
    match bias {
        Some(bias) if relu => {
            for ((o, &s), &bv) in orow.iter_mut().zip(acc).zip(bias) {
                *o = (*o + s + bv).max(0.0);
            }
        }
        Some(bias) => {
            for ((o, &s), &bv) in orow.iter_mut().zip(acc).zip(bias) {
                *o = *o + s + bv;
            }
        }
        None => {
            for (o, &s) in orow.iter_mut().zip(acc) {
                *o += s;
            }
        }
    }
}

/// Register-tiled `out += a[r0..r1) · b` for row-major `a` (`k` columns)
/// and `b` (`k`×`n`), with an optional fused bias/ReLU epilogue applied
/// as each output tile is stored.
///
/// Each 2×`NR` output tile accumulates in registers across the entire
/// reduction (one add per element per `t`, strictly ascending — the
/// bit-stability invariant), then is written back exactly once. The
/// explicit per-row accumulator arrays and fixed-trip `NR` loops are
/// what lets LLVM keep the tile in vector registers.
#[allow(clippy::too_many_arguments)]
fn gemm_kernel(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    r0: usize,
    r1: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    debug_assert_eq!(out.len(), (r1 - r0) * n);
    if n == 0 {
        return;
    }
    let jfull = n - n % NR;
    let mut r = r0;
    // Full two-row tiles.
    while r + 2 <= r1 {
        let ar0 = &a[r * k..(r + 1) * k];
        let ar1 = &a[(r + 1) * k..(r + 2) * k];
        let mut j = 0;
        while j < jfull {
            let mut acc0 = [0.0f32; NR];
            let mut acc1 = [0.0f32; NR];
            for t in 0..k {
                let bt: &[f32; NR] = b[t * n + j..t * n + j + NR].try_into().expect("NR-wide b tile");
                let a0 = ar0[t];
                let a1 = ar1[t];
                for jj in 0..NR {
                    acc0[jj] += a0 * bt[jj];
                    acc1[jj] += a1 * bt[jj];
                }
            }
            let o0 = (r - r0) * n + j;
            store_row(&mut out[o0..o0 + NR], &acc0, bias.map(|bv| &bv[j..j + NR]), relu);
            let o1 = (r + 1 - r0) * n + j;
            store_row(&mut out[o1..o1 + NR], &acc1, bias.map(|bv| &bv[j..j + NR]), relu);
            j += NR;
        }
        if j < n {
            // Column remainder (width < NR): same accumulation order over
            // a partially used tile.
            let w = n - j;
            let mut acc0 = [0.0f32; NR];
            let mut acc1 = [0.0f32; NR];
            for t in 0..k {
                let btail = &b[t * n + j..t * n + j + w];
                let a0 = ar0[t];
                let a1 = ar1[t];
                for (jj, &bv) in btail.iter().enumerate() {
                    acc0[jj] += a0 * bv;
                    acc1[jj] += a1 * bv;
                }
            }
            let o0 = (r - r0) * n + j;
            store_row(&mut out[o0..o0 + w], &acc0[..w], bias.map(|bv| &bv[j..]), relu);
            let o1 = (r + 1 - r0) * n + j;
            store_row(&mut out[o1..o1 + w], &acc1[..w], bias.map(|bv| &bv[j..]), relu);
        }
        r += 2;
    }
    // Row remainder: one row at a time.
    while r < r1 {
        let arow = &a[r * k..(r + 1) * k];
        let mut j = 0;
        while j < jfull {
            let mut acc = [0.0f32; NR];
            for t in 0..k {
                let bt: &[f32; NR] = b[t * n + j..t * n + j + NR].try_into().expect("NR-wide b tile");
                let av = arow[t];
                for (s, &bv) in acc.iter_mut().zip(bt) {
                    *s += av * bv;
                }
            }
            let o0 = (r - r0) * n + j;
            store_row(&mut out[o0..o0 + NR], &acc, bias.map(|bv| &bv[j..j + NR]), relu);
            j += NR;
        }
        if j < n {
            let w = n - j;
            let mut acc = [0.0f32; NR];
            for t in 0..k {
                let btail = &b[t * n + j..t * n + j + w];
                let av = arow[t];
                for (s, &bv) in acc[..w].iter_mut().zip(btail) {
                    *s += av * bv;
                }
            }
            let o0 = (r - r0) * n + j;
            store_row(&mut out[o0..o0 + w], &acc[..w], bias.map(|bv| &bv[j..]), relu);
        }
        r += 1;
    }
}

/// Register-tiled `out[i0..i1) += (aᵀ · b)` rows for row-major `a`
/// (`rows`×`p`, reduced over its rows) and `b` (`rows`×`n`). Same 2×[`NR`]
/// register-accumulator shape as [`gemm_kernel`] — the only difference is
/// that the two coefficient loads per step walk a column of `a` (stride
/// `p`). Reduction stays in ascending row order per element.
#[allow(clippy::too_many_arguments)]
fn tgemm_kernel(a: &[f32], b: &[f32], rows: usize, p: usize, n: usize, i0: usize, i1: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), (i1 - i0) * n);
    if n == 0 {
        return;
    }
    let jfull = n - n % NR;
    let mut i = i0;
    while i + 2 <= i1 {
        let mut j = 0;
        while j < jfull {
            let mut acc0 = [0.0f32; NR];
            let mut acc1 = [0.0f32; NR];
            for r in 0..rows {
                let bt: &[f32; NR] = b[r * n + j..r * n + j + NR].try_into().expect("NR-wide b tile");
                let a0 = a[r * p + i];
                let a1 = a[r * p + i + 1];
                for jj in 0..NR {
                    acc0[jj] += a0 * bt[jj];
                    acc1[jj] += a1 * bt[jj];
                }
            }
            let o0 = (i - i0) * n + j;
            for (o, &s) in out[o0..o0 + NR].iter_mut().zip(&acc0) {
                *o += s;
            }
            let o1 = (i + 1 - i0) * n + j;
            for (o, &s) in out[o1..o1 + NR].iter_mut().zip(&acc1) {
                *o += s;
            }
            j += NR;
        }
        if j < n {
            let w = n - j;
            let mut acc0 = [0.0f32; NR];
            let mut acc1 = [0.0f32; NR];
            for r in 0..rows {
                let btail = &b[r * n + j..r * n + j + w];
                let a0 = a[r * p + i];
                let a1 = a[r * p + i + 1];
                for (jj, &bv) in btail.iter().enumerate() {
                    acc0[jj] += a0 * bv;
                    acc1[jj] += a1 * bv;
                }
            }
            let o0 = (i - i0) * n + j;
            for (o, &s) in out[o0..o0 + w].iter_mut().zip(&acc0[..w]) {
                *o += s;
            }
            let o1 = (i + 1 - i0) * n + j;
            for (o, &s) in out[o1..o1 + w].iter_mut().zip(&acc1[..w]) {
                *o += s;
            }
        }
        i += 2;
    }
    while i < i1 {
        let mut j = 0;
        while j < jfull {
            let mut acc = [0.0f32; NR];
            for r in 0..rows {
                let bt: &[f32; NR] = b[r * n + j..r * n + j + NR].try_into().expect("NR-wide b tile");
                let av = a[r * p + i];
                for jj in 0..NR {
                    acc[jj] += av * bt[jj];
                }
            }
            let o0 = (i - i0) * n + j;
            for (o, &s) in out[o0..o0 + NR].iter_mut().zip(&acc) {
                *o += s;
            }
            j += NR;
        }
        if j < n {
            let w = n - j;
            let mut acc = [0.0f32; NR];
            for r in 0..rows {
                let btail = &b[r * n + j..r * n + j + w];
                let av = a[r * p + i];
                for (jj, &bv) in btail.iter().enumerate() {
                    acc[jj] += av * bv;
                }
            }
            let o0 = (i - i0) * n + j;
            for (o, &s) in out[o0..o0 + w].iter_mut().zip(&acc[..w]) {
                *o += s;
            }
        }
        i += 1;
    }
}

/// `out[r0..r1) = a[r0..r1) · bᵀ` for row-major `a` (`k` columns) and `b`
/// (`q`×`k`): dot products against four `b` rows at a time, each as its
/// own ascending-`k` chain (instruction-level parallelism without
/// reassociation).
fn gemm_nt_kernel(a: &[f32], b: &[f32], k: usize, q: usize, r0: usize, r1: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), (r1 - r0) * q);
    const JT: usize = 4;
    let mut r = r0;
    // 2×4 output tiles: eight independent dot chains give the FP units
    // enough in-flight accumulators to hide add latency, and each loaded
    // group of `b` rows is reused across both `a` rows. Every chain is a
    // strictly t-ascending sum, so per-element accumulation order is
    // unchanged.
    while r + 2 <= r1 {
        let ar0 = &a[r * k..(r + 1) * k];
        let ar1 = &a[(r + 1) * k..(r + 2) * k];
        let mut j = 0;
        while j + JT <= q {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s00, mut s01, mut s02, mut s03) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let (mut s10, mut s11, mut s12, mut s13) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for t in 0..k {
                let (v0, v1, v2, v3) = (b0[t], b1[t], b2[t], b3[t]);
                let (a0, a1) = (ar0[t], ar1[t]);
                s00 += a0 * v0;
                s01 += a0 * v1;
                s02 += a0 * v2;
                s03 += a0 * v3;
                s10 += a1 * v0;
                s11 += a1 * v1;
                s12 += a1 * v2;
                s13 += a1 * v3;
            }
            let base0 = (r - r0) * q + j;
            out[base0] = s00;
            out[base0 + 1] = s01;
            out[base0 + 2] = s02;
            out[base0 + 3] = s03;
            let base1 = (r + 1 - r0) * q + j;
            out[base1] = s10;
            out[base1 + 1] = s11;
            out[base1 + 2] = s12;
            out[base1 + 3] = s13;
            j += JT;
        }
        while j < q {
            let brow = &b[j * k..(j + 1) * k];
            let (mut s0, mut s1) = (0.0f32, 0.0f32);
            for t in 0..k {
                s0 += ar0[t] * brow[t];
                s1 += ar1[t] * brow[t];
            }
            out[(r - r0) * q + j] = s0;
            out[(r + 1 - r0) * q + j] = s1;
            j += 1;
        }
        r += 2;
    }
    // Remainder row: four independent chains.
    while r < r1 {
        let arow = &a[r * k..(r + 1) * k];
        let orow = &mut out[(r - r0) * q..(r - r0 + 1) * q];
        let mut j = 0;
        while j + JT <= q {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for ((((&av, &v0), &v1), &v2), &v3) in arow.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                s0 += av * v0;
                s1 += av * v1;
                s2 += av * v2;
                s3 += av * v3;
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += JT;
        }
        while j < q {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            orow[j] = acc;
            j += 1;
        }
        r += 1;
    }
}

/// Width the automatic entry points use for a product of `flops`
/// multiply-accumulates over `rows` output rows.
fn auto_width(flops: usize, rows: usize) -> usize {
    if flops < PAR_THRESHOLD_FLOPS || rows < PAR_MIN_ROWS {
        1
    } else {
        crate::pool::current_width()
    }
}

/// Fill `out` (`rows`×`n`, flattened) by running `make_task(r0, r1)` per
/// contiguous row chunk on the shared pool; `threads <= 1` must be
/// handled by the caller (serial fast path without `Arc` clones).
fn pooled_rows(
    threads: usize,
    rows: usize,
    n: usize,
    out: &mut [f32],
    make_task: impl Fn(usize, usize) -> Box<dyn FnOnce() -> Vec<f32> + Send + 'static>,
) {
    let width = threads.min(rows);
    let chunk = rows.div_ceil(width);
    let tasks: Vec<_> = (0..rows).step_by(chunk).map(|r0| make_task(r0, (r0 + chunk).min(rows))).collect();
    for (dst, part) in out.chunks_mut(chunk * n).zip(crate::pool::global().run(tasks)) {
        dst.copy_from_slice(&part);
    }
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of a row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of a row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data access.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data access.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Gather the given rows into a new matrix (minibatch assembly).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into a reusable scratch matrix: `out` is
    /// reshaped to `(idx.len(), self.cols)` keeping its allocation, so a
    /// training loop pays for one minibatch buffer instead of one per
    /// batch per epoch.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.rows = idx.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(idx.len() * self.cols);
        for &r in idx {
            out.data.extend_from_slice(self.row(r));
        }
    }

    /// `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_threads(other, auto_width(self.rows * self.cols * other.cols, self.rows))
    }

    /// [`Matrix::matmul`] with an explicit parallel width (`1` = serial).
    /// Output is bitwise identical at every width.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let (k, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if threads <= 1 || self.rows <= 1 || n == 0 {
            gemm_kernel(&self.data, &other.data, k, n, 0, self.rows, &mut out.data, None, false);
        } else {
            let a = Arc::new(self.data.clone());
            let b = Arc::new(other.data.clone());
            pooled_rows(threads, self.rows, n, &mut out.data, |r0, r1| {
                let (a, b) = (a.clone(), b.clone());
                Box::new(move || {
                    let mut part = vec![0.0f32; (r1 - r0) * n];
                    gemm_kernel(&a, &b, k, n, r0, r1, &mut part, None, false);
                    part
                })
            });
        }
        out
    }

    /// Fused dense-layer forward: `relu_if(self · w + bias)` in one pass.
    /// The bias (and optional ReLU) epilogue runs per cache-hot row tile,
    /// eliminating the separate output sweeps; the result is bitwise
    /// identical to `matmul` followed by bias and activation sweeps.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-length mismatch.
    pub fn dense_forward(&self, w: &Matrix, bias: &[f32], relu: bool) -> Matrix {
        self.dense_forward_threads(w, bias, relu, auto_width(self.rows * self.cols * w.cols, self.rows))
    }

    /// [`Matrix::dense_forward`] with an explicit parallel width.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-length mismatch.
    pub fn dense_forward_threads(&self, w: &Matrix, bias: &[f32], relu: bool, threads: usize) -> Matrix {
        assert_eq!(self.cols, w.rows, "dense_forward inner dimension mismatch");
        assert_eq!(bias.len(), w.cols, "dense_forward bias length mismatch");
        let (k, n) = (self.cols, w.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if threads <= 1 || self.rows <= 1 || n == 0 {
            gemm_kernel(&self.data, &w.data, k, n, 0, self.rows, &mut out.data, Some(bias), relu);
        } else {
            let a = Arc::new(self.data.clone());
            let b = Arc::new(w.data.clone());
            let bias = Arc::new(bias.to_vec());
            pooled_rows(threads, self.rows, n, &mut out.data, |r0, r1| {
                let (a, b, bias) = (a.clone(), b.clone(), bias.clone());
                Box::new(move || {
                    let mut part = vec![0.0f32; (r1 - r0) * n];
                    gemm_kernel(&a, &b, k, n, r0, r1, &mut part, Some(&bias), relu);
                    part
                })
            });
        }
        out
    }

    /// Gather-combine for factorized sparse-pair classification: output
    /// row `p` is `relu_if(a.row(i) + b.row(j) + bias)` for
    /// `pairs[p] = (i, j)`. Every row gets the same per-element
    /// arithmetic (`av + bv + bias`, then the optional ReLU), so a pair's
    /// row is bitwise the same whichever list carries it.
    ///
    /// # Panics
    /// Panics on column/bias shape mismatch or an out-of-range pair index.
    pub fn combine_pairs(
        a: &Matrix,
        b: &Matrix,
        pairs: &[(u32, u32)],
        bias: &[f32],
        relu: bool,
    ) -> Matrix {
        assert_eq!(a.cols, b.cols, "combine_pairs column mismatch");
        assert_eq!(bias.len(), a.cols, "combine_pairs bias length mismatch");
        let mut out = Matrix::zeros(pairs.len(), a.cols);
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let arow = a.row(i as usize);
            let brow = b.row(j as usize);
            let orow = out.row_mut(p);
            for (((o, &av), &bv), &cv) in orow.iter_mut().zip(arow).zip(brow).zip(bias) {
                let z = av + bv + cv;
                *o = if relu { z.max(0.0) } else { z };
            }
        }
        out
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_threads(other, auto_width(self.rows * self.cols * other.cols, self.cols))
    }

    /// [`Matrix::t_matmul`] with an explicit parallel width (splitting
    /// output rows, i.e. `self` columns).
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        let (rows, p, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(p, n);
        if threads <= 1 || p <= 1 || n == 0 {
            tgemm_kernel(&self.data, &other.data, rows, p, n, 0, p, &mut out.data);
        } else {
            let a = Arc::new(self.data.clone());
            let b = Arc::new(other.data.clone());
            pooled_rows(threads, p, n, &mut out.data, |i0, i1| {
                let (a, b) = (a.clone(), b.clone());
                Box::new(move || {
                    let mut part = vec![0.0f32; (i1 - i0) * n];
                    tgemm_kernel(&a, &b, rows, p, n, i0, i1, &mut part);
                    part
                })
            });
        }
        out
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_threads(other, auto_width(self.rows * self.cols * other.rows, self.rows))
    }

    /// [`Matrix::matmul_t`] with an explicit parallel width.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_t_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        let (k, q) = (self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, q);
        if q == 0 {
            return out;
        }
        // With enough output rows to amortize the O(q·k) copy, transpose
        // `other` once and run the register-tiled GEMM instead of the
        // dot-product kernel. Both accumulate every element in ascending
        // reduction order, so the results are bitwise identical — this is
        // purely a throughput trade (SIMD across output columns vs scalar
        // dot chains).
        if self.rows >= MT_TRANSPOSE_MIN_ROWS {
            let mut bt = vec![0.0f32; k * q];
            for (r, row) in other.data.chunks_exact(k).enumerate() {
                for (t, &v) in row.iter().enumerate() {
                    bt[t * q + r] = v;
                }
            }
            if threads <= 1 {
                gemm_kernel(&self.data, &bt, k, q, 0, self.rows, &mut out.data, None, false);
            } else {
                let a = Arc::new(self.data.clone());
                let b = Arc::new(bt);
                pooled_rows(threads, self.rows, q, &mut out.data, |r0, r1| {
                    let (a, b) = (a.clone(), b.clone());
                    Box::new(move || {
                        let mut part = vec![0.0f32; (r1 - r0) * q];
                        gemm_kernel(&a, &b, k, q, r0, r1, &mut part, None, false);
                        part
                    })
                });
            }
        } else if threads <= 1 || self.rows <= 1 {
            gemm_nt_kernel(&self.data, &other.data, k, q, 0, self.rows, &mut out.data);
        } else {
            let a = Arc::new(self.data.clone());
            let b = Arc::new(other.data.clone());
            pooled_rows(threads, self.rows, q, &mut out.data, |r0, r1| {
                let (a, b) = (a.clone(), b.clone());
                Box::new(move || {
                    let mut part = vec![0.0f32; (r1 - r0) * q];
                    gemm_nt_kernel(&a, &b, k, q, r0, r1, &mut part);
                    part
                })
            });
        }
        out
    }

    /// Add `other` scaled by `alpha` in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.data.len(), other.data.len(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn combine_pairs_gathers_rows_with_bias_and_relu() {
        let a = Matrix::from_vec(2, 3, vec![1., -2., 3., 4., 5., -6.]);
        let b = Matrix::from_vec(3, 3, vec![0.5, 0.5, 0.5, -1., -1., -1., 2., 2., 2.]);
        let bias = [0.25, -0.25, 0.0];
        let pairs = [(1u32, 0u32), (0, 2), (0, 0), (1, 2)];
        let out = Matrix::combine_pairs(&a, &b, &pairs, &bias, false);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 3);
        for (p, &(i, j)) in pairs.iter().enumerate() {
            for (c, &bv) in bias.iter().enumerate() {
                let expect = a.get(i as usize, c) + b.get(j as usize, c) + bv;
                assert_eq!(out.get(p, c).to_bits(), expect.to_bits(), "row {p} col {c}");
            }
        }
        // With ReLU, negative sums clamp to zero.
        let relu = Matrix::combine_pairs(&a, &b, &pairs, &bias, true);
        for p in 0..pairs.len() {
            for c in 0..3 {
                assert_eq!(relu.get(p, c).to_bits(), out.get(p, c).max(0.0).to_bits());
            }
        }
        // Empty pair list: zero-row output with the right width.
        let empty = Matrix::combine_pairs(&a, &b, &[], &bias, true);
        assert_eq!((empty.rows(), empty.cols()), (0, 3));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.t_matmul(&b);
        // a^T (2x3) * b (3x2) = 2x2
        let at = Matrix::from_fn(2, 3, |r, c2| a.get(c2, r));
        let expect = at.matmul(&b);
        assert_eq!(c, expect);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let c = a.matmul_t(&b);
        let bt = Matrix::from_fn(3, 4, |r, c2| b.get(c2, r));
        assert_eq!(c, a.matmul(&bt));
    }

    #[test]
    fn parallel_and_serial_agree() {
        // The partitioned path must be bitwise identical to the serial
        // one (the end-to-end fixtures depend on exact accumulation
        // order).
        let a = Matrix::from_fn(512, 256, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(256, 64, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
        let serial = a.matmul_threads(&b, 1);
        for threads in [2, 3, 4, 7] {
            assert_eq!(a.matmul_threads(&b, threads), serial, "width {threads}");
        }
        assert_eq!(a.matmul(&b), serial);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[5., 6., 1., 2.]);
    }

    #[test]
    fn gather_rows_into_reuses_buffer() {
        let a = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let mut scratch = Matrix::zeros(0, 3);
        a.gather_rows_into(&[4, 1, 5], &mut scratch);
        assert_eq!(scratch, a.gather_rows(&[4, 1, 5]));
        // Re-gathering a smaller batch reshapes in place.
        a.gather_rows_into(&[0], &mut scratch);
        assert_eq!(scratch.rows(), 1);
        assert_eq!(scratch.row(0), a.row(0));
    }

    #[test]
    fn dense_forward_fuses_bias_and_relu() {
        let x = Matrix::from_fn(9, 5, |r, c| ((r * 7 + c * 3) % 9) as f32 - 4.0);
        let w = Matrix::from_fn(5, 6, |r, c| ((r * 5 + c) % 7) as f32 - 3.0);
        let bias: Vec<f32> = (0..6).map(|i| i as f32 / 2.0 - 1.5).collect();
        // Unfused reference: matmul, then bias sweep, then ReLU sweep.
        let mut z = x.matmul(&w);
        for r in 0..z.rows() {
            for (v, b) in z.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        let mut a = z.clone();
        for v in a.as_mut_slice() {
            *v = v.max(0.0);
        }
        assert_eq!(x.dense_forward(&w, &bias, false), z);
        assert_eq!(x.dense_forward(&w, &bias, true), a);
        // Parallel fused path agrees too.
        assert_eq!(x.dense_forward_threads(&w, &bias, true, 3), a);
    }

    #[test]
    fn degenerate_shapes() {
        // 0 rows.
        let empty = Matrix::zeros(0, 5);
        let w = Matrix::from_fn(5, 4, |r, c| (r + c) as f32);
        assert_eq!(empty.matmul(&w).rows(), 0);
        assert_eq!(empty.matmul_threads(&w, 4).rows(), 0);
        assert_eq!(empty.t_matmul(&Matrix::zeros(0, 3)), Matrix::zeros(5, 3));
        assert_eq!(empty.matmul_t(&Matrix::zeros(7, 5)), Matrix::zeros(0, 7));
        // 1 row.
        let one = Matrix::from_fn(1, 5, |_, c| c as f32);
        assert_eq!(one.matmul_threads(&w, 4), one.matmul_threads(&w, 1));
        // Fewer columns than the register tile / unroll width.
        let thin_a = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let thin_b = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 - 1.0);
        let got = thin_a.matmul(&thin_b);
        let mut want = Matrix::zeros(5, 3);
        for r in 0..5 {
            for k in 0..2 {
                for c in 0..3 {
                    want.set(r, c, want.get(r, c) + thin_a.get(r, k) * thin_b.get(k, c));
                }
            }
        }
        assert_eq!(got, want);
        // Zero-width output.
        assert_eq!(thin_a.matmul(&Matrix::zeros(2, 0)).cols(), 0);
        // Zero-length reduction: all-zero output plus fused bias.
        let nok = Matrix::zeros(3, 0);
        let z = nok.dense_forward(&Matrix::zeros(0, 2), &[1.0, -2.0], false);
        assert_eq!(z.as_slice(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
    }

    #[test]
    fn non_divisible_chunks_agree() {
        // Rows not divisible by the width or the tile height.
        let a = Matrix::from_fn(23, 9, |r, c| ((r * 13 + c * 5) % 17) as f32 - 8.0);
        let b = Matrix::from_fn(9, 7, |r, c| ((r * 11 + c * 2) % 7) as f32 - 3.0);
        let serial = a.matmul_threads(&b, 1);
        for threads in [2, 3, 5, 23, 64] {
            assert_eq!(a.matmul_threads(&b, threads), serial, "width {threads}");
        }
    }

    #[test]
    fn t_matmul_parallel_and_serial_agree() {
        let a = Matrix::from_fn(300, 37, |r, c| ((r * 7 + c * 3) % 19) as f32 - 9.0);
        let b = Matrix::from_fn(300, 29, |r, c| ((r * 3 + c * 11) % 13) as f32 - 6.0);
        let serial = a.t_matmul_threads(&b, 1);
        for threads in [2, 3, 8, 37] {
            assert_eq!(a.t_matmul_threads(&b, threads), serial, "width {threads}");
        }
        assert_eq!(a.t_matmul(&b), serial);
    }

    #[test]
    fn matmul_t_parallel_and_serial_agree() {
        let a = Matrix::from_fn(41, 33, |r, c| ((r * 5 + c * 7) % 23) as f32 - 11.0);
        let b = Matrix::from_fn(26, 33, |r, c| ((r * 9 + c) % 17) as f32 - 8.0);
        let serial = a.matmul_t_threads(&b, 1);
        for threads in [2, 4, 41] {
            assert_eq!(a.matmul_t_threads(&b, threads), serial, "width {threads}");
        }
        assert_eq!(a.matmul_t(&b), serial);
    }

    #[test]
    fn long_reduction_crosses_cache_blocks() {
        // A reduction much longer than any register tile, with a
        // non-divisible remainder.
        let k = 293;
        let a = Matrix::from_fn(5, k, |r, c| ((r + c * 3) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(k, 6, |r, c| ((r * 2 + c) % 9) as f32 - 4.0);
        let got = a.matmul(&b);
        let mut want = Matrix::zeros(5, 6);
        for r in 0..5 {
            for kk in 0..k {
                for c in 0..6 {
                    want.set(r, c, want.get(r, c) + a.get(r, kk) * b.get(kk, c));
                }
            }
        }
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() <= 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
