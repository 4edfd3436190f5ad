//! Dense row-major `f32` matrix and the three dense products.
//!
//! This is the only tensor type in the substrate. Batches of sequences are
//! stored stacked (`(N*T) x D`), so almost all heavy math funnels through
//! [`Matrix::matmul_transb`] (every `Linear` forward), [`Matrix::matmul_transa`]
//! (weight gradients) and [`Matrix::matmul`] (input gradients).
//!
//! Each product fixes the float operations of every output element — the
//! order contract in each method's doc — and the kernels only choose how
//! many of those per-output chains run side by side:
//!
//! * `matmul_transb` copies `B` once per call into k-major panels of four
//!   columns (`Panels`) and computes a 2-row x 4-column tile of [`dot`]s at
//!   once (`dot_tile`): each dot keeps `dot`'s four lane sums, and the tile
//!   holds lane `l` of its four columns as one 4-wide accumulator, so it
//!   streams panel rows and broadcasts `A` values — eight vector chains.
//! * `matmul` and `matmul_transa` share one serial-sum kernel
//!   (`serial_sum_block`) that keeps a 2-row x 16- (or 8-) column tile of
//!   sums in registers while it walks `k`.
//!
//! Every kernel reads its operands and writes its output through `View` /
//! `ViewMut` blocks (rows a fixed stride apart), so `Msa`'s attention core
//! runs the same kernels on per-head column blocks of the stacked Q / K / V
//! without copying them out. Large products are split over rayon into row
//! blocks; tiles live inside a block and no sum crosses one, so the thread
//! count cannot change a bit. The kernels are portable Rust that LLVM
//! vectorizes at the baseline target: no `unsafe`, no intrinsics, no fused
//! multiply-add.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum number of result elements before a matmul is parallelized.
/// Below this, rayon's scheduling overhead dominates.
const PAR_THRESHOLD: usize = 64 * 64;

/// Rows per parallel task of `matmul` and `matmul_transb`.
const BLOCK: usize = 64;

/// Rows per register tile of the serial-sum kernel behind `matmul` and
/// `matmul_transa`, and per parallel task of `matmul_transa`.
const TILE_ROWS: usize = 2;

/// Dense row-major matrix of `f32`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Create a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// A new matrix holding rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "row slice {start}..{end} out of 0..{}",
            self.rows
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Write `src` into rows `[start, start + src.rows)`.
    pub fn set_rows(&mut self, start: usize, src: &Matrix) {
        assert_eq!(src.cols, self.cols, "column mismatch in set_rows");
        assert!(start + src.rows <= self.rows, "row overflow in set_rows");
        self.data[start * self.cols..(start + src.rows) * self.cols].copy_from_slice(&src.data);
    }

    /// Stack matrices vertically. All inputs must share a column count.
    pub fn vstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of zero matrices");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenate matrices horizontally. All inputs must share a row count.
    pub fn hstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.rows, rows, "hstack row mismatch");
            for r in 0..rows {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
            }
            offset += p.cols;
        }
        out
    }

    /// A new matrix holding columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols);
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// The whole matrix as a [`View`].
    pub(crate) fn view(&self) -> View<'_> {
        View::new(&self.data, self.rows, self.cols, self.cols)
    }

    /// Rows `[r0, r0 + rows)` x columns `[c0, c0 + cols)` as a [`View`],
    /// read in place.
    pub(crate) fn block(&self, r0: usize, rows: usize, c0: usize, cols: usize) -> View<'_> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "block out of bounds");
        View::new(&self.data[r0 * self.cols + c0..], rows, cols, self.cols)
    }

    /// `self @ other`: `out[i][j]` is the serial sum over `k` ascending of
    /// `self[i][k] * other[k][j]`, starting from `+0.0`, with every term
    /// whose coefficient `self[i][k] == 0.0` skipped (so a NaN or ±inf in
    /// `other` behind a zero coefficient never reaches the output). See
    /// `serial_sum_block` for the tiles.
    ///
    /// # Panics
    /// If `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for_row_blocks(&mut out.data, m, n, BLOCK, |i0, mut block| {
            matmul_into(self.block(i0, block.rows, 0, k), other.view(), &mut block);
        });
        out
    }

    /// `self @ other.T` without materializing the transpose.
    ///
    /// Contracts over the shared column dimension: `(m x k) @ (n x k).T = m x n`.
    /// `out[i][j]` is exactly [`dot`]`(self.row(i), other.row(j))`: four lane
    /// sums, lane `l` adding `self[i][4c + l] * other[j][4c + l]` for `c`
    /// ascending from `+0.0`, reduced as `((l0 + l1) + l2) + l3`, then the
    /// `k % 4` tail added serially. The kernel copies `other` once into
    /// k-major panels of four columns and runs 2 x 4 tiles of these dots
    /// (`dot_tile`); the copy moves values and never touches the sums.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb shape mismatch: {}x{} @ ({}x{}).T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        let bt = Panels::pack(other.view());
        for_row_blocks(&mut out.data, m, n, BLOCK, |i0, mut block| {
            dot_tiles(self.block(i0, block.rows, 0, k), &bt, &mut block);
        });
        out
    }

    /// `self.T @ other` without materializing the transpose.
    ///
    /// Contracts over the shared row dimension: `(k x m).T @ (k x n) = m x n`.
    /// `out[i][j]` is the same skipping serial sum as [`Matrix::matmul`]'s,
    /// over `self[k][i] * other[k][j]`.
    pub fn matmul_transa(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transa shape mismatch: ({}x{}).T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        // `m` is a layer's output width here (64–256 for a teacher's weight
        // gradients), too few rows for `BLOCK`-row tasks to keep every
        // thread busy: each task is one tile row.
        for_row_blocks(&mut out.data, m, n, TILE_ROWS, |i0, mut block| {
            transa_into(self.block(0, k, i0, block.rows), other.view(), &mut block);
        });
        out
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place element-wise sum.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place scalar multiple.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Apply `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Add a row vector (`1 x cols` semantics) to every row, in place.
    pub fn add_row_broadcast(mut self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *o += b;
            }
        }
        self
    }

    /// Column-wise sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Mean over all rows: returns a `1 x cols` matrix.
    pub fn mean_rows(&self) -> Matrix {
        assert!(self.rows > 0);
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out.scale_assign(1.0 / self.rows as f32);
        out
    }

    /// Numerically-stable softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// A `rows x cols` block of a row-major buffer whose rows start `stride`
/// floats apart: what every product kernel reads, so a block of a larger
/// matrix (one head's columns of a sample's rows) is used in place.
#[derive(Clone, Copy, Debug)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> View<'a> {
    /// The block whose element `(r, c)` is `data[r * stride + c]`.
    pub(crate) fn new(data: &'a [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols <= stride, "view of {cols} columns at stride {stride}");
        assert!(rows == 0 || (rows - 1) * stride + cols <= data.len(), "view past its buffer");
        View { data, rows, cols, stride }
    }

    /// Row `r` of the block.
    #[inline]
    fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.stride..r * self.stride + self.cols]
    }
}

/// The writable counterpart of [`View`]: where a product kernel writes.
#[derive(Debug)]
pub(crate) struct ViewMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> ViewMut<'a> {
    /// The block whose element `(r, c)` is `data[r * stride + c]`.
    pub(crate) fn new(data: &'a mut [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols <= stride, "view of {cols} columns at stride {stride}");
        assert!(rows == 0 || (rows - 1) * stride + cols <= data.len(), "view past its buffer");
        ViewMut { data, rows, cols, stride }
    }

    /// Row `r` of the block.
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.stride..r * self.stride + self.cols]
    }
}

/// Run `block(first_row, rows)` over consecutive `rows_per_task`-row blocks
/// of the `m x n` output `out` (each block a [`ViewMut`] of its rows), on
/// the rayon pool once the product has `PAR_THRESHOLD` elements, else as
/// one block on the caller.
fn for_row_blocks(
    out: &mut [f32],
    m: usize,
    n: usize,
    rows_per_task: usize,
    block: impl Fn(usize, ViewMut<'_>) + Sync,
) {
    if out.is_empty() {
        return;
    }
    if m * n >= PAR_THRESHOLD && m > 1 {
        out.par_chunks_mut(rows_per_task * n).enumerate().for_each(|(t, chunk)| {
            let rows = chunk.len() / n;
            block(t * rows_per_task, ViewMut::new(chunk, rows, n, n));
        });
    } else {
        block(0, ViewMut::new(out, m, n, n));
    }
}

/// `out = a @ b.T` for blocks already in place: `out[i][j] = dot(a_i, b_j)`,
/// as [`Matrix::matmul_transb`], on the caller's thread.
pub(crate) fn transb_into(a: View<'_>, b: View<'_>, out: &mut ViewMut<'_>) {
    dot_tiles(a, &Panels::pack(b), out);
}

/// `out = a @ b` for blocks already in place, as [`Matrix::matmul`], on the
/// caller's thread. `out` must start at `+0.0`.
pub(crate) fn matmul_into(a: View<'_>, b: View<'_>, out: &mut ViewMut<'_>) {
    assert!(a.cols == b.rows && a.rows == out.rows && b.cols == out.cols, "matmul_into shapes");
    serial_sum_block(|i, kk| a.data[i * a.stride + kk], a.cols, b, out);
}

/// `out = a.T @ b` for blocks already in place, as [`Matrix::matmul_transa`],
/// on the caller's thread. `out` must start at `+0.0`.
pub(crate) fn transa_into(a: View<'_>, b: View<'_>, out: &mut ViewMut<'_>) {
    assert!(a.rows == b.rows && a.cols == out.rows && b.cols == out.cols, "transa_into shapes");
    serial_sum_block(|i, kk| a.data[kk * a.stride + i], a.rows, b, out);
}

/// `B` (`n x k`) copied k-major for [`dot_tile`]: panel `p` holds columns
/// `4p..4p + 4` of `Bᵀ` as `k` rows of four (`[kk][c] = b[4p + c][kk]`). The
/// last panel is padded with zeros; padded columns are computed and never
/// written.
struct Panels {
    data: Vec<[f32; 4]>,
    k: usize,
    n: usize,
}

impl Panels {
    fn pack(b: View<'_>) -> Panels {
        let (n, k) = (b.rows, b.cols);
        let mut data = vec![[0.0f32; 4]; n.div_ceil(4) * k];
        for j in 0..n {
            let panel = &mut data[j / 4 * k..(j / 4 + 1) * k];
            for (row, &v) in panel.iter_mut().zip(b.row(j)) {
                row[j % 4] = v;
            }
        }
        Panels { data, k, n }
    }
}

/// `out[i][j] = dot(a_i, b_j)` over one row block: `a` holds the block's
/// rows (`k` wide), `bt` is `B` packed, `out` is the block's `rows x n`.
/// Row pairs walk every panel with one [`dot_tile`]; a leftover row runs
/// the same tile with itself as the second row and keeps only the first.
fn dot_tiles(a: View<'_>, bt: &Panels, out: &mut ViewMut<'_>) {
    assert!(a.cols == bt.k && a.rows == out.rows && bt.n == out.cols, "dot_tiles shapes");
    let k = bt.k;
    let mut i = 0;
    while i < out.rows {
        let pair = i + 1 < out.rows;
        let a0 = a.row(i);
        let a1 = if pair { a.row(i + 1) } else { a0 };
        for (p, panel) in bt.data.chunks_exact(k.max(1)).enumerate() {
            let [s0, s1] = dot_tile(a0, a1, panel);
            let (j, cols) = (4 * p, (bt.n - 4 * p).min(4));
            if pair && cols == 4 {
                // Fixed-width stores: a variable-length copy is a call.
                out.row_mut(i)[j..j + 4].copy_from_slice(&s0);
                out.row_mut(i + 1)[j..j + 4].copy_from_slice(&s1);
            } else {
                out.row_mut(i)[j..j + cols].copy_from_slice(&s0[..cols]);
                if pair {
                    out.row_mut(i + 1)[j..j + cols].copy_from_slice(&s1[..cols]);
                }
            }
        }
        i += 2;
    }
}

/// The 2 x 4 tile of [`dot_tiles`]: `dot(a_r, b_{4p+c})` for rows `a0`, `a1`
/// and the four columns of `panel`. `acc[r][l]` holds lane `l` of the four
/// dots of row `r` — [`dot`]'s `acc[l]`, one column per element — and gains
/// `a_r[4q + l] * panel[4q + l][c]` for `q` ascending; then the lanes are
/// reduced as `((l0 + l1) + l2) + l3` and the `k % 4` tail added in order.
#[inline(always)]
fn dot_tile(a0: &[f32], a1: &[f32], panel: &[[f32; 4]]) -> [[f32; 4]; 2] {
    let k = panel.len();
    let body = k / 4 * 4;
    let (x0s, x1s) = (a0.as_chunks::<4>().0, a1.as_chunks::<4>().0);
    let ys = panel.as_chunks::<4>().0;
    let mut acc = [[[0.0f32; 4]; 4]; 2];
    let mut q = 0;
    while q < ys.len() {
        let (x0, x1, y) = (x0s[q], x1s[q], &ys[q]);
        let [r0, r1] = &mut acc;
        for l in 0..4 {
            // The four columns written out: an inner column loop costs a
            // call per term in the unoptimized builds the tests run.
            let (u, v, yl) = (x0[l], x1[l], y[l]);
            r0[l][0] += u * yl[0];
            r0[l][1] += u * yl[1];
            r0[l][2] += u * yl[2];
            r0[l][3] += u * yl[3];
            r1[l][0] += v * yl[0];
            r1[l][1] += v * yl[1];
            r1[l][2] += v * yl[2];
            r1[l][3] += v * yl[3];
        }
        q += 1;
    }
    let mut sums = [[0.0f32; 4]; 2];
    for ((s, lanes), arow) in sums.iter_mut().zip(&acc).zip([a0, a1]) {
        for c in 0..4 {
            s[c] = lanes[0][c] + lanes[1][c] + lanes[2][c] + lanes[3][c];
        }
        for t in body..k {
            let (x, y) = (arow[t], panel[t]);
            s[0] += x * y[0];
            s[1] += x * y[1];
            s[2] += x * y[2];
            s[3] += x * y[3];
        }
    }
    sums
}

/// `out[i][j] = Σ_kk coef(i, kk) * b[kk][j]` over one row block: `b` is
/// `k x n`, `out` is the block's `rows x n` and starts at `+0.0`, `coef`
/// addresses the block's coefficients by block-local row. The sum runs
/// serially with `kk` ascending and skips every term whose coefficient is
/// `== 0.0` — a branch, never an add of a zero product, so a NaN or ±inf in
/// `b` behind a zero coefficient stays out of the sum.
///
/// Row pairs walk the columns in 2 x 16 register tiles, then one 2 x 8
/// tile; the last `n % 8` columns and a leftover row accumulate in `out`
/// row by row.
fn serial_sum_block(
    coef: impl Fn(usize, usize) -> f32,
    k: usize,
    b: View<'_>,
    out: &mut ViewMut<'_>,
) {
    let mut i = 0;
    while i + TILE_ROWS <= out.rows {
        serial_sum_rows::<TILE_ROWS>(&coef, k, b, out, i);
        i += TILE_ROWS;
    }
    if i < out.rows {
        serial_sum_rows::<1>(&coef, k, b, out, i);
    }
}

/// Rows `i..i + R` of [`serial_sum_block`].
#[inline(always)]
fn serial_sum_rows<const R: usize>(
    coef: &impl Fn(usize, usize) -> f32,
    k: usize,
    b: View<'_>,
    out: &mut ViewMut<'_>,
    i: usize,
) {
    let n = out.cols;
    let mut j = 0;
    while j + 16 <= n {
        serial_sum_tile::<R, 16>(coef, k, b, out, i, j);
        j += 16;
    }
    if j + 8 <= n {
        serial_sum_tile::<R, 8>(coef, k, b, out, i, j);
        j += 8;
    }
    if j < n {
        for r in 0..R {
            let orow = &mut out.row_mut(i + r)[j..];
            for kk in 0..k {
                let x = coef(i + r, kk);
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in orow.iter_mut().zip(&b.row(kk)[j..]) {
                    *o += x * y;
                }
            }
        }
    }
}

/// The `R x C` tile of [`serial_sum_block`] at `(i, j)`, summed in registers.
#[inline(always)]
fn serial_sum_tile<const R: usize, const C: usize>(
    coef: &impl Fn(usize, usize) -> f32,
    k: usize,
    b: View<'_>,
    out: &mut ViewMut<'_>,
    i: usize,
    j: usize,
) {
    const { assert!(C.is_multiple_of(4), "the tile's column loop steps by four") };
    let mut acc = [[0.0f32; C]; R];
    for kk in 0..k {
        let at = kk * b.stride + j;
        let y: &[f32; C] = b.data[at..at + C].try_into().expect("C columns");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let x = coef(i + r, kk);
            if x == 0.0 {
                continue;
            }
            // Four terms per step of a plain counter: the same code as a
            // zipped loop once optimized, and no call per term in the
            // unoptimized builds the tests run.
            let mut c = 0;
            while c < C {
                acc_r[c] += x * y[c];
                acc_r[c + 1] += x * y[c + 1];
                acc_r[c + 2] += x * y[c + 2];
                acc_r[c + 3] += x * y[c + 3];
                c += 4;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out.row_mut(i + r)[j..j + C].copy_from_slice(acc_r);
    }
}

/// Dot product of two equal-length slices: four lane sums over chunks of
/// four, reduced as `((l0 + l1) + l2) + l3`, then the `len % 4` tail added
/// serially. Every `matmul_transb` output is exactly this.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Accumulate in 4 lanes to expose instruction-level parallelism.
    let chunks = a.len() / 4;
    let mut acc = [0.0f32; 4];
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        total += a[i] * b[i];
    }
    total
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut total = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        total += d * d;
    }
    total
}

/// Numerically-stable in-place softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Cosine similarity between two equal-length slices; 0 when either is zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `matmul` before the register tiles: the i-k-j row loop, the
    /// definition of its skipping serial sum.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = &a.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[kk * n..(kk + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// `matmul_transb` before the register tiles: one `dot` per output.
    fn matmul_transb_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = &a.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, &b.data[j * k..(j + 1) * k]);
            }
        }
        out
    }

    /// `matmul_transb`'s tile before the k-major panels: a 2 x 4 tile of
    /// dots read row-major from `B` (`n x k`), leftovers by [`dot`].
    fn dot_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        let rows = out.len() / n;
        let body = k / 4 * 4;
        let b_row = |j: usize| &b[j * k..(j + 1) * k];
        let mut i = 0;
        while i + 2 <= rows {
            let (a0, a1) = (&a[i * k..(i + 1) * k], &a[(i + 1) * k..(i + 2) * k]);
            let (x0s, x1s) = (a0.as_chunks::<4>().0, a1.as_chunks::<4>().0);
            let mut j = 0;
            while j + 4 <= n {
                let bj: [&[f32]; 4] = std::array::from_fn(|c| b_row(j + c));
                let ys: [&[[f32; 4]]; 4] = std::array::from_fn(|c| bj[c].as_chunks::<4>().0);
                // lanes[row][col][lane], as `dot`'s `acc`.
                let mut lanes = [[[0.0f32; 4]; 4]; 2];
                for q in 0..x0s.len() {
                    for c in 0..4 {
                        let y = ys[c][q];
                        for l in 0..4 {
                            lanes[0][c][l] += x0s[q][l] * y[l];
                            lanes[1][c][l] += x1s[q][l] * y[l];
                        }
                    }
                }
                for (r, arow) in [a0, a1].into_iter().enumerate() {
                    for c in 0..4 {
                        let acc = lanes[r][c];
                        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
                        for t in body..k {
                            total += arow[t] * bj[c][t];
                        }
                        out[(i + r) * n + j + c] = total;
                    }
                }
                j += 4;
            }
            for j in j..n {
                out[i * n + j] = dot(a0, b_row(j));
                out[(i + 1) * n + j] = dot(a1, b_row(j));
            }
            i += 2;
        }
        for i in i..rows {
            for j in 0..n {
                out[i * n + j] = dot(&a[i * k..(i + 1) * k], b_row(j));
            }
        }
    }

    /// `matmul_transa` before the register tiles: the k-i-j loop.
    fn matmul_transa_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, m, n) = (a.rows, a.cols, b.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let arow = &a.data[kk * m..(kk + 1) * m];
            let brow = &b.data[kk * n..(kk + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// A `rows x cols` matrix of values in `(-2, 2)` with, by `plant`
    /// level, nothing else (0), zeros of both signs and subnormals (1), a
    /// sprinkle of NaN and ±inf too (2), or all of them densely (3).
    fn planted(rows: usize, cols: usize, seed: u64, plant: u8) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sub = f32::MIN_POSITIVE / 8.0;
        Matrix::from_fn(rows, cols, |_, _| {
            let roll = next();
            let normal = (roll >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0;
            let special = match (plant, roll % 256) {
                (0, _) => None,
                (1 | 2, 0..=15) | (3, 0..=63) => Some([0.0, -0.0, sub, -sub][(roll % 4) as usize]),
                (2, 16..=18) | (3, 64..=79) => {
                    Some([f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(roll % 3) as usize])
                }
                _ => None,
            };
            special.unwrap_or(normal)
        })
    }

    /// Bit-for-bit equality, except that every NaN is one value: Rust
    /// leaves the payload of a NaN an operation creates unspecified, so
    /// NaN bits are not part of any kernel's contract. Zeros of either
    /// sign, subnormals and infinities all compare as bits.
    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            assert!(
                (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits(),
                "{what}: element {idx} is {g:?} ({:#010x}), the reference {w:?} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// All three products equal their pre-tiling loops bit for bit, on
        /// every shape up to 70 (every `k % 4`, rows and columns off the
        /// tile multiples, both sides of `PAR_THRESHOLD`) with zeros of
        /// both signs, subnormals, NaN and ±inf planted in both operands.
        #[test]
        fn products_equal_their_reference_loops_bit_for_bit(
            dims in (1usize..71, 1usize..71, 1usize..71),
            seed in 0u64..u64::MAX,
            plants in (0u8..4, 0u8..4),
        ) {
            let (m, k, n) = dims;
            let (pa, pb) = plants;
            let a = planted(m, k, seed, pa);
            let b = planted(k, n, seed ^ 0x9E37_79B9, pb);
            assert_same_bits(&a.matmul(&b), &matmul_reference(&a, &b), "matmul");
            let bt = planted(n, k, seed ^ 0x7F4A_7C15, pb);
            assert_same_bits(&a.matmul_transb(&bt), &matmul_transb_reference(&a, &bt), "transb");
            let at = planted(k, m, seed ^ 0x2545_F491, pa);
            assert_same_bits(&at.matmul_transa(&b), &matmul_transa_reference(&at, &b), "transa");
        }
    }

    /// `planted(.., 1)` (zeros of both signs, subnormals) plus a NaN, +inf
    /// or -inf in every 17th row, at a column that walks the width — the
    /// `k % 4` tail included. Sparse enough that most outputs stay finite.
    fn sparse_specials(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = planted(rows, cols, seed, 1);
        for r in (3..rows).step_by(17) {
            m.set(r, r * 7 % cols, [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][r % 3]);
        }
        m
    }

    /// The products equal their references at the shapes training runs
    /// (the teacher's FFN and input layer over 512 token rows, both sides
    /// of `PAR_THRESHOLD`, several row blocks and many panels) and at an
    /// odd shape where every tile has leftovers; `matmul_transb` also
    /// equals the row-major tile it replaced.
    #[test]
    fn products_equal_their_references_at_training_shapes() {
        for (m, k, n) in [(512, 64, 256), (512, 256, 64), (512, 6, 64), (37, 70, 257)] {
            let shape = format!("{m}x{k}x{n}");
            let a = sparse_specials(m, k, 0xA5 ^ k as u64);
            let b = sparse_specials(k, n, 0x5A ^ n as u64);
            let bt = sparse_specials(n, k, 0xC3 ^ m as u64);
            let at = sparse_specials(k, m, 0x3C ^ n as u64);
            let transb = a.matmul_transb(&bt);
            assert_same_bits(
                &transb,
                &matmul_transb_reference(&a, &bt),
                &format!("transb {shape}"),
            );
            let mut tiled = Matrix::zeros(m, n);
            dot_block(&a.data, &bt.data, &mut tiled.data, k, n);
            assert_same_bits(&transb, &tiled, &format!("transb vs dot_block {shape}"));
            assert!(transb.data.iter().any(|v| v.is_nan()), "{shape}: no NaN output");
            assert!(transb.data.iter().any(|v| v.is_finite()), "{shape}: no finite output");
            assert_same_bits(&a.matmul(&b), &matmul_reference(&a, &b), &format!("matmul {shape}"));
            let transa = at.matmul_transa(&b);
            assert_same_bits(
                &transa,
                &matmul_transa_reference(&at, &b),
                &format!("transa {shape}"),
            );
        }
    }

    /// The skip is a skip: a NaN or ±inf behind a zero coefficient (of
    /// either sign) never reaches the output of `matmul` or `matmul_transa`.
    #[test]
    fn zero_coefficients_hide_non_finite_terms() {
        for (m, k, n) in [(1, 3, 1), (2, 5, 16), (3, 4, 25), (70, 9, 70)] {
            let a = Matrix::from_fn(m, k, |_, c| if c == 1 { -0.0 } else { 0.5 });
            let at = a.transpose();
            let b = Matrix::from_fn(k, n, |r, c| match (r, c % 2) {
                (1, 0) => f32::NAN,
                (1, _) => f32::INFINITY,
                _ => 1.0,
            });
            let want = 0.5 * (k - 1) as f32;
            for got in [a.matmul(&b), at.matmul_transa(&b)] {
                assert!(got.as_slice().iter().all(|&v| v == want), "{m}x{k}x{n}: {got:?}");
            }
        }
    }

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(7, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 1.0);
        let b = Matrix::from_fn(5, 9, |r, c| (r as f32 - c as f32) * 0.2);
        assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_large_parallel_path() {
        let a = Matrix::from_fn(130, 70, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(70, 90, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
        assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-2));
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_fn(6, 8, |r, c| (r + c) as f32 * 0.3);
        let b = Matrix::from_fn(4, 8, |r, c| (r as f32 * 1.5 - c as f32) * 0.1);
        assert!(approx_eq(&a.matmul_transb(&b), &a.matmul(&b.transpose()), 1e-4));
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let a = Matrix::from_fn(8, 6, |r, c| (r * 2 + c) as f32 * 0.05);
        let b = Matrix::from_fn(8, 5, |r, c| (c * 3 + r) as f32 * 0.07);
        assert!(approx_eq(&a.matmul_transa(&b), &a.transpose().matmul(&b), 1e-4));
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_fn(5, 5, |r, c| (r * c) as f32);
        assert!(approx_eq(&a.matmul(&Matrix::identity(5)), &a, 1e-6));
        assert!(approx_eq(&Matrix::identity(5).matmul(&a), &a, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_fn(3, 6, |r, c| (r as f32 - c as f32) * 2.0);
        let s = a.softmax_rows();
        for r in 0..3 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_is_stable_for_large_values() {
        let a = Matrix::from_vec(1, 3, vec![1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for &v in s.as_slice() {
            assert!((v - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn vstack_hstack_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(3, 3, |r, c| 100.0 + (r * 3 + c) as f32);
        let v = Matrix::vstack(&[a.clone(), b.clone()]);
        assert_eq!(v.shape(), (5, 3));
        assert_eq!(v.slice_rows(0, 2), a);
        assert_eq!(v.slice_rows(2, 5), b);

        let h = Matrix::hstack(&[a.clone(), a.clone()]);
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.slice_cols(0, 3), a);
        assert_eq!(h.slice_cols(3, 6), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias_each_row() {
        let out = Matrix::zeros(3, 2).add_row_broadcast(&[1.0, -2.0]);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn col_sums_and_mean_rows() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.mean_rows().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..23).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..23).map(|i| (22 - i) as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = [1.0, 0.0, 0.0];
        let b = [0.0, 1.0, 0.0];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
        assert_eq!(cosine_similarity(&a, &[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn slice_and_set_rows() {
        let mut a = Matrix::zeros(4, 2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.set_rows(1, &b);
        assert_eq!(a.row(0), &[0.0, 0.0]);
        assert_eq!(a.row(1), &[1.0, 2.0]);
        assert_eq!(a.row(2), &[3.0, 4.0]);
        assert_eq!(a.slice_rows(1, 3), b);
    }
}
