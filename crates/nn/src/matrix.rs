//! Dense row-major `f32` matrix with rayon-parallel blocked multiplication.
//!
//! This is the only tensor type in the substrate. Batches of sequences are
//! stored stacked (`(N*T) x D`), so almost all heavy math funnels through
//! [`Matrix::matmul`] / [`Matrix::matmul_transb`], which are cache-blocked
//! and parallelized over row blocks.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum number of result elements before a matmul is parallelized.
/// Below this, rayon's scheduling overhead dominates.
const PAR_THRESHOLD: usize = 64 * 64;

/// Row block size for the blocked matmul kernels (fits L1/L2 comfortably).
const BLOCK: usize = 64;

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

    /// `self @ other` — blocked, rayon-parallel over row blocks.
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
        let kernel = |a_rows: &[f32], out_rows: &mut [f32], nrows: usize| {
            // i-k-j loop order: streams through `other` rows, vectorizes on j.
            for i in 0..nrows {
                let arow = &a_rows[i * k..(i + 1) * k];
                let orow = &mut out_rows[i * n..(i + 1) * n];
                for (kk, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &other.data[kk * n..(kk + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += aik * b;
                    }
                }
            }
        };
        if m * n >= PAR_THRESHOLD && m > 1 {
            out.data
                .par_chunks_mut(BLOCK * n)
                .zip(self.data.par_chunks(BLOCK * k))
                .for_each(|(out_rows, a_rows)| kernel(a_rows, out_rows, a_rows.len() / k));
        } else {
            kernel(&self.data, &mut out.data, m);
        }
        out
    }

    /// `self @ other.T` without materializing the transpose.
    ///
    /// Contracts over the shared column dimension: `(m x k) @ (n x k).T = m x n`.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb shape mismatch: {}x{} @ ({}x{}).T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        let kernel = |a_rows: &[f32], out_rows: &mut [f32], nrows: usize| {
            for i in 0..nrows {
                let arow = &a_rows[i * k..(i + 1) * k];
                let orow = &mut out_rows[i * n..(i + 1) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    let brow = &other.data[j * k..(j + 1) * k];
                    *o = dot(arow, brow);
                }
            }
        };
        if m * n >= PAR_THRESHOLD && m > 1 {
            out.data
                .par_chunks_mut(BLOCK * n)
                .zip(self.data.par_chunks(BLOCK * k))
                .for_each(|(out_rows, a_rows)| kernel(a_rows, out_rows, a_rows.len() / k));
        } else {
            kernel(&self.data, &mut out.data, m);
        }
        out
    }

    /// `self.T @ other` without materializing the transpose.
    ///
    /// Contracts over the shared row dimension: `(k x m).T @ (k x n) = m x n`.
    pub fn matmul_transa(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transa shape mismatch: ({}x{}).T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        // out[i][j] = sum_kk self[kk][i] * other[kk][j]
        let mut out = Matrix::zeros(m, n);
        if m * n >= PAR_THRESHOLD {
            out.data.par_chunks_mut(n).enumerate().for_each(|(i, orow)| {
                for kk in 0..k {
                    let a = self.data[kk * m + i];
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &other.data[kk * n..(kk + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
            });
        } else {
            for kk in 0..k {
                let arow = &self.data[kk * m..(kk + 1) * m];
                let brow = &other.data[kk * n..(kk + 1) * n];
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
        }
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

    /// Add a row vector (`1 x cols` semantics) to every row.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        out
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

/// Dot product of two equal-length slices (the hot inner loop of
/// `matmul_transb`; written to auto-vectorize).
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
        let a = Matrix::zeros(3, 2);
        let out = a.add_row_broadcast(&[1.0, -2.0]);
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
