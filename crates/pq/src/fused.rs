//! Fused multi-layer tables — the paper's future-work item "converting
//! multiple layers into a single table to further reduce latency, storage,
//! and operations" (§VIII), implemented for the FFN.
//!
//! A two-linear FFN `y = W_o · relu(W_h · x + b_h) + b_o` is tabularized as
//! a **single** lookup: prototypes are learned over the FFN *inputs*, and
//! each table entry stores the full FFN evaluated at the prototype. The
//! query then costs one encode + one aggregation — half the latency of the
//! two-kernel FFN — at the price of quantizing the whole (nonlinear)
//! function instead of each linear factor.

use dart_nn::matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::arena::TableArena;
use crate::quantizer::{EncoderKind, ProductQuantizer};

/// A whole FFN collapsed into one table hierarchy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FusedFfnTable {
    pq: ProductQuantizer,
    /// Flat code-major arena of `C` sub-tables (`K x D_O` each), holding
    /// per-prototype FFN outputs divided across subspaces (see `fit` for
    /// the split).
    table: TableArena,
    out_dim: usize,
}

impl FusedFfnTable {
    /// Fuse `y = w_out · relu(w_hidden · x + b_hidden) + b_out`.
    ///
    /// Because the fused function is nonlinear, it does **not** decompose
    /// exactly across subspaces. We use the centroid-completion scheme:
    /// entry `(c, k, o)` stores the FFN evaluated at the vector that equals
    /// prototype `k` in subspace `c` and the training *mean* elsewhere,
    /// minus the `(C-1)/C` share of the FFN at the full mean (so aggregation
    /// over subspaces reconstructs an additive approximation around the
    /// mean). With `C = 1` this is exact at the prototypes.
    #[allow(clippy::too_many_arguments)] // mirrors the two-layer FFN's full parameter list
    pub fn fit(
        train_inputs: &Matrix,
        w_hidden: &Matrix,
        b_hidden: &[f32],
        w_out: &Matrix,
        b_out: &[f32],
        c: usize,
        k: usize,
        encoder: EncoderKind,
        seed: u64,
    ) -> FusedFfnTable {
        assert_eq!(train_inputs.cols(), w_hidden.cols(), "input dim mismatch");
        assert_eq!(w_out.cols(), w_hidden.rows(), "hidden dim mismatch");
        assert_eq!(b_hidden.len(), w_hidden.rows());
        assert_eq!(b_out.len(), w_out.rows());
        let out_dim = w_out.rows();
        let pq = ProductQuantizer::fit(train_inputs, c, k, encoder, seed);
        let mean = train_inputs.mean_rows();
        let num_subspaces = pq.num_subspaces();

        let ffn = |x: &[f32]| -> Vec<f32> {
            let hidden: Vec<f32> = (0..w_hidden.rows())
                .map(|h| dart_nn::matrix::dot(x, w_hidden.row(h)) + b_hidden[h])
                .map(|v| v.max(0.0))
                .collect();
            (0..out_dim).map(|o| dart_nn::matrix::dot(&hidden, w_out.row(o)) + b_out[o]).collect()
        };
        let mean_out = ffn(mean.row(0));

        let mut table = TableArena::zeros(num_subspaces, pq.num_protos(), out_dim);
        let share = (num_subspaces as f32 - 1.0) / num_subspaces as f32;
        table.fill_subtables_parallel(|ci, sub| {
            let (lo, hi) = pq.bounds()[ci];
            for proto in 0..pq.num_protos() {
                // Completion vector: mean everywhere, prototype in [lo,hi).
                let mut x = mean.row(0).to_vec();
                x[lo..hi].copy_from_slice(&pq.proto(ci, proto));
                let y = ffn(&x);
                let row = &mut sub[proto * out_dim..(proto + 1) * out_dim];
                for (o, slot) in row.iter_mut().enumerate() {
                    *slot = y[o] - share * mean_out[o];
                }
            }
        });

        FusedFfnTable { pq, table, out_dim }
    }

    /// Same checks as [`crate::LinearTable::validate`].
    pub fn validate(&self) -> Result<(), String> {
        crate::linear_table::validate_table(&self.pq, &self.table, self.out_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.pq.dim()
    }

    /// Approximate the fused FFN over stacked rows.
    pub fn query(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        self.query_batch_into(x, &mut out);
        out
    }

    /// Batched multi-row query into a caller buffer (the same fused
    /// encode → aggregate pass as `LinearTable::query_batch_into`;
    /// bit-for-bit equal to row-at-a-time [`Self::query_row_into`]).
    pub fn query_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.pq.dim(), "query dim mismatch");
        assert_eq!(out.shape(), (x.rows(), self.out_dim), "output shape mismatch");
        crate::linear_table::aggregate_codes_batch(&self.pq, &self.table, x, out, None);
    }

    /// Single-row query: the row-at-a-time reference the differential
    /// suites compare [`Self::query_batch_into`] against (see
    /// `LinearTable::query_row_into`).
    pub fn query_row_into(&self, row: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.out_dim);
        out.fill(0.0);
        for (ci, &(lo, hi)) in self.pq.bounds().iter().enumerate() {
            let code = self.pq.encode_sub(ci, &row[lo..hi]);
            for (o, &t) in out.iter_mut().zip(self.table.row(ci, code)) {
                *o += t;
            }
        }
    }

    /// Table storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (self.table.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::init::InitRng;

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        Matrix::from_fn(r, c, |_, _| rng.normal())
    }

    fn dense_ffn(x: &Matrix, wh: &Matrix, bh: &[f32], wo: &Matrix, bo: &[f32]) -> Matrix {
        let h = x.matmul_transb(wh).add_row_broadcast(bh).map(|v| v.max(0.0));
        h.matmul_transb(wo).add_row_broadcast(bo)
    }

    #[test]
    fn exact_at_prototypes_with_single_subspace() {
        let base = rand_matrix(4, 6, 3);
        let train = Matrix::vstack(&[base.clone(), base.clone(), base.clone()]);
        let wh = rand_matrix(8, 6, 5);
        let bh = vec![0.1f32; 8];
        let wo = rand_matrix(3, 8, 7);
        let bo = vec![-0.2f32; 3];
        let fused = FusedFfnTable::fit(&train, &wh, &bh, &wo, &bo, 1, 4, EncoderKind::Argmin, 1);
        let approx = fused.query(&base);
        let exact = dense_ffn(&base, &wh, &bh, &wo, &bo);
        for i in 0..exact.len() {
            assert!(
                (approx.as_slice()[i] - exact.as_slice()[i]).abs() < 1e-3,
                "entry {i}: {} vs {}",
                approx.as_slice()[i],
                exact.as_slice()[i]
            );
        }
    }

    #[test]
    fn tracks_dense_ffn_in_distribution() {
        let train = rand_matrix(800, 8, 11);
        let wh = rand_matrix(16, 8, 13);
        let bh = vec![0.0f32; 16];
        let wo = rand_matrix(4, 16, 17);
        let bo = vec![0.0f32; 4];
        let fused = FusedFfnTable::fit(&train, &wh, &bh, &wo, &bo, 2, 128, EncoderKind::Argmin, 3);
        let test = rand_matrix(50, 8, 19);
        let approx = fused.query(&test);
        let exact = dense_ffn(&test, &wh, &bh, &wo, &bo);
        let sim = dart_nn::matrix::cosine_similarity(approx.as_slice(), exact.as_slice());
        assert!(sim > 0.7, "cosine {sim}");
    }

    #[test]
    fn shapes_and_storage() {
        let train = rand_matrix(60, 6, 37);
        let wh = rand_matrix(12, 6, 41);
        let wo = rand_matrix(5, 12, 43);
        let fused = FusedFfnTable::fit(
            &train,
            &wh,
            &[0.0; 12],
            &wo,
            &[0.0; 5],
            3,
            8,
            EncoderKind::HashTree,
            1,
        );
        assert_eq!(fused.in_dim(), 6);
        assert_eq!(fused.out_dim(), 5);
        let out = fused.query(&rand_matrix(9, 6, 47));
        assert_eq!(out.shape(), (9, 5));
        // 3 subspaces x 8 protos x 5 outputs x 4 bytes.
        assert_eq!(fused.storage_bytes(), 3 * 8 * 5 * 4);
    }
}
