//! The **linear kernel** (paper §V-A, Eq. 10–11): tabularized
//! `y = W x + b` over a `T`-length token sequence.
//!
//! Training learns prototypes over the row vectors of the training
//! activations, then precomputes `h^c_o(W)_k = W^c_o · p_c(X̃_r)_k` for every
//! (subspace `c`, prototype `k`, output `o`). The bias is *folded into the
//! table*: subspace 0's entries carry `+ b_o`, so query aggregation adds the
//! bias exactly once with no extra work (the paper's `b_r` trick).
//!
//! Query (Eq. 11): encode each input row per subspace, gather the `D_O`-wide
//! table rows, and sum over subspaces. Rows are embarrassingly parallel.

use dart_nn::matrix::{dot, Matrix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::arena::TableArena;
use crate::quantizer::{EncoderKind, ProductQuantizer};
use crate::simd::scalar::{add_assign, init_row};

/// Rows per tile of the linear kernels' fused encode → aggregate loop: the
/// loop runs subspace-outer over a tile of rows, so one subspace's encoder
/// and one sub-table block of the arena stay cache-resident for the whole
/// tile pass while the tile's output rows (`AGG_TILE_ROWS x D_O` floats)
/// stay L1/L2-resident. Tiles are also the unit of rayon parallelism.
pub const AGG_TILE_ROWS: usize = 32;

/// Element-wise transform folded into the table at construction time
/// (the paper's "integration of activation functions between operations").
///
/// With `Relu`, prototypes are learned on *pre-activation* inputs but table
/// entries store `W · relu(prototype)`, so the preceding activation costs
/// nothing at query time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtoTransform {
    /// No transform: plain `W · p + b`.
    #[default]
    Identity,
    /// Fold a preceding ReLU into the table entries.
    Relu,
}

impl ProtoTransform {
    fn apply(&self, proto: &[f32]) -> Vec<f32> {
        match self {
            ProtoTransform::Identity => proto.to_vec(),
            ProtoTransform::Relu => proto.iter().map(|&x| x.max(0.0)).collect(),
        }
    }
}

/// A tabularized linear layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinearTable {
    pq: ProductQuantizer,
    /// Flat code-major arena of `C` sub-tables, each `K x D_O`;
    /// `table.row(c, k)` is the precomputed contribution of prototype `k`
    /// to every output dim.
    table: TableArena,
    out_dim: usize,
}

impl LinearTable {
    /// Tabularize a linear layer.
    ///
    /// * `train_inputs` — representative activations, `R x D_I` (rows pooled
    ///   across samples and sequence positions, the paper's `X̃_r`).
    /// * `weight` — `D_O x D_I`; `bias` — length `D_O`.
    /// * `c`, `k` — subspaces and prototypes per subspace.
    pub fn fit(
        train_inputs: &Matrix,
        weight: &Matrix,
        bias: &[f32],
        c: usize,
        k: usize,
        encoder: EncoderKind,
        seed: u64,
    ) -> LinearTable {
        Self::fit_transformed(
            train_inputs,
            weight,
            bias,
            c,
            k,
            encoder,
            ProtoTransform::Identity,
            seed,
        )
    }

    /// Tabularize `x -> W · f(x) + b` where `f` is an element-wise transform
    /// folded into the table entries (see [`ProtoTransform`]).
    /// `train_inputs` must be *pre-transform* activations.
    #[allow(clippy::too_many_arguments)] // mirrors the layer's full parameter list on purpose
    pub fn fit_transformed(
        train_inputs: &Matrix,
        weight: &Matrix,
        bias: &[f32],
        c: usize,
        k: usize,
        encoder: EncoderKind,
        transform: ProtoTransform,
        seed: u64,
    ) -> LinearTable {
        assert_eq!(train_inputs.cols(), weight.cols(), "input dim mismatch");
        assert_eq!(bias.len(), weight.rows(), "bias length mismatch");
        let out_dim = weight.rows();
        let pq = ProductQuantizer::fit(train_inputs, c, k, encoder, seed);

        let mut table = TableArena::zeros(pq.num_subspaces(), pq.num_protos(), out_dim);
        table.fill_subtables_parallel(|ci, sub| {
            let (lo, hi) = pq.bounds()[ci];
            for proto in 0..pq.num_protos() {
                let p = transform.apply(&pq.proto(ci, proto));
                let row = &mut sub[proto * out_dim..(proto + 1) * out_dim];
                for (o, slot) in row.iter_mut().enumerate() {
                    *slot = dot(&p, &weight.row(o)[lo..hi]);
                    // Bias folding: subspace 0 carries the bias.
                    if ci == 0 {
                        *slot += bias[o];
                    }
                }
            }
        });

        LinearTable { pq, table, out_dim }
    }

    /// Check that the quantizer is consistent and the table has one
    /// `K x D_O` sub-table per quantizer subspace (see
    /// [`ProductQuantizer::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        validate_table(&self.pq, &self.table, self.out_dim)
    }

    /// Output dimension `D_O`.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension `D_I`.
    pub fn in_dim(&self) -> usize {
        self.pq.dim()
    }

    /// Number of subspaces `C`.
    pub fn num_subspaces(&self) -> usize {
        self.pq.num_subspaces()
    }

    /// Prototypes per subspace `K`.
    pub fn num_protos(&self) -> usize {
        self.pq.num_protos()
    }

    /// The underlying product quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Approximate `x W^T + b` for stacked rows `x` (`R x D_I`) via lookups.
    pub fn query(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        self.query_batch_into(x, &mut out);
        out
    }

    /// Batched multi-row query into a caller buffer (the serving hot path).
    ///
    /// One fused pass (see [`aggregate_codes_batch`]): per tile of rows and
    /// per subspace, a block of rows is encoded and their table rows are
    /// added where the codes are produced — no codes buffer, and nothing
    /// allocated. Per-row accumulation order is identical to
    /// [`Self::query_row_into`] — subspace 0, 1, … — so results are
    /// bit-for-bit equal to row-at-a-time queries.
    pub fn query_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.pq.dim(), "query dim mismatch");
        assert_eq!(out.shape(), (x.rows(), self.out_dim), "output shape mismatch");
        aggregate_codes_batch(&self.pq, &self.table, x, out, None);
    }

    /// The query averaged over windows: `x` is `B` stacked windows of
    /// `seq_len` rows, and row `n` of the `B x D_O` result is the mean of
    /// window `n`'s row queries — bit for bit `query(x)` followed by a sum
    /// from `0.0` over the window's rows in order and a multiply by
    /// `1.0 / seq_len`. One [`aggregate_codes_batch`] pass with a window
    /// epilogue: its tiles hold whole windows (one window when `seq_len >
    /// AGG_TILE_ROWS`), each row is fully aggregated before it joins its
    /// window's sum, and no more than one tile of per-row results exists
    /// at a time.
    pub fn query_pooled(&self, x: &Matrix, seq_len: usize) -> Matrix {
        assert_eq!(x.cols(), self.pq.dim(), "query dim mismatch");
        assert!(seq_len > 0, "seq_len must be positive");
        assert_eq!(x.rows() % seq_len, 0, "rows not divisible by seq_len");
        let mut out = Matrix::zeros(x.rows() / seq_len, self.out_dim);
        aggregate_codes_batch(&self.pq, &self.table, x, &mut out, Some(seq_len));
        out
    }

    /// Single-row query into a caller buffer: the row-at-a-time reference
    /// the differential suites compare [`Self::query_batch_into`] against —
    /// one lone encode and one table row per subspace, no tiles, no lane
    /// blocks. Kept for that; nothing on a serving path calls it
    /// (`DartPrefetcher` and `dart-serve` go through the batch kernels).
    #[inline]
    pub fn query_row_into(&self, row: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.out_dim);
        out.fill(0.0);
        for (ci, &(lo, hi)) in self.pq.bounds().iter().enumerate() {
            let code = self.pq.encode_sub(ci, &row[lo..hi]);
            let trow = self.table.row(ci, code);
            for (o, &t) in out.iter_mut().zip(trow) {
                *o += t;
            }
        }
    }

    /// Actual storage footprint in bytes: table entries (f32) plus the
    /// per-level encoder state is negligible and excluded, matching the
    /// paper's accounting (Eq. 18 counts table entries + encoded indices).
    pub fn storage_bytes(&self) -> u64 {
        (self.table.len() * 4) as u64
    }
}

/// The agreements [`aggregate_codes_batch`] indexes by: a consistent
/// quantizer whose every code of every subspace names a `width`-wide row of
/// `table`. Shared by [`LinearTable`] and [`crate::FusedFfnTable`].
pub(crate) fn validate_table(
    pq: &ProductQuantizer,
    table: &TableArena,
    width: usize,
) -> Result<(), String> {
    pq.validate()?;
    let want = (pq.num_subspaces(), pq.num_protos(), width);
    let got = (table.num_subspaces(), table.num_protos(), table.width());
    if got != want {
        return Err(format!(
            "table is {} x {} x {}, quantizer and output need {} x {} x {}",
            got.0, got.1, got.2, want.0, want.1, want.2
        ));
    }
    Ok(())
}

/// The linear kernel's batch query, shared by [`LinearTable`] and
/// [`crate::FusedFfnTable`]: encode the rows of `x` and sum each row's
/// per-subspace table rows into `out`, in one pass — one output row per
/// input row, or with `window = Some(t)` one per `t`-row window, the mean
/// of its rows ([`LinearTable::query_pooled`]).
///
/// Tiled over [`AGG_TILE_ROWS`]-row blocks of the input (with a window,
/// as many whole windows as fit, at least one); within a tile the
/// subspace loop is **outer**, and each subspace hands the tile's rows to
/// [`ProductQuantizer::encode_run`], whose codes are consumed as they are
/// produced: a lane block of rows is encoded, then their table rows — all
/// from the one contiguous sub-table block being swept — are added to their
/// rows. No code is ever stored. Per-`(row, output)` accumulation still
/// runs in subspace order 0, 1, …, so results match the single-row query
/// paths bit for bit; tiles write disjoint output rows and run
/// rayon-parallel. A windowed tile aggregates into its own scratch rows,
/// then sums each window's rows from `0.0` in step order and scales by
/// `1.0 / t`.
///
/// One function, two kernel names: it reports the batch under
/// `encode_batch` *and* under `aggregate_codes` (see [`crate::profile`]),
/// as the separate encode call it replaced did. Only the encode is
/// dispatched (the argmin scan); the row-accumulate inner loops are the
/// plain [`init_row`] / [`add_assign`] bodies, which the compiler
/// vectorizes across the `D_O` output-column lanes.
pub(crate) fn aggregate_codes_batch(
    pq: &ProductQuantizer,
    table: &TableArena,
    x: &Matrix,
    out: &mut Matrix,
    window: Option<usize>,
) {
    let nearest = crate::simd::nearest_dim_major();
    let out_dim = out.cols();
    crate::profile::profile_kernel("aggregate_codes", x.rows() as u64);
    crate::profile::profile_kernel("encode_batch", x.rows() as u64);
    let t = window.unwrap_or(1);
    // Output rows per tile; a tile reads `tile_out * t` input rows.
    let tile_out = (AGG_TILE_ROWS / t).max(1);
    out.as_mut_slice().par_chunks_mut(tile_out * out_dim).enumerate().for_each(|(tile, orows)| {
        let r0 = tile * tile_out * t;
        // A windowed tile aggregates its rows here, then pools them.
        let mut scratch = if window.is_some() { vec![0.0f32; orows.len() * t] } else { Vec::new() };
        let rows = if window.is_some() { &mut scratch[..] } else { &mut *orows };
        for (ci, &(lo, hi)) in pq.bounds().iter().enumerate() {
            let sub = table.subtable(ci);
            pq.encode_run(
                ci,
                rows.len() / out_dim,
                nearest,
                |rr| &x.row(r0 + rr)[lo..hi],
                |rr, code| {
                    let row = &mut rows[rr * out_dim..(rr + 1) * out_dim];
                    let trow = &sub[code * out_dim..(code + 1) * out_dim];
                    if ci == 0 {
                        // First pass initializes the tile: `0.0 + t` (not a
                        // copy) keeps the accumulation bit-identical to the
                        // fill-then-add scalar path, including -0.0 entries.
                        init_row(row, trow);
                    } else {
                        add_assign(row, trow);
                    }
                },
            );
        }
        if window.is_some() {
            let inv = 1.0 / t as f32;
            for (orow, steps) in orows.chunks_mut(out_dim).zip(scratch.chunks(t * out_dim)) {
                orow.fill(0.0);
                for step in steps.chunks(out_dim) {
                    add_assign(orow, step);
                }
                for o in orow.iter_mut() {
                    *o *= inv;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::init::InitRng;

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        Matrix::from_fn(r, c, |_, _| rng.normal())
    }

    fn exact_linear(x: &Matrix, w: &Matrix, b: &[f32]) -> Matrix {
        x.matmul_transb(w).add_row_broadcast(b)
    }

    #[test]
    fn exact_when_inputs_live_on_prototypes() {
        // 4 distinct input rows, K=4 prototypes with argmin encoding:
        // the quantization is lossless so the table output is exact.
        let base = rand_matrix(4, 6, 3);
        let mut train_rows = Vec::new();
        for rep in 0..10 {
            for i in 0..4 {
                let _ = rep;
                train_rows.push(base.slice_rows(i, i + 1));
            }
        }
        let train = Matrix::vstack(&train_rows);
        let w = rand_matrix(5, 6, 7);
        let b = vec![0.1, -0.2, 0.3, 0.0, 1.0];
        let lt = LinearTable::fit(&train, &w, &b, 2, 4, EncoderKind::Argmin, 1);
        let approx = lt.query(&base);
        let exact = exact_linear(&base, &w, &b);
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
    fn bias_is_added_exactly_once() {
        // Zero weight: output must equal the bias for every row, regardless
        // of the number of subspaces.
        let train = rand_matrix(50, 8, 5);
        let w = Matrix::zeros(3, 8);
        let b = vec![1.5, -2.5, 0.25];
        for c in [1, 2, 4] {
            let lt = LinearTable::fit(&train, &w, &b, c, 8, EncoderKind::Argmin, 2);
            let out = lt.query(&train.slice_rows(0, 5));
            for r in 0..5 {
                for (o, &expect) in out.row(r).iter().zip(&b) {
                    assert!((o - expect).abs() < 1e-5, "c={c}: bias leaked {o} vs {expect}");
                }
            }
        }
    }

    #[test]
    fn error_decreases_with_more_prototypes() {
        let train = rand_matrix(400, 8, 11);
        let w = rand_matrix(4, 8, 13);
        let b = vec![0.0; 4];
        let test = rand_matrix(50, 8, 17);
        let exact = exact_linear(&test, &w, &b);
        let mut last_err = f64::INFINITY;
        for k in [2, 8, 64] {
            let lt = LinearTable::fit(&train, &w, &b, 2, k, EncoderKind::Argmin, 3);
            let approx = lt.query(&test);
            let err: f64 =
                approx.sub(&exact).as_slice().iter().map(|&e| (e as f64) * (e as f64)).sum::<f64>();
            assert!(err < last_err + 1e-9, "K={k}: error {err} did not shrink from {last_err}");
            last_err = err;
        }
    }

    #[test]
    fn query_shapes() {
        let train = rand_matrix(100, 6, 19);
        let w = rand_matrix(9, 6, 23);
        let b = vec![0.0; 9];
        let lt = LinearTable::fit(&train, &w, &b, 3, 8, EncoderKind::HashTree, 4);
        assert_eq!(lt.in_dim(), 6);
        assert_eq!(lt.out_dim(), 9);
        assert_eq!(lt.num_subspaces(), 3);
        assert_eq!(lt.num_protos(), 8);
        let out = lt.query(&rand_matrix(7, 6, 29));
        assert_eq!(out.shape(), (7, 9));
    }

    #[test]
    fn hash_tree_tracks_argmin_quality() {
        let train = rand_matrix(500, 8, 31);
        let w = rand_matrix(4, 8, 37);
        let b = vec![0.5; 4];
        let test = rand_matrix(60, 8, 41);
        let exact = exact_linear(&test, &w, &b);
        let frob = |m: &Matrix| m.frobenius_norm() as f64;

        let lt_exact = LinearTable::fit(&train, &w, &b, 2, 16, EncoderKind::Argmin, 5);
        let lt_tree = LinearTable::fit(&train, &w, &b, 2, 16, EncoderKind::HashTree, 5);
        let e_exact = frob(&lt_exact.query(&test).sub(&exact));
        let e_tree = frob(&lt_tree.query(&test).sub(&exact));
        // The tree encoder is approximate but should stay in the same regime.
        assert!(e_tree < e_exact * 3.0 + 1e-6, "tree {e_tree} vs argmin {e_exact}");
    }

    #[test]
    fn storage_scales_with_k_and_c() {
        let train = rand_matrix(100, 8, 43);
        let w = rand_matrix(4, 8, 47);
        let b = vec![0.0; 4];
        let small = LinearTable::fit(&train, &w, &b, 1, 4, EncoderKind::Argmin, 6);
        let big = LinearTable::fit(&train, &w, &b, 4, 16, EncoderKind::Argmin, 6);
        assert!(big.storage_bytes() > small.storage_bytes());
        // K*C*DO*4 bytes exactly.
        assert_eq!(small.storage_bytes(), (4 * 4 * 4) as u64);
        assert_eq!(big.storage_bytes(), (16 * 4 * 4 * 4) as u64);
    }

    #[test]
    fn single_row_query_matches_batch() {
        let train = rand_matrix(200, 6, 53);
        let w = rand_matrix(5, 6, 59);
        let b = vec![0.1; 5];
        let lt = LinearTable::fit(&train, &w, &b, 2, 8, EncoderKind::Argmin, 7);
        let test = rand_matrix(4, 6, 61);
        let batch = lt.query(&test);
        let mut single = vec![0.0f32; 5];
        for r in 0..4 {
            lt.query_row_into(test.row(r), &mut single);
            assert_eq!(&single[..], batch.row(r));
        }
    }
    #[test]
    fn relu_folding_matches_relu_then_linear() {
        // Inputs that live exactly on prototypes: folding ReLU into the
        // table must equal applying ReLU then the dense linear.
        let base = rand_matrix(4, 6, 71);
        let train = Matrix::vstack(&[base.clone(), base.clone(), base.clone()]);
        let w = rand_matrix(3, 6, 73);
        let b = vec![0.2, -0.1, 0.0];
        let lt = LinearTable::fit_transformed(
            &train,
            &w,
            &b,
            2,
            4,
            EncoderKind::Argmin,
            ProtoTransform::Relu,
            1,
        );
        let approx = lt.query(&base);
        let exact = exact_linear(&base.map(|v| v.max(0.0)), &w, &b);
        for i in 0..exact.len() {
            assert!(
                (approx.as_slice()[i] - exact.as_slice()[i]).abs() < 1e-3,
                "entry {i}: {} vs {}",
                approx.as_slice()[i],
                exact.as_slice()[i]
            );
        }
    }
}
