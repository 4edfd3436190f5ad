//! Thread-count-invariance differential suite for the parallel kernels.
//!
//! PR 2 pinned the tiled batch kernels bit-for-bit against their scalar
//! references (`integration_kernels_diff.rs`); this suite pins them across
//! **thread counts**. Every kernel is run under explicit work-stealing
//! pools of 1, 2, 4, and 8 threads (via `rayon::ThreadPool::install`, so
//! one process covers all counts regardless of `DART_NUM_THREADS`) and the
//! outputs must be bit-for-bit identical to each other *and* to the scalar
//! row-at-a-time paths. That holds by construction — parallel pieces only
//! ever write disjoint output tiles and no terminal folds across items —
//! and this suite is what keeps it true as kernels evolve.
//!
//! Batch sizes straddle every tile boundary (empty, 1, tile ± 1,
//! non-multiples) and the hash-tree lane block (`ENCODE_LANES` ± 1, two
//! blocks + 3), same discipline as the scalar diff suite.
//!
//! On a CPU with AVX2 the same assertions also pin the vector argmin scan:
//! the pooled batch encodes dispatch to it while the row-at-a-time
//! references stay scalar, so thread-count invariance and simd-vs-scalar
//! equality are proven together (CI also runs this suite under
//! `DART_SIMD=off`).

use dart::core::config::TabularConfig;
use dart::core::tabularize::tabularize;
use dart::core::TabularModel;
use dart::nn::init::InitRng;
use dart::nn::matrix::Matrix;
use dart::nn::model::{AccessPredictor, ModelConfig};
use dart::pq::{
    AttentionTable, AttentionTableConfig, EncoderKind, FusedFfnTable, LinearTable,
    ProductQuantizer, AGG_TILE_ROWS, ATTN_TILE_SAMPLES, ENCODE_LANES, ENCODE_TILE_ROWS,
};
use dart::trace::PreprocessConfig;
use proptest::prelude::*;
use rayon::ThreadPool;

/// Thread counts every kernel output must be invariant across.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = InitRng::new(seed);
    Matrix::from_fn(r, c, |_, _| rng.normal())
}

fn encoder_of(tree: bool) -> EncoderKind {
    if tree {
        EncoderKind::HashTree
    } else {
        EncoderKind::Argmin
    }
}

/// Run `f` under each thread count, assert all results equal the first,
/// and return that canonical (1-thread) result.
fn invariant_across_pools<T, F>(f: F, context: &str) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let mut canonical: Option<T> = None;
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let got = pool.install(&f);
        match &canonical {
            None => canonical = Some(got),
            Some(reference) => {
                assert_eq!(&got, reference, "{context}: {threads} threads diverged from 1");
            }
        }
    }
    canonical.unwrap()
}

/// Bit-exact view of a Matrix (f32 `==` would treat -0.0 == 0.0 and hide
/// NaN; the invariance contract is on the bits).
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `encode_batch_into` produces identical codes at every thread count,
    /// all equal to scalar per-row encoding.
    #[test]
    fn encode_batch_is_thread_count_invariant(
        seed in 0u64..5_000,
        k in 2usize..16,
        c in 1usize..4,
        rows_idx in 0usize..9,
        tree in proptest::bool::ANY,
    ) {
        let rows = [
            0,
            1,
            ENCODE_LANES - 1,
            ENCODE_LANES,
            ENCODE_LANES + 1,
            2 * ENCODE_LANES + 3,
            ENCODE_TILE_ROWS - 1,
            ENCODE_TILE_ROWS + 1,
            2 * ENCODE_TILE_ROWS + 7,
        ][rows_idx];
        let dim = 6usize;
        let train = rand_matrix(60, dim, seed);
        let pq = ProductQuantizer::fit(&train, c, k, encoder_of(tree), seed);
        let x = rand_matrix(rows, dim, seed ^ 0xE0C0);

        let codes = invariant_across_pools(
            || {
                let mut codes = vec![0usize; rows * pq.num_subspaces()];
                pq.encode_batch_into(&x, &mut codes);
                codes
            },
            "encode_batch_into",
        );
        for r in 0..rows {
            let reference = pq.encode_row(x.row(r));
            prop_assert_eq!(
                &codes[r * pq.num_subspaces()..(r + 1) * pq.num_subspaces()],
                &reference[..],
                "row {} diverged from scalar", r
            );
        }
    }

    /// The shared `aggregate_codes_batch` kernel (via `LinearTable` and
    /// `FusedFfnTable` batch queries) is thread-count invariant and equal
    /// to the scalar row queries.
    #[test]
    fn aggregate_codes_batch_is_thread_count_invariant(
        seed in 0u64..5_000,
        k in 2usize..16,
        c in 1usize..4,
        rows_idx in 0usize..9,
        tree in proptest::bool::ANY,
    ) {
        let rows = [
            0,
            1,
            ENCODE_LANES - 1,
            ENCODE_LANES,
            ENCODE_LANES + 1,
            2 * ENCODE_LANES + 3,
            AGG_TILE_ROWS - 1,
            AGG_TILE_ROWS + 3,
            3 * AGG_TILE_ROWS + 5,
        ][rows_idx];
        let (din, dh, dout) = (6usize, 8usize, 5usize);
        let train = rand_matrix(70, din, seed);
        let w = rand_matrix(dout, din, seed ^ 0x11);
        let b: Vec<f32> = (0..dout).map(|o| o as f32 * 0.25 - 0.5).collect();
        let linear = LinearTable::fit(&train, &w, &b, c, k, encoder_of(tree), seed);
        let wh = rand_matrix(dh, din, seed ^ 0x33);
        let bh = vec![0.05f32; dh];
        let wo = rand_matrix(dout, dh, seed ^ 0x44);
        let bo = vec![-0.1f32; dout];
        let fused = FusedFfnTable::fit(&train, &wh, &bh, &wo, &bo, c, k, encoder_of(tree), seed);
        let x = rand_matrix(rows, din, seed ^ 0x22);

        let (lin_bits, fused_bits) = invariant_across_pools(
            || {
                let mut lin_out = Matrix::zeros(rows, dout);
                linear.query_batch_into(&x, &mut lin_out);
                (bits(&lin_out), bits(&fused.query(&x)))
            },
            "aggregate_codes_batch",
        );

        let lin_batch = linear.query(&x);
        prop_assert_eq!(bits(&lin_batch), lin_bits);
        let mut single = vec![0.0f32; dout];
        for r in 0..rows {
            linear.query_row_into(x.row(r), &mut single);
            prop_assert_eq!(&single[..], lin_batch.row(r), "linear row {} vs scalar", r);
        }
        let fused_batch = fused.query(&x);
        prop_assert_eq!(bits(&fused_batch), fused_bits);
        for r in 0..rows {
            fused.query_row_into(x.row(r), &mut single);
            prop_assert_eq!(&single[..], fused_batch.row(r), "fused row {} vs scalar", r);
        }
    }

    /// `AttentionTable::query_batch` is thread-count invariant and equal to
    /// per-sample queries.
    #[test]
    fn attention_query_batch_is_thread_count_invariant(
        seed in 0u64..5_000,
        k in 2usize..12,
        samples_idx in 0usize..4,
        tree in proptest::bool::ANY,
    ) {
        let samples =
            [1, ATTN_TILE_SAMPLES - 1, ATTN_TILE_SAMPLES + 1, 2 * ATTN_TILE_SAMPLES + 3]
            [samples_idx];
        let (t, dk) = (4usize, 6usize);
        let q = rand_matrix(20 * t, dk, seed ^ 0x66);
        let kk = rand_matrix(20 * t, dk, seed ^ 0x77);
        let v = rand_matrix(20 * t, dk, seed ^ 0x88);
        let cfg = AttentionTableConfig {
            k,
            ck: 2,
            ct: 2,
            encoder: encoder_of(tree),
            ..Default::default()
        };
        let table = AttentionTable::fit(&q, &kk, &v, t, &cfg);

        let qs = rand_matrix(samples * t, dk, seed ^ 0x99);
        let ks = rand_matrix(samples * t, dk, seed ^ 0xAA);
        let vs = rand_matrix(samples * t, dk, seed ^ 0xBB);

        let batch_bits = invariant_across_pools(
            || bits(&table.query_batch(&qs, &ks, &vs)),
            "attention query_batch",
        );
        let batch = table.query_batch(&qs, &ks, &vs);
        prop_assert_eq!(bits(&batch), batch_bits);
        for n in 0..samples {
            let single = table.query(
                &qs.slice_rows(n * t, (n + 1) * t),
                &ks.slice_rows(n * t, (n + 1) * t),
                &vs.slice_rows(n * t, (n + 1) * t),
            );
            for step in 0..t {
                prop_assert_eq!(
                    single.row(step), batch.row(n * t + step),
                    "sample {} step {} vs per-sample", n, step
                );
            }
        }
    }
}

/// The lane-block boundaries, every one of them for both encoders (the
/// proptests above only sample their lists): around `ENCODE_LANES` rows the
/// batch encode and the fused encode → aggregate kernels are identical at
/// every thread count and equal to the references that walk each subvector
/// alone.
#[test]
fn lane_block_boundaries_are_thread_count_invariant() {
    let (din, dh, dout) = (6usize, 8usize, 5usize);
    let train = rand_matrix(80, din, 0x1A);
    let w = rand_matrix(dout, din, 0x1B);
    let b: Vec<f32> = (0..dout).map(|o| o as f32 * 0.25 - 0.5).collect();
    let (wh, wo) = (rand_matrix(dh, din, 0x1C), rand_matrix(dout, dh, 0x1D));
    for encoder in [EncoderKind::HashTree, EncoderKind::Argmin] {
        let linear = LinearTable::fit(&train, &w, &b, 2, 16, encoder, 3);
        let fused = FusedFfnTable::fit(&train, &wh, &[0.05; 8], &wo, &[-0.1; 5], 2, 16, encoder, 3);
        let pq = linear.quantizer();
        for rows in [ENCODE_LANES - 1, ENCODE_LANES, ENCODE_LANES + 1, 2 * ENCODE_LANES + 3] {
            let x = rand_matrix(rows, din, 0x20 + rows as u64);
            let (codes, lin_bits, fused_bits) = invariant_across_pools(
                || {
                    let mut codes = vec![0usize; rows * pq.num_subspaces()];
                    pq.encode_batch_into(&x, &mut codes);
                    (codes, bits(&linear.query(&x)), bits(&fused.query(&x)))
                },
                &format!("{encoder:?}, {rows} rows"),
            );
            let (mut want_codes, mut want_lin, mut want_fused) = (vec![], vec![], vec![]);
            let mut single = vec![0.0f32; dout];
            for r in 0..rows {
                want_codes.extend(pq.encode_row(x.row(r)));
                linear.query_row_into(x.row(r), &mut single);
                want_lin.extend(single.iter().map(|f| f.to_bits()));
                fused.query_row_into(x.row(r), &mut single);
                want_fused.extend(single.iter().map(|f| f.to_bits()));
            }
            assert_eq!(codes, want_codes, "{encoder:?}, {rows} rows: codes");
            assert_eq!(lin_bits, want_lin, "{encoder:?}, {rows} rows: linear");
            assert_eq!(fused_bits, want_fused, "{encoder:?}, {rows} rows: fused");
        }
    }
}

/// The pooled linear query (the output projection's window mean) is
/// identical at every thread count and equal to materialise-then-mean, at
/// window lengths that divide a tile, leave idle rows in it, and exceed it.
#[test]
fn pooled_query_is_thread_count_invariant() {
    let (din, dout) = (6usize, 9usize);
    let train = rand_matrix(80, din, 0x9001);
    let w = rand_matrix(dout, din, 0x9002);
    let b: Vec<f32> = (0..dout).map(|o| o as f32 * 0.25 - 0.5).collect();
    for encoder in [EncoderKind::HashTree, EncoderKind::Argmin] {
        let table = LinearTable::fit(&train, &w, &b, 2, 16, encoder, 3);
        for (t, windows) in [(4usize, 19usize), (11, 7), (16, 5), (AGG_TILE_ROWS + 1, 3)] {
            let x = rand_matrix(windows * t, din, 0x9100 + t as u64);
            let pooled = invariant_across_pools(
                || bits(&table.query_pooled(&x, t)),
                &format!("{encoder:?} query_pooled, T {t}"),
            );
            let per_row = table.query(&x);
            let mut want = Vec::new();
            for n in 0..windows {
                let mut sum = vec![0.0f32; dout];
                for step in 0..t {
                    for (s, &r) in sum.iter_mut().zip(per_row.row(n * t + step)) {
                        *s += r;
                    }
                }
                want.extend(sum.iter().map(|s| (s * (1.0 / t as f32)).to_bits()));
            }
            assert_eq!(pooled, want, "{encoder:?}, T {t}");
        }
    }
}

/// End-to-end `predict_batch`: identical bits at 1/2/4/8 threads and equal
/// to per-sample `forward_probs`, at batch sizes wider than every tile.
#[test]
fn predict_batch_is_thread_count_invariant() {
    let pre = PreprocessConfig {
        seq_len: 4,
        addr_segments: 3,
        seg_bits: 4,
        pc_segments: 1,
        delta_range: 4,
        lookforward: 4,
    };
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 8,
        heads: 2,
        layers: 1,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, 0xD1FF).unwrap();
    let mut rng = InitRng::new(0xD1FF + 1);
    let x = Matrix::from_fn(40 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    for encoder in [EncoderKind::Argmin, EncoderKind::HashTree] {
        let tab_cfg =
            TabularConfig { k: 8, c: 2, encoder, fine_tune_epochs: 0, ..Default::default() };
        let (model, _): (TabularModel, _) = tabularize(&student, &x, &tab_cfg);

        for batch in [64usize, 33, 17, 1] {
            let stacked = Matrix::from_fn(batch * pre.seq_len, pre.input_dim(), |r, c| {
                ((r * 31 + c * 7) % 17) as f32 * 0.0625
            });
            let batched_bits = invariant_across_pools(
                || bits(&model.predict_batch(&stacked)),
                &format!("{encoder:?} predict_batch({batch})"),
            );
            let batched = model.predict_batch(&stacked);
            assert_eq!(bits(&batched), batched_bits);
            for n in 0..batch {
                let single = model
                    .forward_probs(&stacked.slice_rows(n * pre.seq_len, (n + 1) * pre.seq_len));
                assert_eq!(
                    single.row(0),
                    batched.row(n),
                    "{encoder:?}: sample {n} of batch {batch}"
                );
            }
        }
    }
}

/// The three dense products (the training-side hot path) are thread-count
/// invariant, below `PAR_THRESHOLD` (4096 output elements, one block on the
/// caller) and above it (row blocks on the pool), on shapes that are not
/// multiples of the register tiles (2 rows; 4, 8 or 16 columns; `k % 4`).
/// Each product keeps its own summation order per output — `matmul` and
/// `matmul_transa` a serial sum, `matmul_transb` `dot`'s four lanes — so
/// only each kernel's agreement with itself is asserted.
#[test]
fn blocked_matmul_is_thread_count_invariant() {
    // (m, k, n): 97 x 67 = 6499, 61 x 75 = 4575 and 67 x 193 = 12931
    // outputs are above the threshold, 23 x 37 = 851 below it; k = 257 and
    // n = 193 walk many `matmul_transb` panels (the last one partial) and
    // the serial-sum tiles' full width in every row block.
    for (m, k, n) in [(97, 67, 67), (61, 43, 75), (23, 13, 37), (67, 257, 193)] {
        let a = rand_matrix(m, k, 0xAB ^ m as u64);
        let b = rand_matrix(k, n, 0xCD ^ n as u64);
        let bt = rand_matrix(n, k, 0xEF ^ k as u64);
        let at = rand_matrix(k, m, 0x12 ^ k as u64);
        let shape = format!("{m}x{k}x{n}");
        let product = invariant_across_pools(|| bits(&a.matmul(&b)), &format!("matmul {shape}"));
        let transb = invariant_across_pools(
            || bits(&a.matmul_transb(&bt)),
            &format!("matmul_transb {shape}"),
        );
        let transa = invariant_across_pools(
            || bits(&at.matmul_transa(&b)),
            &format!("matmul_transa {shape}"),
        );
        for got in [product, transb, transa] {
            assert_eq!(got.len(), m * n, "{shape}");
        }
    }
}

/// Tabularization itself (k-means fitting with parallel assignment steps)
/// is deterministic across thread counts: fitting the same quantizer under
/// different pools yields bit-identical prototypes and codes.
#[test]
fn quantizer_fit_is_thread_count_invariant() {
    let train = rand_matrix(200, 8, 0x5EED);
    let probe = rand_matrix(40, 8, 0xFACE);
    let codes = invariant_across_pools(
        || {
            let pq = ProductQuantizer::fit(&train, 2, 12, EncoderKind::Argmin, 42);
            let mut codes = vec![0usize; probe.rows() * pq.num_subspaces()];
            pq.encode_batch_into(&probe, &mut codes);
            codes
        },
        "ProductQuantizer::fit",
    );
    assert_eq!(codes.len(), probe.rows() * 2);
}
