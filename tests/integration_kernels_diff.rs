//! Differential suite for the flat-arena tiled batch kernels.
//!
//! The tiled kernels (`ProductQuantizer::encode_batch_into`,
//! `LinearTable`/`FusedFfnTable::query_batch_into`,
//! `LinearTable::query_pooled`, `AttentionTable::query_batch` and its
//! in-place `query_batch_coded`, `TabularModel::predict_batch`) process a
//! block of rows per sub-table pass over one contiguous arena. Their
//! contract is **bit-for-bit** equality with the straightforward scalar
//! reference (`encode_row`, `query_row_into`, per-sample `query` /
//! `forward_probs`): per-`(row, output)` accumulation runs in the same
//! subspace order, so no ULP tolerance is needed — every assertion below is
//! exact. Batch sizes deliberately straddle the tile boundaries (empty, 1,
//! tile - 1, tile, tile + 1, several tiles, non-multiples) and the
//! hash-tree lane block inside a tile (`ENCODE_LANES` - 1, one block, one
//! block + a one-row tail, two blocks + 3): the references walk every
//! subvector alone, the batch kernels walk `ENCODE_LANES` at a time.
//!
//! Every encode — batch or row-at-a-time — runs the dispatched argmin scan
//! (the AVX2 compile of the 16-centroid block body where the CPU has it);
//! `encode_batch_scalar_into` stays pinned to the per-centroid strided
//! reference, so `encode_batch_matches_per_row` is also **the
//! dispatched-vs-reference differential** (CI also runs this suite under
//! `DART_SIMD=off`, which swaps in the baseline compile). Prototype counts
//! straddle the 16-centroid block — tail only, one block + tail (24), two
//! blocks + tail (40) — so the block body, the tail and their hand-over are
//! all covered.

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

fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = InitRng::new(seed);
    Matrix::from_fn(r, c, |_, _| rng.normal())
}

/// Batch sizes that exercise both tile boundaries and the lane block:
/// empty, one row, one under/at/over the block and each tile size, and
/// non-multiples several blocks and several tiles long.
fn boundary_batches() -> Vec<usize> {
    vec![
        0,
        1,
        ENCODE_LANES - 1,
        ENCODE_LANES,
        ENCODE_LANES + 1,
        2 * ENCODE_LANES + 3,
        AGG_TILE_ROWS - 1,
        AGG_TILE_ROWS,
        AGG_TILE_ROWS + 3,
        ENCODE_TILE_ROWS - 1,
        ENCODE_TILE_ROWS,
        ENCODE_TILE_ROWS + 5,
        2 * ENCODE_TILE_ROWS + 7,
    ]
}

fn encoder_of(tree: bool) -> EncoderKind {
    if tree {
        EncoderKind::HashTree
    } else {
        EncoderKind::Argmin
    }
}

/// Bit-exact view of a Matrix (`f32 ==` would hide -0.0 vs 0.0 and NaN;
/// the simd-vs-scalar contract is on the bits).
fn bits_of(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tiled batch encoding equals per-row scalar encoding for every code.
    #[test]
    fn encode_batch_matches_per_row(
        seed in 0u64..5_000,
        // 1..=24 plus 40: up to two full 16-centroid blocks and a tail.
        k in (1usize..26).prop_map(|k| if k == 25 { 40 } else { k }),
        c in 1usize..5,
        dim in 2usize..10,
        size_idx in 0usize..13,
        tree in proptest::bool::ANY,
    ) {
        let rows = boundary_batches()[size_idx];
        let train = rand_matrix(60, dim, seed);
        let pq = ProductQuantizer::fit(&train, c, k, encoder_of(tree), seed);
        let x = rand_matrix(rows, dim, seed ^ 0xE0C0);
        let mut codes = vec![0usize; rows * pq.num_subspaces()];
        pq.encode_batch_into(&x, &mut codes);
        for r in 0..rows {
            let reference = pq.encode_row(x.row(r));
            prop_assert_eq!(
                &codes[r * pq.num_subspaces()..(r + 1) * pq.num_subspaces()],
                &reference[..],
                "row {} codes diverged (rows {})", r, rows
            );
        }
        // The dispatched batch encode must equal the batch encode through
        // the strided reference scan exactly.
        let mut scalar_codes = vec![0usize; rows * pq.num_subspaces()];
        pq.encode_batch_scalar_into(&x, &mut scalar_codes);
        prop_assert_eq!(codes, scalar_codes, "dispatched vs reference encode diverged");
    }

    /// Tiled linear-table batch query equals the scalar single-row query
    /// bit for bit at every batch size.
    #[test]
    fn linear_query_batch_matches_row_scalar(
        seed in 0u64..5_000,
        k in 2usize..32,
        c in 1usize..4,
        // 1..20 output columns: straddles the auto-vectorised loops' lane
        // widths (sub-lane, exact multiples, and ragged tails).
        dout in 1usize..20,
        size_idx in 0usize..13,
        tree in proptest::bool::ANY,
    ) {
        let rows = boundary_batches()[size_idx];
        let din = 6usize;
        let train = rand_matrix(80, din, seed);
        let w = rand_matrix(dout, din, seed ^ 0x11);
        let b: Vec<f32> = (0..dout).map(|o| o as f32 * 0.25 - 0.5).collect();
        let table = LinearTable::fit(&train, &w, &b, c, k, encoder_of(tree), seed);
        let x = rand_matrix(rows, din, seed ^ 0x22);

        let batch = table.query(&x);
        prop_assert_eq!(batch.shape(), (rows, dout));
        let mut single = vec![0.0f32; dout];
        for r in 0..rows {
            table.query_row_into(x.row(r), &mut single);
            prop_assert_eq!(&single[..], batch.row(r), "row {} of {}", r, rows);
        }

        // query_batch_into into a caller buffer is the same kernel.
        let mut out = Matrix::zeros(rows, dout);
        table.query_batch_into(&x, &mut out);
        prop_assert_eq!(bits_of(&out), bits_of(&batch));
    }

    /// Tiled fused-FFN batch query equals its scalar single-row query.
    #[test]
    fn fused_query_batch_matches_row_scalar(
        seed in 0u64..5_000,
        k in 2usize..16,
        c in 1usize..4,
        size_idx in 0usize..13,
        tree in proptest::bool::ANY,
    ) {
        let rows = boundary_batches()[size_idx];
        let (din, dh, dout) = (6usize, 10usize, 4usize);
        let train = rand_matrix(70, din, seed);
        let wh = rand_matrix(dh, din, seed ^ 0x33);
        let bh = vec![0.05f32; dh];
        let wo = rand_matrix(dout, dh, seed ^ 0x44);
        let bo = vec![-0.1f32; dout];
        let fused =
            FusedFfnTable::fit(&train, &wh, &bh, &wo, &bo, c, k, encoder_of(tree), seed);
        let x = rand_matrix(rows, din, seed ^ 0x55);

        let batch = fused.query(&x);
        prop_assert_eq!(batch.shape(), (rows, dout));
        let mut single = vec![0.0f32; dout];
        for r in 0..rows {
            fused.query_row_into(x.row(r), &mut single);
            prop_assert_eq!(&single[..], batch.row(r), "row {} of {}", r, rows);
        }
    }

    /// Sample-tiled batched attention equals querying each sample alone.
    #[test]
    fn attention_query_batch_matches_per_sample(
        seed in 0u64..5_000,
        k in 2usize..16,
        samples_idx in 0usize..6,
        tree in proptest::bool::ANY,
    ) {
        // Straddle the attention tile (samples, not rows).
        let batches =
            [0, 1, ATTN_TILE_SAMPLES - 1, ATTN_TILE_SAMPLES, ATTN_TILE_SAMPLES + 1,
             2 * ATTN_TILE_SAMPLES + 3];
        let samples = batches[samples_idx];
        let (t, dk) = (4usize, 6usize);
        let q = rand_matrix(30 * t, dk, seed ^ 0x66);
        let kk = rand_matrix(30 * t, dk, seed ^ 0x77);
        let v = rand_matrix(30 * t, dk, seed ^ 0x88);
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
        let batch = table.query_batch(&qs, &ks, &vs);
        prop_assert_eq!(batch.shape(), (samples * t, dk));
        for n in 0..samples {
            let single = table.query(
                &qs.slice_rows(n * t, (n + 1) * t),
                &ks.slice_rows(n * t, (n + 1) * t),
                &vs.slice_rows(n * t, (n + 1) * t),
            );
            for step in 0..t {
                prop_assert_eq!(
                    single.row(step), batch.row(n * t + step),
                    "sample {} step {} diverged", n, step
                );
            }
        }
    }
}

/// Attention shapes wide enough to fill whole 8-lane vectors in BOTH
/// gather stages (QK lanes = seq_len = 12, QKV lanes = head dim = 16) plus
/// ragged tails — the proptest above keeps t/dk small for fit speed, so
/// this pins batch-vs-per-sample equality at full-vector widths
/// deterministically, at prototype counts below (8), across (24) and
/// beyond (40) the argmin scan's 16-centroid block.
#[test]
fn attention_batch_matches_per_sample_at_vector_filling_shapes() {
    let (t, dk) = (12usize, 16usize);
    let q = rand_matrix(20 * t, dk, 0x1001);
    let kk = rand_matrix(20 * t, dk, 0x1002);
    let v = rand_matrix(20 * t, dk, 0x1003);
    for (encoder, k) in [
        (EncoderKind::Argmin, 8),
        (EncoderKind::Argmin, 24),
        (EncoderKind::Argmin, 40),
        (EncoderKind::HashTree, 8),
    ] {
        let cfg = AttentionTableConfig { k, ck: 3, ct: 3, encoder, ..Default::default() };
        let table = AttentionTable::fit(&q, &kk, &v, t, &cfg);
        let qs = rand_matrix(5 * t, dk, 0x2001);
        let ks = rand_matrix(5 * t, dk, 0x2002);
        let vs = rand_matrix(5 * t, dk, 0x2003);
        let batch = table.query_batch(&qs, &ks, &vs);
        for n in 0..5 {
            let rows = n * t..(n + 1) * t;
            let single = table.query(
                &qs.slice_rows(rows.start, rows.end),
                &ks.slice_rows(rows.start, rows.end),
                &vs.slice_rows(rows.start, rows.end),
            );
            assert_eq!(
                bits_of(&single),
                bits_of(&batch.slice_rows(rows.start, rows.end)),
                "encoder {encoder:?} k {k} sample {n}"
            );
        }
    }
}

/// Window lengths the in-place heads and the pooled query are pinned at:
/// a divisor of `AGG_TILE_ROWS` (8 windows a tile), one that is not (11:
/// two windows and 10 idle rows), DART's 16, and one past a whole tile
/// (33: a tile is one window).
const WINDOWS: [usize; 4] = [4, 11, 16, 33];

/// A block's heads through the one attention kernel, in place — codes read
/// from shared code rows at each head's offset, V read from and output
/// written to each head's columns of shared matrices — equal, bit for bit,
/// each head queried alone through `query_batch` on copied columns. Heads
/// 1 / 2 / 4 with unequal `C_k`, a `D_k` off a multiple of 8, and a batch
/// past one attention tile. Columns of later heads are untouched until
/// their head runs.
#[test]
fn in_place_heads_equal_per_head_query_batch() {
    let dk = 5usize;
    let samples = ATTN_TILE_SAMPLES + 3;
    let untouched = f32::from_bits(0x7fc0_1234);
    for heads in [1usize, 2, 4] {
        for t in WINDOWS {
            let seed = (heads * 100 + t) as u64;
            let tables: Vec<AttentionTable> = (0..heads)
                .map(|h| {
                    let fit = |s| rand_matrix(12 * t, dk, seed ^ (h as u64) << 8 ^ s);
                    let cfg = AttentionTableConfig {
                        k: 8,
                        ck: [2, 1, 3, 2][h],
                        ct: 2,
                        encoder: encoder_of(h % 2 == 0),
                        ..Default::default()
                    };
                    AttentionTable::fit(&fit(1), &fit(2), &fit(3), t, &cfg)
                })
                .collect();
            let rows = samples * t;
            let width: usize = tables.iter().map(|a| 2 * a.qk_subspaces()).sum();
            let q: Vec<Matrix> =
                (0..heads).map(|h| rand_matrix(rows, dk, seed ^ 0x10 ^ h as u64)).collect();
            let k: Vec<Matrix> =
                (0..heads).map(|h| rand_matrix(rows, dk, seed ^ 0x20 ^ h as u64)).collect();
            let v = rand_matrix(rows, heads * dk, seed ^ 0x30);

            let mut codes = vec![0u16; rows * width];
            let mut at = 0;
            for (h, table) in tables.iter().enumerate() {
                table.encode_qk_rows(&q[h], &k[h], &mut codes, width, at);
                at += 2 * table.qk_subspaces();
            }
            let mut concat = Matrix::from_fn(rows, heads * dk, |_, _| untouched);
            let mut at = 0;
            for (h, table) in tables.iter().enumerate() {
                table.query_batch_coded(&codes, width, at, &v, h * dk, &mut concat);
                at += 2 * table.qk_subspaces();
                let later = concat.slice_cols((h + 1) * dk, heads * dk);
                assert!(
                    later.as_slice().iter().all(|x| x.to_bits() == untouched.to_bits()),
                    "{heads} heads, T {t}: head {h} wrote past its columns"
                );
            }
            for (h, table) in tables.iter().enumerate() {
                let (lo, hi) = (h * dk, (h + 1) * dk);
                let alone = table.query_batch(&q[h], &k[h], &v.slice_cols(lo, hi));
                assert_eq!(
                    bits_of(&concat.slice_cols(lo, hi)),
                    bits_of(&alone),
                    "{heads} heads, T {t}: head {h}"
                );
            }
        }
    }
}

/// The pooled linear query equals materialise-then-mean bit for bit: every
/// row's full query, then per window a sum from `0.0` over its rows in step
/// order and one multiply by `1.0 / T`. Window counts from none to past
/// several tiles at each window length, with output widths on and off the
/// vector lanes.
#[test]
fn pooled_query_equals_materialise_then_mean() {
    let din = 7usize;
    for t in WINDOWS {
        for (dout, tree) in [(5usize, true), (16, false), (19, true)] {
            let seed = (t * 10 + dout) as u64;
            let train = rand_matrix(90, din, seed);
            let w = rand_matrix(dout, din, seed ^ 0x11);
            let b: Vec<f32> = (0..dout).map(|o| o as f32 * 0.25 - 0.5).collect();
            let table = LinearTable::fit(&train, &w, &b, 3, 12, encoder_of(tree), seed);
            for windows in [0usize, 1, 2, 9, 17] {
                let x = rand_matrix(windows * t, din, seed ^ windows as u64);
                let per_row = table.query(&x);
                let mut want = Matrix::zeros(windows, dout);
                for n in 0..windows {
                    let orow = want.row_mut(n);
                    for step in 0..t {
                        for (o, &r) in orow.iter_mut().zip(per_row.row(n * t + step)) {
                            *o += r;
                        }
                    }
                    for o in orow.iter_mut() {
                        *o *= 1.0 / t as f32;
                    }
                }
                let got = table.query_pooled(&x, t);
                assert_eq!(got.shape(), (windows, dout));
                assert_eq!(bits_of(&got), bits_of(&want), "T {t}, D_O {dout}, {windows} windows");
            }
        }
    }
}

/// End-to-end: `predict_batch` over a batch wider than every tile equals
/// per-sample `forward_probs`, bit for bit (the serving batch-64 shape).
#[test]
fn predict_batch_matches_per_sample_beyond_tile_sizes() {
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

        // 64 samples x 4 tokens = 256 rows: several AGG (32) and ENCODE (64)
        // tiles plus a ragged tail at every kernel.
        for batch in [64usize, 33, 17] {
            let stacked = Matrix::from_fn(batch * pre.seq_len, pre.input_dim(), |r, c| {
                ((r * 31 + c * 7) % 17) as f32 * 0.0625
            });
            let batched = model.predict_batch(&stacked);
            assert_eq!(batched.shape(), (batch, pre.output_dim()));
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

/// The exact path is bit for bit what it was before `scan_blocks` learned
/// to skip blocks that hold no new minimum: a DART-shaped (`K` = 128, two
/// subspaces — eight 16-centroid blocks per sub-encode, 8- to 64-dim
/// subvectors) argmin model, fitted and queried through the scan, hashes to
/// the value recorded at the commit before that change. The fit is in the
/// hash too: Lloyd assignment runs the same scan.
#[test]
fn dart_shaped_argmin_model_outputs_are_pinned() {
    let pre = PreprocessConfig {
        seq_len: 8,
        addr_segments: 5,
        seg_bits: 6,
        pc_segments: 1,
        delta_range: 32,
        lookforward: 20,
    };
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 32,
        heads: 2,
        layers: 1,
        ffn_dim: 128,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, 0xB1).unwrap();
    let x = rand_matrix(48 * pre.seq_len, pre.input_dim(), 0xB2);
    let tab_cfg = TabularConfig {
        k: 128,
        c: 2,
        encoder: EncoderKind::Argmin,
        fine_tune_epochs: 0,
        ..Default::default()
    };
    let (model, _): (TabularModel, _) = tabularize(&student, &x, &tab_cfg);
    let probs = model.predict_batch(&rand_matrix(24 * pre.seq_len, pre.input_dim(), 0xB3));
    let hash = bits_of(&probs)
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
    assert_eq!(hash, 0x6b12_baab_ccc6_3f52, "got {hash:#018x}");
}

/// The empty batch is a no-op at every layer of the stack.
#[test]
fn empty_batch_is_a_noop() {
    let train = rand_matrix(50, 6, 3);
    let w = rand_matrix(4, 6, 5);
    let b = vec![0.0f32; 4];
    let table = LinearTable::fit(&train, &w, &b, 2, 8, EncoderKind::Argmin, 7);
    let empty = Matrix::zeros(0, 6);
    let out = table.query(&empty);
    assert_eq!(out.shape(), (0, 4));
    let mut codes = vec![];
    table.quantizer().encode_batch_into(&empty, &mut codes);
    assert!(codes.is_empty());
}
