//! The token path against the materialised window, at the model level.
//!
//! `TabularModel::forward_probs` is *defined* as
//! `predict_tokens(&encode_tokens(x))`, so that composition needs no test.
//! What needs one is the regrouping the serving path and `DartPrefetcher`
//! rely on: token rows encoded **once**, in whatever batch their access
//! arrived in, slid through a `TokenRing` and stacked into windows, must
//! give the bits `predict_batch` gives on those windows written out as
//! `T x D_I` feature matrices — for every encoder, FFN form and depth, at
//! batch sizes on both sides of the kernel tiles, on 1 and 4 threads.

use dart::core::config::TabularConfig;
use dart::core::tabularize::tabularize;
use dart::core::{TabularModel, TokenRing, TokenRows};
use dart::nn::init::InitRng;
use dart::nn::matrix::Matrix;
use dart::nn::model::{AccessPredictor, ModelConfig};
use dart::pq::EncoderKind;
use dart::trace::PreprocessConfig;
use rayon::ThreadPool;

fn pre() -> PreprocessConfig {
    PreprocessConfig {
        seq_len: 4,
        addr_segments: 3,
        seg_bits: 4,
        pc_segments: 1,
        delta_range: 4,
        lookforward: 4,
    }
}

fn model(pre: &PreprocessConfig, layers: usize, tab: TabularConfig) -> TabularModel {
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 8,
        heads: 2,
        layers,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, 5).unwrap();
    let mut rng = InitRng::new(11);
    let x = Matrix::from_fn(40 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    tabularize(&student, &x, &TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..tab }).0
}

/// One stream's accesses as feature rows, one row per token.
fn token_features(pre: &PreprocessConfig, tokens: usize) -> Matrix {
    let mut rng = InitRng::new(23);
    let mut feats = Matrix::zeros(tokens, pre.input_dim());
    let mut block = 1u64 << 20;
    for r in 0..tokens {
        block += 1 + (rng.next_f32() * 5.0) as u64;
        let pc = 0x400100 + 8 * (rng.next_f32() * 3.0) as u64;
        pre.write_token_features(block, pc, feats.row_mut(r));
    }
    feats
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|f| f.to_bits()).collect()
}

/// Every window's probabilities, `batch` accesses at a time: each batch's
/// tokens go through one `encode_tokens` call, join the ring in order, and
/// the windows they complete are stacked for one `predict_tokens` call.
fn through_the_ring(model: &TabularModel, feats: &Matrix, batch: usize) -> Vec<Vec<u32>> {
    let t = model.config.seq_len;
    let mut ring = TokenRing::default();
    let mut out = Vec::new();
    for lo in (0..feats.rows()).step_by(batch) {
        let hi = (lo + batch).min(feats.rows());
        let tokens = model.encode_tokens(&feats.slice_rows(lo, hi));
        let mut windows = TokenRows::zeros(model, (hi - lo) * t);
        let mut filled = 0;
        for r in 0..hi - lo {
            ring.push(t, &tokens, r);
            if ring.len() == t {
                ring.write_window(&mut windows, filled);
                filled += 1;
            }
        }
        windows.resize_rows(filled * t);
        if filled > 0 {
            let probs = model.predict_tokens(&windows);
            out.extend((0..filled).map(|w| bits(&probs.slice_rows(w, w + 1))));
        }
    }
    out
}

/// The same windows written out as feature matrices, `batch` windows per
/// `predict_batch` call.
fn through_materialised_windows(
    model: &TabularModel,
    feats: &Matrix,
    batch: usize,
) -> Vec<Vec<u32>> {
    let t = model.config.seq_len;
    let ends: Vec<usize> = (t..=feats.rows()).collect();
    let mut out = Vec::new();
    for group in ends.chunks(batch) {
        let stacked: Vec<Matrix> =
            group.iter().map(|&end| feats.slice_rows(end - t, end)).collect();
        let probs = model.predict_batch(&Matrix::vstack(&stacked));
        out.extend((0..group.len()).map(|w| bits(&probs.slice_rows(w, w + 1))));
    }
    out
}

#[test]
fn ring_windows_equal_materialised_windows_bit_for_bit() {
    let pre = pre();
    let variants = [
        (
            "argmin",
            model(&pre, 1, TabularConfig { encoder: EncoderKind::Argmin, ..Default::default() }),
        ),
        (
            "hash tree",
            model(&pre, 1, TabularConfig { encoder: EncoderKind::HashTree, ..Default::default() }),
        ),
        ("fused ffn", model(&pre, 1, TabularConfig { fuse_ffn: true, ..Default::default() })),
        // Only block 0's projections are per-token; block 1 runs in full.
        ("two blocks", model(&pre, 2, TabularConfig::default())),
        ("no blocks", model(&pre, 0, TabularConfig::default())),
    ];
    let feats = token_features(&pre, pre.seq_len - 1 + 2 * 64 + 5);
    for (name, model) in &variants {
        assert_eq!(model.validate(), Ok(()), "{name}");
        let reference = through_materialised_windows(model, &feats, 64);
        assert_eq!(reference.len(), 2 * 64 + 5);
        for threads in [1, 4] {
            ThreadPool::new(threads).install(|| {
                for batch in [1, 3, 64] {
                    let context = format!("{name}, batch {batch}, {threads} threads");
                    assert_eq!(through_the_ring(model, &feats, batch), reference, "{context}");
                    assert_eq!(
                        through_materialised_windows(model, &feats, batch),
                        reference,
                        "{context}: predict_batch itself"
                    );
                }
            });
        }
    }
}

/// A token's row is the same whatever batch encoded it: one call over all
/// tokens equals one call per token.
#[test]
fn token_rows_do_not_depend_on_their_batch() {
    let pre = pre();
    let model = model(&pre, 1, TabularConfig::default());
    let feats = token_features(&pre, 70);
    let all = model.encode_tokens(&feats);
    assert_eq!(all.code_width, model.token_code_width());
    for r in 0..feats.rows() {
        let one = model.encode_tokens(&feats.slice_rows(r, r + 1));
        assert_eq!(bits(&one.hidden), bits(&all.hidden.slice_rows(r, r + 1)), "hidden row {r}");
        assert_eq!(bits(&one.value), bits(&all.value.slice_rows(r, r + 1)), "value row {r}");
        assert_eq!(one.qk_codes, all.qk_codes[r * all.code_width..(r + 1) * all.code_width]);
    }
}
