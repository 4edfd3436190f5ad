//! Layer-wise tabularization with fine-tuning (paper §VI-E, Algorithm 1).
//!
//! The walk keeps two activation streams over the training set:
//!
//! * `exact` — the original student network's activations (targets),
//! * `approx` — activations produced by the tables built so far.
//!
//! Each linear layer is (optionally) **fine-tuned** before tabularization:
//! starting from the trained weights, `(W, b)` are re-fit by MSE to map the
//! *approximated* inputs to the *original* layer outputs (Eq. 26) — the
//! tables imitate layer outputs rather than merely approximating dot
//! products, which is what stops error accumulation across layers.
//! Attention kernels are fitted on the approximated Q/K/V streams for the
//! same reason. The first layer sees exact inputs, so it is not fine-tuned
//! (Algorithm 1 line 7 guards `i > 0`).

use dart_nn::layers::{scaled_dot_product, Layer, Linear};
use dart_nn::matrix::{cosine_similarity, Matrix};
use dart_nn::model::AccessPredictor;
use dart_nn::optim::{Adam, AdamConfig};
use dart_pq::{
    AttentionTable, AttentionTableConfig, FusedFfnTable, LinearTable, ProtoTransform, SigmoidLut,
};
use serde::{Deserialize, Serialize};

use crate::config::TabularConfig;
use crate::tabular_model::{ExactLayerNorm, FfnTables, TabularEncoderBlock, TabularModel};

/// Cosine similarity between tabular and neural activations after one layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayerSimilarity {
    /// Layer label, e.g. `"block0.msa"`.
    pub layer: String,
    /// Mean cosine similarity between flattened activations.
    pub cosine: f32,
}

/// Diagnostics produced during tabularization (paper Fig. 11).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TabularizationReport {
    /// Per-layer cosine similarity, in forward order.
    pub similarities: Vec<LayerSimilarity>,
}

impl TabularizationReport {
    fn record(&mut self, layer: impl Into<String>, approx: &Matrix, exact: &Matrix) {
        self.similarities.push(LayerSimilarity {
            layer: layer.into(),
            cosine: cosine_similarity(approx.as_slice(), exact.as_slice()),
        });
    }
}

/// Convert a trained student into a [`TabularModel`] (Algorithm 1).
///
/// `train_inputs` is the stacked `(N*T) x D_I` training input matrix the
/// prototypes are learned on (the paper's `D`).
pub fn tabularize(
    student: &AccessPredictor,
    train_inputs: &Matrix,
    cfg: &TabularConfig,
) -> (TabularModel, TabularizationReport) {
    let model_cfg = student.config.clone();
    let t = model_cfg.seq_len;
    let dim = model_cfg.dim;
    let heads = model_cfg.heads;
    let dh = dim / heads;
    let mut report = TabularizationReport::default();
    let mut seed = cfg.seed;
    let mut next_seed = || {
        seed = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        seed
    };

    let mut approx = train_inputs.clone();
    let mut exact = train_inputs.clone();

    // --- Input linear (first layer: no fine-tuning) -------------------------
    let input_linear = LinearTable::fit(
        &approx,
        &student.input_linear.w.value,
        student.input_linear.b.value.as_slice(),
        cfg.c,
        cfg.k,
        cfg.encoder,
        next_seed(),
    );
    approx = input_linear.query(&approx);
    exact = student.input_linear.apply(&exact);
    report.record("input_linear", &approx, &exact);

    let input_ln = ExactLayerNorm::from_nn(&student.input_ln);
    approx = input_ln.apply(&approx);
    exact = input_ln.apply(&exact);

    // --- Encoder blocks ------------------------------------------------------
    let mut blocks = Vec::with_capacity(model_cfg.layers);
    for (bi, blk) in student.blocks.iter().enumerate() {
        let ln1 = ExactLayerNorm::from_nn(&blk.ln1);
        let a_approx = ln1.apply(&approx);
        let a_exact = ln1.apply(&exact);

        // QKV projection.
        let qkv_target = blk.msa.qkv.apply(&a_exact);
        let (w, b) = fine_tune_linear(&blk.msa.qkv, &a_approx, &qkv_target, cfg);
        let qkv = LinearTable::fit(&a_approx, &w, &b, cfg.c, cfg.k, cfg.encoder, next_seed());
        let qkv_approx = qkv.query(&a_approx);
        report.record(format!("block{bi}.qkv"), &qkv_approx, &qkv_target);

        // Per-head attention kernels, fitted on the approximated streams.
        let attn_cfg = AttentionTableConfig {
            k: cfg.k,
            ck: cfg.c,
            ct: cfg.c,
            encoder: cfg.encoder,
            activation: cfg.activation,
            seed: next_seed(),
        };
        // Each head is queried once, batched, on the slices it was fitted
        // on; its columns of the tabular attention output are copied out.
        let mut head_tables = Vec::with_capacity(heads);
        let mut concat_approx = Matrix::zeros(qkv_approx.rows(), dim);
        for h in 0..heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let q_a = qkv_approx.slice_cols(lo, hi);
            let k_a = qkv_approx.slice_cols(dim + lo, dim + hi);
            let v_a = qkv_approx.slice_cols(2 * dim + lo, 2 * dim + hi);
            let head = AttentionTable::fit(&q_a, &k_a, &v_a, t, &attn_cfg);
            let y = head.query_batch(&q_a, &k_a, &v_a);
            for r in 0..y.rows() {
                concat_approx.row_mut(r)[lo..hi].copy_from_slice(y.row(r));
            }
            head_tables.push(head);
        }

        // The exact softmax reference for the same stage: the student's own core.
        let (concat_exact, _) = scaled_dot_product(&qkv_target, t, heads);
        report.record(format!("block{bi}.attn"), &concat_approx, &concat_exact);

        // Output projection + residual.
        let out_target = blk.msa.out.apply(&concat_exact);
        let (w, b) = fine_tune_linear(&blk.msa.out, &concat_approx, &out_target, cfg);
        let out = LinearTable::fit(&concat_approx, &w, &b, cfg.c, cfg.k, cfg.encoder, next_seed());
        approx = approx.add(&out.query(&concat_approx));
        exact = exact.add(&out_target);
        report.record(format!("block{bi}.msa_residual"), &approx, &exact);

        // FFN.
        let ln2 = ExactLayerNorm::from_nn(&blk.ln2);
        let f_approx = ln2.apply(&approx);
        let f_exact = ln2.apply(&exact);
        let relu = |m: &Matrix| m.map(|v| v.max(0.0));
        let ffn_target = blk.ffn.output.apply(&relu(&blk.ffn.hidden.apply(&f_exact)));

        let ffn_tables = if cfg.fuse_ffn {
            // §VIII future work: one table for the whole FFN.
            let fused = FusedFfnTable::fit(
                &f_approx,
                &blk.ffn.hidden.w.value,
                blk.ffn.hidden.b.value.as_slice(),
                &blk.ffn.output.w.value,
                blk.ffn.output.b.value.as_slice(),
                cfg.c,
                cfg.k,
                cfg.encoder,
                next_seed(),
            );
            let out_approx = fused.query(&f_approx);
            report.record(format!("block{bi}.ffn_fused"), &out_approx, &ffn_target);
            approx = f_residual(&approx, &out_approx);
            FfnTables::Fused(fused)
        } else {
            let hidden_target = blk.ffn.hidden.apply(&f_exact); // pre-ReLU
            let (w, b) = fine_tune_linear(&blk.ffn.hidden, &f_approx, &hidden_target, cfg);
            let ffn_hidden =
                LinearTable::fit(&f_approx, &w, &b, cfg.c, cfg.k, cfg.encoder, next_seed());
            let hidden_approx = ffn_hidden.query(&f_approx); // pre-ReLU
            report.record(format!("block{bi}.ffn_hidden"), &hidden_approx, &hidden_target);

            // FFN output with the ReLU folded into the table prototypes:
            // the fine-tune regresses on post-ReLU inputs, the table is
            // fitted on pre-ReLU inputs with a Relu prototype transform.
            let (w, b) = fine_tune_linear(&blk.ffn.output, &relu(&hidden_approx), &ffn_target, cfg);
            let ffn_out = LinearTable::fit_transformed(
                &hidden_approx,
                &w,
                &b,
                cfg.c,
                cfg.k,
                cfg.encoder,
                ProtoTransform::Relu,
                next_seed(),
            );
            approx = f_residual(&approx, &ffn_out.query(&hidden_approx));
            FfnTables::TwoKernel { hidden: ffn_hidden, out: ffn_out }
        };
        exact = f_residual(&exact, &ffn_target);
        report.record(format!("block{bi}.ffn_residual"), &approx, &exact);

        blocks.push(TabularEncoderBlock {
            ln1,
            qkv,
            heads: head_tables,
            out,
            ln2,
            ffn: ffn_tables,
        });
    }

    // --- Output linear --------------------------------------------------------
    let out_target = student.output_linear.apply(&exact);
    let (w, b) = fine_tune_linear(&student.output_linear, &approx, &out_target, cfg);
    let output_linear = LinearTable::fit(&approx, &w, &b, cfg.c, cfg.k, cfg.encoder, next_seed());
    let out_approx = output_linear.query(&approx);
    report.record("output_linear", &out_approx, &out_target);

    let model = TabularModel {
        config: model_cfg,
        input_linear,
        input_ln,
        blocks,
        output_linear,
        sigmoid: SigmoidLut::default_table(),
    };
    (model, report)
}

/// Residual add helper (kept symmetric for the two streams).
fn f_residual(x: &Matrix, delta: &Matrix) -> Matrix {
    x.add(delta)
}

/// Fine-tune a linear layer: starting from its trained weights, minimize
/// `MSE(W x̂ + b, Y)` over the approximated inputs (Eq. 26). Returns the
/// updated `(W, b)`; with `fine_tune_epochs == 0` the originals are returned.
fn fine_tune_linear(
    layer: &Linear,
    approx_inputs: &Matrix,
    targets: &Matrix,
    cfg: &TabularConfig,
) -> (Matrix, Vec<f32>) {
    let w0 = layer.w.value.clone();
    let b0 = layer.b.value.as_slice().to_vec();
    if cfg.fine_tune_epochs == 0 || approx_inputs.rows() == 0 {
        return (w0, b0);
    }
    let mut lin = Linear::from_parts(w0, b0);
    let mut adam = Adam::new(AdamConfig { lr: cfg.fine_tune_lr, ..Default::default() });
    let rows = approx_inputs.rows();
    let batch = 256.min(rows);
    for _epoch in 0..cfg.fine_tune_epochs {
        let mut start = 0;
        while start < rows {
            let end = (start + batch).min(rows);
            let x = approx_inputs.slice_rows(start, end);
            let y = targets.slice_rows(start, end);
            let pred = lin.forward(&x, true);
            let (_, grad) = dart_nn::loss::mse(&pred, &y);
            lin.zero_grad();
            let _ = lin.backward(&grad);
            adam.step(|f| lin.visit_params(f));
            start = end;
        }
    }
    let b = lin.b.value.as_slice().to_vec();
    (lin.w.value, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::init::InitRng;
    use dart_nn::model::{ModelConfig, SequenceModel};

    fn tiny_model(seed: u64) -> AccessPredictor {
        AccessPredictor::new(
            ModelConfig {
                input_dim: 4,
                dim: 8,
                heads: 2,
                layers: 1,
                ffn_dim: 16,
                output_dim: 6,
                seq_len: 4,
            },
            seed,
        )
        .unwrap()
    }

    fn train_inputs(samples: usize, seq: usize, di: usize, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        Matrix::from_fn(samples * seq, di, |_, _| rng.next_f32())
    }

    fn quick_cfg(k: usize) -> TabularConfig {
        TabularConfig { k, c: 2, fine_tune_epochs: 4, ..Default::default() }
    }

    #[test]
    fn tabular_model_shapes_and_report() {
        let student = tiny_model(5);
        let x = train_inputs(60, 4, 4, 7);
        let (table, report) = tabularize(&student, &x, &quick_cfg(16));
        let probs = table.forward_probs(&x.slice_rows(0, 8));
        assert_eq!(probs.shape(), (2, 6));
        assert!(probs.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // input, qkv, attn, msa_res, ffn_hidden, ffn_res, output = 7 marks.
        assert_eq!(report.similarities.len(), 7);
        for s in &report.similarities {
            assert!(s.cosine.is_finite(), "{}: {}", s.layer, s.cosine);
        }
    }

    #[test]
    fn high_k_tracks_student_logits() {
        let mut student = tiny_model(11);
        let x = train_inputs(120, 4, 4, 13);
        let (table, report) = tabularize(&student, &x, &quick_cfg(128));
        let sample = x.slice_rows(0, 40);
        let nn_logits = student.forward_logits(&sample, false);
        let tab_logits = table.forward_logits(&sample);
        let sim = cosine_similarity(nn_logits.as_slice(), tab_logits.as_slice());
        assert!(sim > 0.9, "logit cosine {sim}; report: {:?}", report.similarities);
    }

    #[test]
    fn fine_tuning_does_not_hurt_final_similarity() {
        let student = tiny_model(17);
        let x = train_inputs(100, 4, 4, 19);
        let cfg_ft = quick_cfg(16);
        let cfg_noft = quick_cfg(16).without_fine_tuning();
        let (_, rep_ft) = tabularize(&student, &x, &cfg_ft);
        let (_, rep_noft) = tabularize(&student, &x, &cfg_noft);
        let last_ft = rep_ft.similarities.last().unwrap().cosine;
        let last_noft = rep_noft.similarities.last().unwrap().cosine;
        assert!(
            last_ft >= last_noft - 0.05,
            "fine-tuning regressed similarity: {last_ft} vs {last_noft}"
        );
    }

    #[test]
    fn storage_grows_with_k() {
        let student = tiny_model(23);
        let x = train_inputs(60, 4, 4, 29);
        let (small, _) = tabularize(&student, &x, &quick_cfg(8));
        let (large, _) = tabularize(&student, &x, &quick_cfg(64));
        assert!(large.storage_bytes() > small.storage_bytes());
    }

    #[test]
    fn fine_tune_linear_reduces_mse() {
        let mut rng = InitRng::new(31);
        let lin = Linear::new(6, 4, &mut rng);
        // Corrupted inputs vs targets from clean inputs.
        let clean = Matrix::from_fn(200, 6, |_, _| rng.normal());
        let noisy = clean.map(|v| v + 0.3);
        let targets = lin.apply(&clean);
        let cfg = TabularConfig { fine_tune_epochs: 30, fine_tune_lr: 5e-3, ..Default::default() };
        let (w, b) = fine_tune_linear(&lin, &noisy, &targets, &cfg);
        let tuned = Linear::from_parts(w, b);
        let mse_before = dart_nn::loss::mse(&lin.apply(&noisy), &targets).0;
        let mse_after = dart_nn::loss::mse(&tuned.apply(&noisy), &targets).0;
        assert!(mse_after < mse_before * 0.5, "{mse_before} -> {mse_after}");
    }

    #[test]
    fn zero_epochs_returns_original_weights() {
        let mut rng = InitRng::new(37);
        let lin = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_fn(10, 3, |_, _| rng.normal());
        let y = Matrix::from_fn(10, 2, |_, _| rng.normal());
        let cfg = TabularConfig::default().without_fine_tuning();
        let (w, b) = fine_tune_linear(&lin, &x, &y, &cfg);
        assert_eq!(w, lin.w.value);
        assert_eq!(b, lin.b.value.as_slice());
    }
    #[test]
    fn fused_ffn_variant_works_and_is_smaller_on_ffn() {
        let student = tiny_model(41);
        let x = train_inputs(100, 4, 4, 43);
        let standard = quick_cfg(16);
        let fused = TabularConfig { fuse_ffn: true, ..quick_cfg(16) };
        let (m_std, _) = tabularize(&student, &x, &standard);
        let (m_fused, rep) = tabularize(&student, &x, &fused);
        // Both predict finite probabilities of the right shape.
        let probs = m_fused.forward_probs(&x.slice_rows(0, 8));
        assert_eq!(probs.shape(), (2, 6));
        assert!(probs.as_slice().iter().all(|p| p.is_finite()));
        // The fused FFN replaces two tables with one, shrinking the block.
        assert!(m_fused.storage_bytes() < m_std.storage_bytes());
        // The report labels the fused mark.
        assert!(rep.similarities.iter().any(|s| s.layer.contains("ffn_fused")));
    }
}
