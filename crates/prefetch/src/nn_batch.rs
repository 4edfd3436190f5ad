//! TransFetch-like and Voyager-like neural prefetchers.
//!
//! Per-access predictions are **precomputed in batch** over the LLC demand
//! stream and replayed by sequence index during simulation. This is
//! functionally identical to online inference because the LLC demand stream
//! does not depend on the LLC prefetcher in our hierarchy (prefetches fill
//! the LLC only — verified by `dart_sim::engine` tests), and it makes pure-
//! Rust evaluation of the big models tractable. Inference *latency* is
//! still modeled: each prediction becomes visible only `latency` cycles
//! after its triggering access; `latency = 0` yields the paper's idealized
//! `TransFetch-I` / `Voyager-I` variants (Table IX).

use dart_nn::matrix::Matrix;
use dart_nn::model::SequenceModel;
use dart_sim::{LlcAccess, Prefetcher};
use dart_trace::{PreprocessConfig, TraceRecord};
use rayon::prelude::*;

/// A prefetcher replaying precomputed per-access predictions.
pub struct NnBatchPrefetcher {
    name: String,
    latency: u64,
    storage_bytes: u64,
    predictions: Vec<Vec<u64>>,
}

impl NnBatchPrefetcher {
    /// Wrap precomputed predictions (one entry per LLC access index).
    pub fn new(
        name: impl Into<String>,
        latency: u64,
        storage_bytes: u64,
        predictions: Vec<Vec<u64>>,
    ) -> NnBatchPrefetcher {
        NnBatchPrefetcher { name: name.into(), latency, storage_bytes, predictions }
    }

    /// Number of access slots covered.
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// True when no predictions are stored.
    pub fn is_empty(&self) -> bool {
        self.predictions.is_empty()
    }
}

impl Prefetcher for NnBatchPrefetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn on_access(&mut self, access: &LlcAccess) -> Vec<u64> {
        self.predictions.get(access.seq).cloned().unwrap_or_default()
    }

    fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }
}

/// Precompute per-access prefetch targets for a sequence model over an LLC
/// demand trace.
///
/// For each access `i >= T-1`, the history window `[i-T+1, i]` is featurized
/// and run through the model, and the probabilities are decoded by the
/// emission rule `DartPrefetcher` uses
/// ([`PreprocessConfig::decode_bitmap_into`]). Batches are evaluated in
/// chunks.
pub fn precompute_predictions<M: SequenceModel>(
    model: &mut M,
    llc_trace: &[TraceRecord],
    pre: &PreprocessConfig,
    threshold: f32,
    max_degree: usize,
) -> Vec<Vec<u64>> {
    let t = pre.seq_len;
    let di = pre.input_dim();
    let n = llc_trace.len();
    let mut predictions: Vec<Vec<u64>> = vec![Vec::new(); n];
    if n < t {
        return predictions;
    }

    // Featurize every window (parallel), then run the model in chunks.
    let num_windows = n - t + 1;
    let mut inputs = Matrix::zeros(num_windows * t, di);
    inputs.as_mut_slice().par_chunks_mut(t * di).enumerate().for_each(|(w, chunk)| {
        for (tok, row) in chunk.chunks_mut(di).enumerate() {
            let rec = &llc_trace[w + tok];
            pre.write_token_features(rec.block(), rec.pc, row);
        }
    });

    const CHUNK: usize = 512;
    let mut candidates = Vec::new();
    let mut w = 0;
    while w < num_windows {
        let end = (w + CHUNK).min(num_windows);
        let x = inputs.slice_rows(w * t, end * t);
        let probs = model.forward_probs(&x);
        for (row_idx, window) in (w..end).enumerate() {
            let access_idx = window + t - 1;
            predictions[access_idx] = pre.decode_bitmap_into(
                probs.row(row_idx),
                llc_trace[access_idx].block(),
                threshold,
                max_degree,
                &mut candidates,
            );
        }
        w = end;
    }
    predictions
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::model::{AccessPredictor, LstmConfig, LstmPredictor, ModelConfig};

    fn pre_cfg() -> PreprocessConfig {
        PreprocessConfig {
            seq_len: 4,
            addr_segments: 3,
            seg_bits: 4,
            pc_segments: 1,
            delta_range: 4,
            lookforward: 4,
        }
    }

    fn trace(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord { instr_id: i * 5, pc: 0x400000, addr: (1000 + i) << 6 })
            .collect()
    }

    #[test]
    fn predictions_align_with_access_index() {
        let pre = pre_cfg();
        let mut model = AccessPredictor::new(
            ModelConfig {
                input_dim: pre.input_dim(),
                dim: 8,
                heads: 2,
                layers: 1,
                ffn_dim: 16,
                output_dim: pre.output_dim(),
                seq_len: pre.seq_len,
            },
            3,
        )
        .unwrap();
        let tr = trace(50);
        let preds = precompute_predictions(&mut model, &tr, &pre, 0.0, 2);
        assert_eq!(preds.len(), 50);
        // Warm-up region is empty.
        for p in preds.iter().take(pre.seq_len - 1) {
            assert!(p.is_empty());
        }
        // Threshold 0: every covered access has exactly max_degree targets.
        for p in preds.iter().skip(pre.seq_len - 1) {
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn replay_matches_precompute() {
        let pre = pre_cfg();
        let mut model = LstmPredictor::new(
            LstmConfig {
                input_dim: pre.input_dim(),
                hidden: 8,
                output_dim: pre.output_dim(),
                seq_len: pre.seq_len,
            },
            5,
        )
        .unwrap();
        let tr = trace(30);
        let preds = precompute_predictions(&mut model, &tr, &pre, 0.3, 3);
        let mut pf = NnBatchPrefetcher::new("Voyager", 27_700, 14_900_000, preds.clone());
        for (i, rec) in tr.iter().enumerate() {
            let acc = LlcAccess {
                seq: i,
                instr_id: rec.instr_id,
                pc: rec.pc,
                addr: rec.addr,
                block: rec.block(),
                hit: false,
            };
            assert_eq!(pf.on_access(&acc), preds[i]);
        }
        assert_eq!(pf.latency(), 27_700);
        assert_eq!(pf.storage_bytes(), 14_900_000);
    }

    #[test]
    fn out_of_range_seq_is_silent() {
        let mut pf = NnBatchPrefetcher::new("X", 0, 0, vec![vec![1, 2]]);
        let acc = LlcAccess { seq: 99, instr_id: 0, pc: 0, addr: 0, block: 0, hit: false };
        assert!(pf.on_access(&acc).is_empty());
    }

    #[test]
    fn short_trace_yields_empty_predictions() {
        let pre = pre_cfg();
        let mut model = AccessPredictor::new(
            ModelConfig {
                input_dim: pre.input_dim(),
                dim: 8,
                heads: 2,
                layers: 1,
                ffn_dim: 16,
                output_dim: pre.output_dim(),
                seq_len: pre.seq_len,
            },
            3,
        )
        .unwrap();
        let tr = trace(2);
        let preds = precompute_predictions(&mut model, &tr, &pre, 0.5, 2);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(Vec::is_empty));
    }
}
