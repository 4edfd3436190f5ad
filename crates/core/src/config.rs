//! Configuration types shared across the DART pipeline.

use dart_nn::model::ModelConfig;
use dart_pq::{AttentionActivation, EncoderKind};
use serde::{Deserialize, Serialize};

/// Prefetcher design constraints (paper Eq. 9): latency bound `τ` in cycles
/// and storage bound `s` in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignConstraints {
    /// Latency constraint `τ` (cycles).
    pub latency_cycles: u64,
    /// Storage constraint `s` (bytes).
    pub storage_bytes: u64,
}

impl DesignConstraints {
    /// The paper's DART-S constraints (Table VIII): 60 cycles, 30 KB.
    pub fn dart_s() -> Self {
        DesignConstraints { latency_cycles: 60, storage_bytes: 30_000 }
    }

    /// The paper's DART constraints (Table VIII): 100 cycles, 1 MB.
    pub fn dart() -> Self {
        DesignConstraints { latency_cycles: 100, storage_bytes: 1_000_000 }
    }

    /// The paper's DART-L constraints (Table VIII): 200 cycles, 4 MB.
    pub fn dart_l() -> Self {
        DesignConstraints { latency_cycles: 200, storage_bytes: 4_000_000 }
    }
}

/// A structural + table configuration chosen by the configurator
/// (paper Table VIII format: `(L, D, H, K, C)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Encoder layers `L`.
    pub layers: usize,
    /// Hidden dimension `D`.
    pub dim: usize,
    /// Attention heads `H`.
    pub heads: usize,
    /// Prototypes per subspace `K`.
    pub k: usize,
    /// Subspaces `C` (shared across kernels, as in Table V/VIII).
    pub c: usize,
}

impl PredictorConfig {
    /// The paper's DART configuration (Table V): `(1, 32, 2, 128, 2)`.
    pub fn dart() -> Self {
        PredictorConfig { layers: 1, dim: 32, heads: 2, k: 128, c: 2 }
    }

    /// The paper's DART-S configuration (Table VIII): `(1, 16, 2, 16, 1)`.
    pub fn dart_s() -> Self {
        PredictorConfig { layers: 1, dim: 16, heads: 2, k: 16, c: 1 }
    }

    /// The paper's DART-L configuration (Table VIII): `(2, 32, 2, 256, 2)`.
    pub fn dart_l() -> Self {
        PredictorConfig { layers: 2, dim: 32, heads: 2, k: 256, c: 2 }
    }

    /// Feed-forward inner dimension (`D_F = 4D`, the convention that
    /// reproduces the paper's Table V complexity numbers).
    pub fn ffn_dim(&self) -> usize {
        4 * self.dim
    }

    /// Expand to a full `dart-nn` model configuration.
    pub fn to_model_config(
        &self,
        input_dim: usize,
        output_dim: usize,
        seq_len: usize,
    ) -> ModelConfig {
        ModelConfig {
            input_dim,
            dim: self.dim,
            heads: self.heads,
            layers: self.layers,
            ffn_dim: self.ffn_dim(),
            output_dim,
            seq_len,
        }
    }
}

/// Knobs of the tabularization step (Algorithm 1).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TabularConfig {
    /// Prototypes per subspace `K`.
    pub k: usize,
    /// Subspaces `C` (used for both `C_k` and `C_t`).
    pub c: usize,
    /// Encoder used by every quantizer — the linear kernels' and the
    /// attention kernels' alike. Defaults to [`EncoderKind::HashTree`], the
    /// `log2 K`-comparison encoder Eq. 22 charges for; [`EncoderKind::Argmin`]
    /// (the exact `K * V` scan) is the ablation's accuracy upper bound.
    pub encoder: EncoderKind,
    /// Activation folded into the attention QKV tables (Eq. 14).
    pub activation: AttentionActivation,
    /// Fine-tuning epochs `E` per linear layer; 0 disables fine-tuning
    /// (the paper's "DART w/o FT" ablation).
    pub fine_tune_epochs: usize,
    /// Fine-tuning learning rate.
    pub fine_tune_lr: f32,
    /// Collapse each FFN into a single fused table (paper §VIII future
    /// work): halves FFN latency at an accuracy cost.
    pub fuse_ffn: bool,
    /// PRNG seed for prototype learning and fine-tuning.
    pub seed: u64,
}

impl Default for TabularConfig {
    fn default() -> Self {
        TabularConfig {
            k: 128,
            c: 2,
            encoder: EncoderKind::HashTree,
            activation: AttentionActivation::SigmoidScaled,
            fine_tune_epochs: 8,
            fine_tune_lr: 1e-3,
            fuse_ffn: false,
            seed: 0xDA47,
        }
    }
}

impl TabularConfig {
    /// Configuration derived from a configurator choice.
    pub fn from_predictor(cfg: &PredictorConfig) -> Self {
        TabularConfig { k: cfg.k, c: cfg.c, ..Default::default() }
    }

    /// Disable fine-tuning (the "DART w/o FT" ablation of Table VII).
    pub fn without_fine_tuning(mut self) -> Self {
        self.fine_tune_epochs = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table_viii() {
        assert_eq!(
            PredictorConfig::dart_s(),
            PredictorConfig { layers: 1, dim: 16, heads: 2, k: 16, c: 1 }
        );
        assert_eq!(
            PredictorConfig::dart(),
            PredictorConfig { layers: 1, dim: 32, heads: 2, k: 128, c: 2 }
        );
        assert_eq!(
            PredictorConfig::dart_l(),
            PredictorConfig { layers: 2, dim: 32, heads: 2, k: 256, c: 2 }
        );
    }

    #[test]
    fn model_config_expansion() {
        let cfg = PredictorConfig::dart().to_model_config(8, 128, 16);
        assert_eq!(cfg.dim, 32);
        assert_eq!(cfg.ffn_dim, 128);
        assert_eq!(cfg.seq_len, 16);
        assert!(cfg.validate().is_ok());
    }

    /// What everything that says `..Default::default()` is built with: the
    /// encoder the latency model charges for (`BENCH_22.json` is why).
    #[test]
    fn default_encoder_is_the_hash_tree() {
        assert_eq!(TabularConfig::default().encoder, EncoderKind::HashTree);
        assert_eq!(
            TabularConfig::from_predictor(&PredictorConfig::dart_l()).encoder,
            EncoderKind::HashTree
        );
    }

    #[test]
    fn without_fine_tuning_zeroes_epochs() {
        let t = TabularConfig::default().without_fine_tuning();
        assert_eq!(t.fine_tune_epochs, 0);
    }
}
