//! The table configurator (paper §VI-C): whole-model latency and storage
//! formulas (Eq. 22–23) and the latency-major greedy search over a
//! pre-defined design space.

use dart_pq::complexity::{
    attention_latency, attention_ops, attention_storage_bits, linear_latency, linear_ops,
    linear_storage_bits,
};
use serde::{Deserialize, Serialize};

use crate::config::{DesignConstraints, PredictorConfig};

/// Eq. 22's `L_ln` and `L_σ` (cycles): one definition, shared with the
/// neural predictors' cost model.
pub use dart_nn::cost::{LN_LATENCY, SIGMOID_LATENCY};

/// Table-entry precision `d` in bits (f32 entries).
pub const DATA_BITS: usize = 32;

/// Whole-model cost of a tabularized predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelCost {
    /// Eq. 22 latency in cycles.
    pub latency_cycles: u64,
    /// Eq. 23 storage in bytes.
    pub storage_bytes: u64,
    /// Eq. 20–21 arithmetic operations.
    pub ops: u64,
}

/// Workload-shape parameters needed by Eq. 22–23 beyond the predictor
/// configuration itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeParams {
    /// Input history length `T_I` (= transformer patches `T_T` here).
    pub seq_len: usize,
    /// Output delta-bitmap size `D_O`.
    pub output_dim: usize,
}

impl Default for ShapeParams {
    fn default() -> Self {
        ShapeParams { seq_len: 16, output_dim: 128 }
    }
}

/// Eq. 22 — tabularized model latency.
pub fn model_latency(cfg: &PredictorConfig) -> u64 {
    let ll = linear_latency(cfg.k, cfg.c);
    let la = attention_latency(cfg.k, cfg.c, cfg.c);
    let encoder = 2 * LN_LATENCY + 2 * ll + la + 2 * ll;
    ll + LN_LATENCY + ll + SIGMOID_LATENCY + cfg.layers as u64 * encoder
}

/// Eq. 23 — tabularized model storage in bytes.
pub fn model_storage_bytes(cfg: &PredictorConfig, shape: &ShapeParams) -> u64 {
    let t = shape.seq_len;
    let d = cfg.dim;
    let (k, c) = (cfg.k, cfg.c);
    // LayerNorm parameters (gamma + beta) and the sigmoid LUT.
    let s_ln = (2 * d * DATA_BITS) as u64;
    let s_sigma = (1024 * DATA_BITS) as u64;

    let mut bits = 0u64;
    // Input linear (the paper's leading factor 2 accounts the address and PC
    // token streams separately).
    bits += 2 * linear_storage_bits(t, d, k, c, DATA_BITS);
    bits += s_ln;
    // Output linear + sigmoid.
    bits += linear_storage_bits(t, shape.output_dim, k, c, DATA_BITS) + s_sigma;
    // Encoder layers.
    let per_layer = 2 * s_ln
        + linear_storage_bits(t, 3 * cfg.heads * (d / cfg.heads.max(1)), k, c, DATA_BITS)
        + attention_storage_bits(t, d, k, c, c, DATA_BITS)
        + linear_storage_bits(t, d, k, c, DATA_BITS)
        + s_ln
        + linear_storage_bits(t, cfg.ffn_dim(), k, c, DATA_BITS)
        + linear_storage_bits(t, d, k, c, DATA_BITS);
    bits += cfg.layers as u64 * per_layer;
    bits.div_ceil(8)
}

/// Eq. 20–21 composed over the whole model: arithmetic operations per query.
pub fn model_ops(cfg: &PredictorConfig, shape: &ShapeParams) -> u64 {
    let t = shape.seq_len;
    let d = cfg.dim;
    let (k, c) = (cfg.k, cfg.c);
    let mut ops = 0u64;
    ops += linear_ops(t, d, k, c); // input linear
    ops += linear_ops(t, shape.output_dim, k, c); // output linear
    let per_layer = linear_ops(t, 3 * d, k, c)
        + attention_ops(t, d, k, c, c)
        + linear_ops(t, d, k, c)
        + linear_ops(t, cfg.ffn_dim(), k, c)
        + linear_ops(t, d, k, c);
    ops += cfg.layers as u64 * per_layer;
    ops
}

/// Full cost report for a configuration.
pub fn model_cost(cfg: &PredictorConfig, shape: &ShapeParams) -> ModelCost {
    ModelCost {
        latency_cycles: model_latency(cfg),
        storage_bytes: model_storage_bytes(cfg, shape),
        ops: model_ops(cfg, shape),
    }
}

/// The configurator's pre-defined design space (paper §VI-C2).
#[derive(Clone, Debug)]
pub struct TableConfigurator {
    /// Candidate encoder layer counts.
    pub layers: Vec<usize>,
    /// Candidate hidden dimensions.
    pub dims: Vec<usize>,
    /// Candidate head counts.
    pub heads: Vec<usize>,
    /// Candidate prototype counts.
    pub ks: Vec<usize>,
    /// Candidate subspace counts.
    pub cs: Vec<usize>,
    /// Workload shape.
    pub shape: ShapeParams,
}

impl Default for TableConfigurator {
    fn default() -> Self {
        TableConfigurator {
            layers: vec![1, 2, 4],
            dims: vec![16, 32, 64],
            heads: vec![2, 4],
            ks: vec![16, 32, 64, 128, 256, 512, 1024],
            cs: vec![1, 2, 4, 8],
            shape: ShapeParams::default(),
        }
    }
}

impl TableConfigurator {
    /// Enumerate every valid candidate with its cost.
    pub fn candidates(&self) -> Vec<(PredictorConfig, ModelCost)> {
        let mut out = Vec::new();
        for &layers in &self.layers {
            for &dim in &self.dims {
                for &heads in &self.heads {
                    if dim % heads != 0 {
                        continue;
                    }
                    for &k in &self.ks {
                        for &c in &self.cs {
                            let cfg = PredictorConfig { layers, dim, heads, k, c };
                            out.push((cfg, model_cost(&cfg, &self.shape)));
                        }
                    }
                }
            }
        }
        out
    }

    /// Latency-major greedy selection (paper §VI-C2): among configurations
    /// with the **highest** latency not exceeding `τ`, pick the one with the
    /// **maximum** storage not exceeding `s`; if none qualifies, fall back to
    /// the next-lower latency tier, and so on.
    pub fn configure(
        &self,
        constraints: &DesignConstraints,
    ) -> Option<(PredictorConfig, ModelCost)> {
        let mut cands: Vec<(PredictorConfig, ModelCost)> = self
            .candidates()
            .into_iter()
            .filter(|(_, cost)| cost.latency_cycles <= constraints.latency_cycles)
            .collect();
        // Sort by latency descending; iterate latency tiers.
        cands.sort_by_key(|(_, cost)| std::cmp::Reverse(cost.latency_cycles));
        let mut idx = 0;
        while idx < cands.len() {
            let tier = cands[idx].1.latency_cycles;
            let mut best: Option<(PredictorConfig, ModelCost)> = None;
            while idx < cands.len() && cands[idx].1.latency_cycles == tier {
                let (cfg, cost) = cands[idx];
                if cost.storage_bytes <= constraints.storage_bytes {
                    let better = match &best {
                        None => true,
                        Some((_, b)) => cost.storage_bytes > b.storage_bytes,
                    };
                    if better {
                        best = Some((cfg, cost));
                    }
                }
                idx += 1;
            }
            if best.is_some() {
                return best;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dart_latency_matches_paper_band() {
        // Paper Table V: DART (1, 32, 2, K=128, C=2) at 97 cycles.
        let lat = model_latency(&PredictorConfig::dart());
        assert!((85..=105).contains(&lat), "latency {lat}");
    }

    #[test]
    fn dart_s_latency_matches_paper_band() {
        // Paper Table VIII: DART-S at 57 cycles.
        let lat = model_latency(&PredictorConfig::dart_s());
        assert!((48..=62).contains(&lat), "latency {lat}");
    }

    #[test]
    fn dart_storage_matches_paper_band() {
        // Paper Table V: DART at 864.4 KB.
        let s = model_storage_bytes(&PredictorConfig::dart(), &ShapeParams::default());
        assert!((700_000..1_100_000).contains(&s), "storage {s}");
    }

    #[test]
    fn dart_s_storage_matches_paper_band() {
        // Paper Table VIII: DART-S at 29.9 KB.
        let s = model_storage_bytes(&PredictorConfig::dart_s(), &ShapeParams::default());
        assert!((20_000..36_000).contains(&s), "storage {s}");
    }

    #[test]
    fn dart_ops_match_paper_band() {
        // Paper Table V: DART at 11.0K operations.
        let ops = model_ops(&PredictorConfig::dart(), &ShapeParams::default());
        assert!((8_000..14_000).contains(&ops), "ops {ops}");
    }

    #[test]
    fn configurator_meets_both_constraints() {
        let conf = TableConfigurator::default();
        for constraints in
            [DesignConstraints::dart_s(), DesignConstraints::dart(), DesignConstraints::dart_l()]
        {
            let (cfg, cost) = conf.configure(&constraints).expect("feasible");
            assert!(cost.latency_cycles <= constraints.latency_cycles, "{cfg:?}");
            assert!(cost.storage_bytes <= constraints.storage_bytes, "{cfg:?}");
        }
    }

    #[test]
    fn configurator_is_latency_major() {
        // The chosen config must sit in the highest feasible latency tier:
        // no candidate may satisfy both constraints at a strictly higher
        // latency.
        let conf = TableConfigurator::default();
        let constraints = DesignConstraints::dart();
        let (_, chosen) = conf.configure(&constraints).unwrap();
        for (_, cost) in conf.candidates() {
            if cost.latency_cycles <= constraints.latency_cycles
                && cost.storage_bytes <= constraints.storage_bytes
            {
                assert!(cost.latency_cycles <= chosen.latency_cycles);
            }
        }
    }

    #[test]
    fn infeasible_constraints_return_none() {
        let conf = TableConfigurator::default();
        let too_tight = DesignConstraints { latency_cycles: 1, storage_bytes: 10 };
        assert!(conf.configure(&too_tight).is_none());
    }

    #[test]
    fn bigger_budgets_never_shrink_the_choice() {
        let conf = TableConfigurator::default();
        let (_, small) = conf.configure(&DesignConstraints::dart_s()).unwrap();
        let (_, large) = conf.configure(&DesignConstraints::dart_l()).unwrap();
        assert!(large.latency_cycles >= small.latency_cycles);
    }

    #[test]
    fn latency_monotone_in_k_and_layers() {
        let base = PredictorConfig::dart();
        let more_k = PredictorConfig { k: 256, ..base };
        let more_l = PredictorConfig { layers: 2, ..base };
        assert!(model_latency(&more_k) > model_latency(&base));
        assert!(model_latency(&more_l) > model_latency(&base));
    }

    #[test]
    fn storage_exponential_in_log_k_linear_latency() {
        // Fig. 10's contrast: latency grows ~linearly with log K while
        // storage grows ~exponentially (i.e. linear in K, quadratic in the
        // attention tables).
        let shape = ShapeParams::default();
        let ks = [64usize, 128, 256, 512];
        let lats: Vec<u64> = ks
            .iter()
            .map(|&k| model_latency(&PredictorConfig { k, ..PredictorConfig::dart() }))
            .collect();
        let stores: Vec<u64> = ks
            .iter()
            .map(|&k| {
                model_storage_bytes(&PredictorConfig { k, ..PredictorConfig::dart() }, &shape)
            })
            .collect();
        // Eq. 22 has eight log(K) terms at L = 1 (input + output linears,
        // four encoder linears, and 2 log K inside the attention kernel).
        for w in lats.windows(2) {
            assert_eq!(w[1] - w[0], 8, "latency steps by a constant per K doubling");
        }
        for w in stores.windows(2) {
            assert!(w[1] as f64 > w[0] as f64 * 1.8, "storage ~doubles per K doubling");
        }
    }
}
