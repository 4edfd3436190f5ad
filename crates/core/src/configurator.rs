//! The table configurator (paper §V-C, §VI-C): the whole tabular cost
//! model — the kernel formulas of Eq. 16–21 composed into the model's
//! latency, storage and operations (Eq. 20–23) in one walk over its
//! components — and the latency-major greedy search over a pre-defined
//! design space.

use std::cmp::Reverse;

use dart_nn::cost::{log2_ceil, CostReport, LN_LATENCY, SIGMOID_LATENCY};
use serde::{Deserialize, Serialize};

use crate::config::{DesignConstraints, PredictorConfig};

/// Table-entry precision `d` in bits (f32 entries).
pub const DATA_BITS: usize = 32;

/// Eq. 16 — linear kernel latency: `log(K) + log(C) + 1`.
fn linear_latency(k: usize, c: usize) -> u64 {
    log2_ceil(k) + log2_ceil(c) + 1
}

/// Eq. 17 — attention kernel latency:
/// `2 log(K) + log(C_k) + log(C_t) + 2`.
fn attention_latency(k: usize, ck: usize, ct: usize) -> u64 {
    2 * log2_ceil(k) + log2_ceil(ck) + log2_ceil(ct) + 2
}

/// Eq. 18 — linear kernel storage (bits):
/// `T*C*log(K)` (encoded indices) `+ D_O*K*C*d` (table entries).
fn linear_storage_bits(t: usize, d_o: usize, k: usize, c: usize, d_bits: usize) -> u64 {
    (t * c) as u64 * log2_ceil(k) + (d_o * k * c * d_bits) as u64
}

/// Eq. 19 — attention kernel storage (bits):
/// `(2*T*C_k + T*C_t + D_k*C_t) * log(K) + K^2 * (C_k + C_t) * d`.
fn attention_storage_bits(
    t: usize,
    d_k: usize,
    k: usize,
    ck: usize,
    ct: usize,
    d_bits: usize,
) -> u64 {
    ((2 * t * ck + t * ct + d_k * ct) as u64) * log2_ceil(k) + (k * k * (ck + ct) * d_bits) as u64
}

/// Eq. 20 — linear kernel arithmetic operations:
/// `T*C*log(K)` (encoding) `+ T*D_O*log(C)` (aggregation).
fn linear_ops(t: usize, d_o: usize, k: usize, c: usize) -> u64 {
    (t * c) as u64 * log2_ceil(k) + (t * d_o) as u64 * log2_ceil(c).max(1)
}

/// Eq. 21 — attention kernel arithmetic operations:
/// `(2*T*C_k + T*C_t + D_k*C_t) * log(K) + T^2*log(C_k) + D_k^2*log(C_t)`.
fn attention_ops(t: usize, d_k: usize, k: usize, ck: usize, ct: usize) -> u64 {
    ((2 * t * ck + t * ct + d_k * ct) as u64) * log2_ceil(k)
        + (t * t) as u64 * log2_ceil(ck).max(1)
        + (d_k * d_k) as u64 * log2_ceil(ct).max(1)
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

/// The cost of a tabularized predictor: Eq. 22 latency, Eq. 23 storage and
/// Eq. 20–21 operations, summed over one `(cycles, bits, ops)` line per
/// component. Storage is summed in bits and rounded up to bytes once.
pub fn model_cost(cfg: &PredictorConfig, shape: &ShapeParams) -> CostReport {
    let (t, d, k, c) = (shape.seq_len, cfg.dim, cfg.k, cfg.c);
    let linear = |d_o: usize| {
        (
            linear_latency(k, c),
            linear_storage_bits(t, d_o, k, c, DATA_BITS),
            linear_ops(t, d_o, k, c),
        )
    };
    let attention = (
        attention_latency(k, c, c),
        attention_storage_bits(t, d, k, c, c, DATA_BITS),
        attention_ops(t, d, k, c, c),
    );
    // LayerNorm: `L_ln` cycles and `S_ln` bits (gamma + beta); no ops.
    let s_ln = (2 * d * DATA_BITS) as u64;
    let ln = (LN_LATENCY, s_ln, 0);
    let (in_cycles, in_bits, in_ops) = linear(d);
    let encoder_layer = [
        ln,            // LN1
        linear(3 * d), // QKV
        attention,     // attention kernel
        linear(d),     // attention output
        // LN2: Eq. 23 stores three `S_ln` per layer, Eq. 22 waits two `L_ln`.
        (LN_LATENCY, 2 * s_ln, 0),
        linear(cfg.ffn_dim()), // FFN hidden
        linear(d),             // FFN out
    ];
    let components = [
        // Input linear: Eq. 23 stores one for the address and one for the PC
        // token stream, Eq. 22 and Eq. 20 charge one.
        (in_cycles, 2 * in_bits, in_ops),
        ln, // input LayerNorm
    ]
    .into_iter()
    .chain(std::iter::repeat_n(encoder_layer, cfg.layers).flatten())
    .chain([
        linear(shape.output_dim),                        // output linear
        (SIGMOID_LATENCY, (1024 * DATA_BITS) as u64, 0), // sigmoid LUT, 1024 entries
    ]);
    let (cycles, bits, ops) =
        components.fold((0, 0, 0), |(l, s, o), (dl, ds, dops)| (l + dl, s + ds, o + dops));
    CostReport { latency_cycles: cycles, storage_bytes: bits.div_ceil(8), ops }
}

/// Eq. 22 — tabularized model latency (independent of the shape).
pub fn model_latency(cfg: &PredictorConfig) -> u64 {
    model_cost(cfg, &ShapeParams::default()).latency_cycles
}

/// Eq. 23 — tabularized model storage in bytes.
pub fn model_storage_bytes(cfg: &PredictorConfig, shape: &ShapeParams) -> u64 {
    model_cost(cfg, shape).storage_bytes
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
    pub fn candidates(&self) -> Vec<(PredictorConfig, CostReport)> {
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

    /// Latency-major greedy selection (paper §VI-C2): among the candidates
    /// within both `τ` and `s`, the **highest** latency, then the
    /// **maximum** storage. The earliest candidate wins a tie — the cost
    /// ignores `H`, so equal costs are common.
    pub fn configure(
        &self,
        constraints: &DesignConstraints,
    ) -> Option<(PredictorConfig, CostReport)> {
        self.candidates()
            .into_iter()
            .filter(|(_, cost)| {
                cost.latency_cycles <= constraints.latency_cycles
                    && cost.storage_bytes <= constraints.storage_bytes
            })
            // `min_by_key` keeps the first of equal keys.
            .min_by_key(|(_, cost)| Reverse((cost.latency_cycles, cost.storage_bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::cost::{attention_model_cost, lstm_model_cost};
    use dart_nn::model::{LstmConfig, ModelConfig};

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
        let ops = model_cost(&PredictorConfig::dart(), &ShapeParams::default()).ops;
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

    /// FNV-1a over little-endian `u64` words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in words {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    fn triple(cost: CostReport) -> (u64, u64, u64) {
        (cost.latency_cycles, cost.storage_bytes, cost.ops)
    }

    /// `(L, D, H, K, C)` then `(latency, storage, ops)`.
    fn words(cfg: &PredictorConfig, cost: CostReport) -> [u64; 8] {
        let [l, d, h, k, c] = [cfg.layers, cfg.dim, cfg.heads, cfg.k, cfg.c].map(|v| v as u64);
        [l, d, h, k, c, cost.latency_cycles, cost.storage_bytes, cost.ops]
    }

    /// Every number the cost model produces, pinned exactly: the paper
    /// variants, a second shape, the whole default design space, the
    /// configurator's picks over `examples/design_space.rs`'s grid, and the
    /// neural predictors' systolic model.
    #[test]
    fn cost_model_is_pinned_exactly() {
        let cost = |cfg: PredictorConfig, shape: ShapeParams| triple(model_cost(&cfg, &shape));
        let shape = ShapeParams::default();
        assert_eq!(cost(PredictorConfig::dart_s(), shape), (59, 26_200, 5_760));
        assert_eq!(cost(PredictorConfig::dart(), shape), (91, 759_120, 10_912));
        assert_eq!(cost(PredictorConfig::dart_l(), shape), (169, 3_676_576, 19_456));
        let short = ShapeParams { seq_len: 8, output_dim: 64 };
        assert_eq!(cost(PredictorConfig::dart(), short), (91, 693_444, 5_616));

        let conf = TableConfigurator::default();
        let cands = conf.candidates();
        assert_eq!(cands.len(), 504);
        let hash = fnv1a(cands.iter().flat_map(|(cfg, cost)| words(cfg, *cost)));
        assert_eq!(format!("{hash:016x}"), "14cfa8631fe09919");

        let (mut feasible, mut picks) = (0, Vec::new());
        for tau in [40u64, 60, 100, 200, 400] {
            for s in [16_000u64, 100_000, 1_000_000, 4_000_000] {
                match conf.configure(&DesignConstraints { latency_cycles: tau, storage_bytes: s }) {
                    Some((cfg, cost)) => {
                        feasible += 1;
                        picks.extend(words(&cfg, cost));
                    }
                    None => picks.push(u64::MAX),
                }
            }
        }
        assert_eq!(feasible, 12);
        assert_eq!(format!("{:016x}", fnv1a(picks)), "bbfee3f8735e3c9c");
        let table8: Vec<_> =
            [DesignConstraints::dart_s(), DesignConstraints::dart(), DesignConstraints::dart_l()]
                .iter()
                .map(|constraints| {
                    let (cfg, _) = conf.configure(constraints).unwrap();
                    (cfg.layers, cfg.dim, cfg.heads, cfg.k, cfg.c)
                })
                .collect();
        assert_eq!(table8, [(1, 16, 2, 16, 1), (1, 16, 2, 64, 8), (2, 16, 2, 128, 8)]);

        assert_eq!(
            triple(attention_model_cost(&ModelConfig::teacher(8, 128, 16))),
            (17_921, 12_779_008, 102_834_176)
        );
        assert_eq!(
            triple(attention_model_cost(&ModelConfig::student(8, 128, 16))),
            (933, 69_120, 565_760)
        );
        let lstm = LstmConfig { input_dim: 8, hidden: 128, output_dim: 128, seq_len: 16 };
        assert_eq!(triple(lstm_model_cost(&lstm)), (20_985, 596_992, 4_276_224));
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

    #[test]
    fn linear_latency_matches_paper_example() {
        // DART config: K=128, C=2 => log(128) + log(2) + 1 = 9.
        assert_eq!(linear_latency(128, 2), 9);
        // DART-S: K=16, C=1 => 4 + 0 + 1 = 5.
        assert_eq!(linear_latency(16, 1), 5);
    }

    #[test]
    fn attention_latency_is_twice_linear_when_c_equal() {
        // Eq. 17 collapses to 2*(log K + log C + 1) when C_k = C_t = C.
        for (k, c) in [(128, 2), (16, 1), (256, 2), (1024, 8)] {
            assert_eq!(attention_latency(k, c, c), 2 * linear_latency(k, c));
        }
    }

    #[test]
    fn storage_grows_linearly_in_k_for_linear_kernel() {
        let s1 = linear_storage_bits(16, 128, 64, 2, 32);
        let s2 = linear_storage_bits(16, 128, 128, 2, 32);
        // Table part dominates; doubling K should roughly double storage.
        assert!(s2 > s1 * 18 / 10, "{s1} -> {s2}");
    }

    #[test]
    fn storage_grows_quadratically_in_k_for_attention_kernel() {
        let s1 = attention_storage_bits(16, 32, 64, 2, 2, 32);
        let s2 = attention_storage_bits(16, 32, 128, 2, 2, 32);
        assert!(s2 > s1 * 3, "expected ~4x growth: {s1} -> {s2}");
    }

    #[test]
    fn latency_grows_logarithmically_in_k() {
        // Fig. 10: latency linear in log(K).
        let lat: Vec<u64> =
            [16usize, 32, 64, 128, 256, 512, 1024].iter().map(|&k| linear_latency(k, 2)).collect();
        for w in lat.windows(2) {
            assert_eq!(w[1] - w[0], 1, "latency should step by 1 per K doubling");
        }
    }

    #[test]
    fn ops_dwarfed_by_dense_equivalent() {
        // The whole point of tabularization: ops(T, D_O, K, C) must be tiny
        // compared to the dense 2*T*D_I*D_O.
        let (t, d_i, d_o, k, c) = (16usize, 32usize, 128usize, 128usize, 2usize);
        let dense = 2 * t * d_i * d_o;
        let tab = linear_ops(t, d_o, k, c);
        assert!(tab < (dense / 10) as u64, "tab {tab} vs dense {dense}");
    }

    /// `log2_ceil` is exact (`2^(l-1) < x <= 2^l`) and monotone, for every
    /// `x` below 100 000.
    #[test]
    fn log2_ceil_properties() {
        for x in 1usize..100_000 {
            let l = log2_ceil(x);
            assert!(1usize << l >= x, "{x}");
            if l > 0 {
                assert!(1usize << (l - 1) < x, "{x}");
            }
            assert!(log2_ceil(x + 1) >= l, "{x}");
        }
    }

    /// Kernel latency is monotone in K and C (Eq. 16-17), over every
    /// `K < 512` and `C < 8`.
    #[test]
    fn latency_monotone() {
        for k in 2usize..512 {
            for c in 1usize..8 {
                assert!(linear_latency(2 * k, c) >= linear_latency(k, c));
                assert!(linear_latency(k, c + 1) >= linear_latency(k, c));
                assert!(attention_latency(2 * k, c, c) >= attention_latency(k, c, c));
            }
        }
    }

    /// Kernel storage is monotone in every argument (Eq. 18-19): every
    /// `T < 32` and `C < 8`, every third `D_O < 128`, every seventh `K < 256`.
    #[test]
    fn storage_monotone() {
        for t in 1usize..32 {
            for d in (1usize..128).step_by(3) {
                for k in (2usize..256).step_by(7) {
                    for c in 1usize..8 {
                        let at = (t, d, k, c);
                        assert!(
                            linear_storage_bits(t, d, 2 * k, c, 32)
                                > linear_storage_bits(t, d, k, c, 32),
                            "{at:?}"
                        );
                        assert!(
                            linear_storage_bits(t, d + 1, k, c, 32)
                                >= linear_storage_bits(t, d, k, c, 32),
                            "{at:?}"
                        );
                        assert!(
                            attention_storage_bits(t, d, 2 * k, c, c, 32)
                                > attention_storage_bits(t, d, k, c, c, 32),
                            "{at:?}"
                        );
                        // Halving entry precision cannot increase storage.
                        assert!(
                            linear_storage_bits(t, d, k, c, 8)
                                <= linear_storage_bits(t, d, k, c, 32),
                            "{at:?}"
                        );
                    }
                }
            }
        }
    }
}
