//! Analytic complexity model for the *neural* predictors (paper Table V),
//! and [`CostReport`], the one cost type of every predictor: the teacher,
//! the student and the LSTM here, the tabularized model in
//! `dart_core::configurator` (Eq. 16–23).
//!
//! The paper evaluates the Teacher and Student "under systolic array
//! implementation for matrix multiplications" (citing Kung & Leiserson).
//! We model a fully-pipelined systolic array per matmul: multiplying a
//! `(T x K)` activation with a `(K x N)` weight costs `T + K + N` cycles of
//! latency and `2*T*K*N` arithmetic operations; storage is parameter bytes.
//!
//! The constants reproduce the paper's Table V within ~10% for the teacher
//! (16.5K cycles, 98.3M ops) and student (908 cycles) configurations with
//! `T = 16`, `D_F = 4D`; the paper does not state its storage assumptions,
//! so storage here is simply `4 bytes x parameter count` (`exp table5`
//! prints the comparison; README "Benchmarks & experiments").

use crate::model::{LstmConfig, ModelConfig};

/// Latency (cycles), storage (bytes), and arithmetic-operation count of a
/// model: the systolic-array model of the neural predictors, or Eq. 20–23
/// of a tabularized one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CostReport {
    /// Inference latency in cycles, assuming full pipelining/parallelism.
    pub latency_cycles: u64,
    /// Model storage in bytes (`f32` parameters, or table entries and
    /// encoded indices).
    pub storage_bytes: u64,
    /// Arithmetic operations per inference (multiply + add counted separately).
    pub ops: u64,
}

impl CostReport {
    /// Sum of two reports (sequential composition).
    pub fn seq(self, other: CostReport) -> CostReport {
        CostReport {
            latency_cycles: self.latency_cycles + other.latency_cycles,
            storage_bytes: self.storage_bytes + other.storage_bytes,
            ops: self.ops + other.ops,
        }
    }
}

/// Bytes per stored scalar (f32).
const DATA_BYTES: u64 = 4;

/// LayerNorm latency constant `L_ln` of Eq. 22 (reduction tree +
/// normalize), cycles. The paper never states it; 5 cycles keeps Eq. 22
/// within ~10% of Table V/VIII.
pub const LN_LATENCY: u64 = 5;

/// Output-sigmoid latency constant `L_σ` of Eq. 22, cycles.
pub const SIGMOID_LATENCY: u64 = 4;

/// `ceil(log2(x))`, with `log2(1) = 0` and `log2(0) = 0`: the depth of a
/// reduction tree or binary search over `x` items.
#[inline]
pub fn log2_ceil(x: usize) -> u64 {
    if x <= 1 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as u64
    }
}

/// Latency of a row softmax over `t` elements (max/sum reduction trees).
fn softmax_latency(t: usize) -> u64 {
    2 * log2_ceil(t.max(2)) + 2
}

/// Cost of one dense layer mapping `t x in_dim` to `t x out_dim`.
pub fn linear_cost(t: usize, in_dim: usize, out_dim: usize) -> CostReport {
    CostReport {
        latency_cycles: (t + in_dim + out_dim) as u64,
        storage_bytes: ((in_dim * out_dim + out_dim) as u64) * DATA_BYTES,
        ops: 2 * (t * in_dim * out_dim) as u64,
    }
}

/// Cost of the scaled-dot-product attention core for `heads` parallel heads
/// over a `t`-token sequence with model dimension `dim` (head dim = dim/heads).
pub fn attention_core_cost(t: usize, dim: usize, heads: usize) -> CostReport {
    let dh = dim / heads.max(1);
    // QK^T: (t x dh) @ (dh x t); heads run in parallel -> latency of one head.
    let qk_lat = (t + dh + t) as u64;
    // AV: (t x t) @ (t x dh)
    let av_lat = (t + t + dh) as u64;
    CostReport {
        latency_cycles: qk_lat + softmax_latency(t) + av_lat,
        storage_bytes: 0, // no parameters in the attention core itself
        // Ops across ALL heads: 2*t*t*dh per matmul per head, two matmuls.
        ops: 2 * 2 * (t * t * dh * heads) as u64 + (t * t * heads) as u64,
    }
}

/// Full cost of the attention predictor in `config` (paper Fig. 6):
/// input linear + LN + L encoder layers + output linear + sigmoid.
pub fn attention_model_cost(config: &ModelConfig) -> CostReport {
    let t = config.seq_len;
    let d = config.dim;
    let mut total = linear_cost(t, config.input_dim, d);
    total.latency_cycles += LN_LATENCY;
    total.storage_bytes += 2 * d as u64 * DATA_BYTES; // gamma, beta

    for _ in 0..config.layers {
        // LN1 + QKV projection + attention core + output projection
        let mut layer = CostReport::default();
        layer.latency_cycles += LN_LATENCY;
        layer = layer.seq(linear_cost(t, d, 3 * d));
        layer = layer.seq(attention_core_cost(t, d, config.heads));
        layer = layer.seq(linear_cost(t, d, d));
        // LN2 + FFN
        layer.latency_cycles += LN_LATENCY;
        layer = layer.seq(linear_cost(t, d, config.ffn_dim));
        layer = layer.seq(linear_cost(t, config.ffn_dim, d));
        layer.storage_bytes += 4 * d as u64 * DATA_BYTES; // two LayerNorms
        total = total.seq(layer);
    }

    total = total.seq(linear_cost(t, d, config.output_dim));
    total.latency_cycles += SIGMOID_LATENCY;
    total
}

/// Full cost of the LSTM predictor (Voyager-like). The recurrence is
/// inherently sequential over `T` steps — this is the latency story that
/// makes Voyager impractical in the paper (Table IX: 27.7K cycles).
pub fn lstm_model_cost(config: &LstmConfig) -> CostReport {
    let t = config.seq_len;
    let h = config.hidden;
    let input = linear_cost(t, config.input_dim, h);
    // Per step: z = W x + U h (two matmuls of (1 x h) @ (h x 4h)) + gates.
    let step_lat = (1 + h + 4 * h) as u64 + (1 + h + 4 * h) as u64 + 4;
    let step_ops = 2 * (h * 4 * h) as u64 * 2 + 8 * h as u64;
    let out = linear_cost(1, h, config.output_dim);
    CostReport {
        latency_cycles: input.latency_cycles + t as u64 * step_lat + out.latency_cycles,
        storage_bytes: input.storage_bytes
            + ((4 * h * h * 2 + 4 * h) as u64) * DATA_BYTES
            + out.storage_bytes,
        ops: input.ops + t as u64 * step_ops + out.ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teacher_cfg() -> ModelConfig {
        ModelConfig::teacher(8, 128, 16)
    }

    fn student_cfg() -> ModelConfig {
        ModelConfig::student(8, 128, 16)
    }

    #[test]
    fn teacher_latency_matches_paper_magnitude() {
        // Paper Table V: 16.5K cycles.
        let c = attention_model_cost(&teacher_cfg());
        assert!(
            (12_000..22_000).contains(&c.latency_cycles),
            "teacher latency {} out of plausible range",
            c.latency_cycles
        );
    }

    #[test]
    fn teacher_ops_match_paper_magnitude() {
        // Paper Table V: 98.3M ops.
        let c = attention_model_cost(&teacher_cfg());
        assert!(
            (70e6 as u64..130e6 as u64).contains(&c.ops),
            "teacher ops {} out of plausible range",
            c.ops
        );
    }

    #[test]
    fn student_latency_matches_paper_magnitude() {
        // Paper Table V: 908 cycles.
        let c = attention_model_cost(&student_cfg());
        assert!(
            (600..1400).contains(&c.latency_cycles),
            "student latency {} out of plausible range",
            c.latency_cycles
        );
    }

    #[test]
    fn teacher_dominates_student_on_all_axes() {
        let t = attention_model_cost(&teacher_cfg());
        let s = attention_model_cost(&student_cfg());
        assert!(t.latency_cycles > 10 * s.latency_cycles);
        assert!(t.storage_bytes > 10 * s.storage_bytes);
        assert!(t.ops > 100 * s.ops);
    }

    #[test]
    fn lstm_latency_scales_linearly_with_seq() {
        let short =
            lstm_model_cost(&LstmConfig { input_dim: 8, hidden: 64, output_dim: 128, seq_len: 8 });
        let long =
            lstm_model_cost(&LstmConfig { input_dim: 8, hidden: 64, output_dim: 128, seq_len: 16 });
        let delta = long.latency_cycles - short.latency_cycles;
        // Doubling T should roughly double the recurrent latency share.
        assert!(delta > short.latency_cycles / 2);
    }

    #[test]
    fn lstm_is_slower_than_attention_at_same_scale() {
        // The recurrence serializes; attention parallelizes.
        let lstm = lstm_model_cost(&LstmConfig {
            input_dim: 8,
            hidden: 256,
            output_dim: 128,
            seq_len: 16,
        });
        let attn = attention_model_cost(&ModelConfig {
            input_dim: 8,
            dim: 256,
            heads: 8,
            layers: 1,
            ffn_dim: 1024,
            output_dim: 128,
            seq_len: 16,
        });
        assert!(lstm.latency_cycles > attn.latency_cycles);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(128), 7);
        assert_eq!(log2_ceil(1024), 10);
    }

    #[test]
    fn seq_composition_adds() {
        let a = linear_cost(4, 8, 8);
        let b = linear_cost(4, 8, 8);
        let s = a.seq(b);
        assert_eq!(s.latency_cycles, 2 * a.latency_cycles);
        assert_eq!(s.ops, 2 * a.ops);
    }
}
