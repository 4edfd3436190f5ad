//! # dart-core — the DART approach
//!
//! The paper's contribution, end to end (§IV–§VI):
//!
//! * [`configurator`] — the **table configurator**: the whole tabular cost
//!   model (the kernel formulas of Eq. 16–21 composed into Eq. 22–23 in one
//!   walk over the model's components, reported as a
//!   `dart_nn::cost::CostReport`), and the latency-major greedy search that
//!   picks a valid `(L, D, H, K, C)` under prefetcher design constraints
//!   `(τ, s)`,
//! * [`mod@distill`] — **multi-label knowledge distillation** with the
//!   T-Sigmoid softening (Eq. 24–25): teacher logits are cached once, then
//!   the student trains on `λ·KD + (1-λ)·BCE`,
//! * [`tabular_model`] — the **hierarchy of tables**: a table-based mirror
//!   of the attention predictor (linear kernels, per-head attention kernels,
//!   exact LayerNorm/residuals, LUT sigmoid) whose inference performs no
//!   matrix multiplications, split into a per-token prefix and a
//!   window-mixing suffix so a stream computes each token once
//!   ([`token_ring`] keeps the rows),
//! * [`stream`] — the **prefetcher** around the tables (Fig. 3): per-stream
//!   history and token rings, and the one batched step from accesses to
//!   prefetches that both `DartPrefetcher` and the serving runtime run,
//! * [`mod@tabularize`] — **layer-wise tabularization with fine-tuning**
//!   (Algorithm 1): each linear layer is re-fit by MSE against the original
//!   layer outputs with the *approximated* inputs produced by the tables
//!   built so far, mitigating error accumulation,
//! * [`eval`] — F1 and per-layer cosine-similarity diagnostics (Fig. 11),
//! * [`pipeline`] — the three-step workflow (attention → distillation →
//!   tabularization) packaged for examples and the experiment harness.

/// Cache-block shift, defined once in `dart-trace`.
pub use dart_trace::record::BLOCK_BITS;

pub mod config;
pub mod configurator;
pub mod distill;
pub mod eval;
pub mod pipeline;
pub mod stream;
pub mod tabular_model;
pub mod tabularize;
pub mod token_ring;

pub use config::{DesignConstraints, PredictorConfig, TabularConfig};
pub use configurator::TableConfigurator;
pub use distill::{distill, DistillConfig};
pub use pipeline::{run_pipeline, PipelineArtifacts, PipelineConfig};
pub use stream::{EmitPolicy, StepCounters, StreamEngine, StreamLookup, StreamState};
pub use tabular_model::{TabularModel, TokenRows};
pub use tabularize::{tabularize, TabularizationReport};
pub use token_ring::TokenRing;
