//! # dart-nn — minimal CPU neural-network substrate for DART
//!
//! This crate implements, from scratch, everything the DART paper needs from a
//! deep-learning framework:
//!
//! * a dense row-major [`Matrix`] type with rayon-parallel blocked matrix
//!   multiplication ([`matrix`]),
//! * layers with hand-derived backward passes ([`layers`]): linear, ReLU,
//!   sigmoid, layer normalization, multi-head self-attention, feed-forward
//!   networks, transformer encoder blocks (pre-LN with residuals) and an LSTM
//!   (used by the Voyager-like baseline),
//! * the attention-based memory-access predictor of the paper's Figure 6
//!   ([`model::AccessPredictor`]),
//! * losses ([`loss`]): binary cross-entropy with logits, MSE, and the
//!   T-Sigmoid knowledge-distillation KL loss of Eq. 24–25,
//! * the Adam optimizer ([`optim`]) and a mini-batch trainer ([`train`]),
//! * parameter (state-dict) serialization ([`serialize`]),
//! * an analytic cost model ([`cost`]) for the latency / storage / arithmetic
//!   operation counts reported in the paper's Table V, and its one
//!   `CostReport` type, which serves the teacher, the student, the LSTM and
//!   the tables (`dart_core::configurator`) alike.
//!
//! Design notes:
//!
//! * Shapes are validated with `assert!`; mismatched shapes are programming
//!   errors, not recoverable conditions (the same contract as `ndarray`).
//! * All stochastic code takes explicit seeds; training is deterministic for
//!   a fixed seed and thread count.
//! * Sequence batches are stored *stacked*: a batch of `N` sequences of `T`
//!   tokens with `D` features is one `(N*T) x D` matrix, which lets linear
//!   layers run as single large matmuls; attention layers read each
//!   sample's rows of the stack in place (per-head column blocks, no copies)
//!   and process samples in parallel with rayon.

pub mod cost;
pub mod init;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod train;

pub use matrix::Matrix;
pub use model::{AccessPredictor, ModelConfig};
pub use optim::{Adam, AdamConfig};

/// Crate-wide result alias (IO and config errors only; shape errors panic).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by fallible operations (configuration, serialization).
#[derive(Debug)]
pub enum Error {
    /// A model or training configuration is invalid (e.g. `dim % heads != 0`).
    InvalidConfig(String),
    /// Serialized model data is malformed or truncated.
    Serialization(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Serialization(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
