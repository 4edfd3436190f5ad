//! # dart-pq — product-quantization tabularization kernels
//!
//! Implements §II-B and §V of the DART paper: the machinery that converts
//! the matrix multiplications of an attention-based neural network into
//! table lookups.
//!
//! * [`kmeans`] — k-means++ / Lloyd prototype learning (paper Eq. 5),
//! * [`quantizer`] — per-subspace quantizers: a MADDNESS-style balanced
//!   hash-tree encoder with `log2(K)` query depth (the paper's "locality
//!   sensitive hashing \[24\]" encoder, and the default) and exact arg-min
//!   encoding (the upper-bound ablation),
//! * [`linear_table`] — the **linear kernel** (Eq. 10–11): precomputed
//!   prototype·weight tables with the bias folded into one subspace,
//! * [`attention_table`] — the **attention kernel** (Eq. 12–15): a QK table
//!   of pairwise prototype products, a second quantization of the
//!   intermediate `QK^T`, and a QKV table with scaling and activation folded
//!   into the prototypes,
//! * [`sigmoid_lut`] — fixed lookup-table sigmoid (paper ref. \[46\]),
//! * [`simd`] — the exact argmin scan over a dimension-major codebook
//!   block (arg-min encodes and k-means assignment): one safe body, compiled for the baseline target and for AVX2
//!   (chosen per process from the CPU it observes), both bit-for-bit
//!   identical to the per-centroid strided reference.

pub mod arena;
pub mod attention_table;
pub mod fused;
pub mod kmeans;
pub mod linear_table;
pub mod profile;
pub mod quantizer;
pub mod sigmoid_lut;
pub mod simd;

pub use arena::{CodebookArena, TableArena};
pub use attention_table::{
    AttentionActivation, AttentionTable, AttentionTableConfig, ATTN_TILE_SAMPLES,
};
pub use fused::FusedFfnTable;
pub use linear_table::{LinearTable, ProtoTransform, AGG_TILE_ROWS};
pub use profile::profile_kernel;
pub use quantizer::{EncoderKind, ProductQuantizer, Quantizer, ENCODE_LANES, ENCODE_TILE_ROWS};
pub use sigmoid_lut::SigmoidLut;
pub use simd::SimdLevel;
