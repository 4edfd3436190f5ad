//! The hierarchy-of-tables predictor: a table-based mirror of the attention
//! model whose inference performs **no matrix multiplications** — only
//! encodings, table lookups, aggregations, LayerNorm arithmetic, residual
//! adds, and one LUT sigmoid (paper §IV, Algorithm 1).

use dart_nn::matrix::Matrix;
use dart_nn::model::ModelConfig;
use dart_pq::{AttentionTable, FusedFfnTable, LinearTable, SigmoidLut};
use serde::{Deserialize, Serialize};

/// Exact LayerNorm parameters copied from the neural model (Algorithm 1
/// line 18 keeps LayerNorm as plain arithmetic).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExactLayerNorm {
    /// Scale vector.
    pub gamma: Vec<f32>,
    /// Shift vector.
    pub beta: Vec<f32>,
    /// Variance epsilon.
    pub eps: f32,
}

impl ExactLayerNorm {
    /// Copy parameters out of a trained `dart-nn` LayerNorm.
    pub fn from_nn(ln: &dart_nn::layers::LayerNorm) -> Self {
        ExactLayerNorm {
            gamma: ln.gamma.value.as_slice().to_vec(),
            beta: ln.beta.value.as_slice().to_vec(),
            eps: ln.eps(),
        }
    }

    /// Apply row-wise.
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let dim = self.gamma.len();
        assert_eq!(x.cols(), dim, "LayerNorm dim mismatch");
        let mut out = Matrix::zeros(x.rows(), dim);
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / dim as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            let orow = out.row_mut(r);
            for c in 0..dim {
                orow[c] = self.gamma[c] * (row[c] - mean) * inv + self.beta[c];
            }
        }
        out
    }

    /// Parameter storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        ((self.gamma.len() + self.beta.len()) * 4) as u64
    }
}

/// The FFN portion of a tabularized encoder block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum FfnTables {
    /// The paper's default: two linear kernels, with the ReLU folded into
    /// the output kernel's prototypes.
    TwoKernel {
        /// FFN hidden linear kernel (`D -> D_F`).
        hidden: LinearTable,
        /// FFN output linear kernel with the ReLU folded into its
        /// prototypes (`D_F -> D`).
        out: LinearTable,
    },
    /// The paper's §VIII future-work extension: the whole FFN collapsed
    /// into a single lookup (half the latency, coarser approximation).
    Fused(FusedFfnTable),
}

impl FfnTables {
    /// Apply the tabularized FFN to stacked rows.
    pub fn query(&self, x: &Matrix) -> Matrix {
        match self {
            FfnTables::TwoKernel { hidden, out } => out.query(&hidden.query(x)),
            FfnTables::Fused(fused) => fused.query(x),
        }
    }

    /// Table storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        match self {
            FfnTables::TwoKernel { hidden, out } => hidden.storage_bytes() + out.storage_bytes(),
            FfnTables::Fused(fused) => fused.storage_bytes(),
        }
    }
}

/// One tabularized transformer encoder block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TabularEncoderBlock {
    /// LayerNorm before attention (exact).
    pub ln1: ExactLayerNorm,
    /// Fused QKV projection (linear kernel, `D -> 3D`).
    pub qkv: LinearTable,
    /// Per-head attention kernels.
    pub heads: Vec<AttentionTable>,
    /// Output projection (linear kernel, `D -> D`).
    pub out: LinearTable,
    /// LayerNorm before the FFN (exact).
    pub ln2: ExactLayerNorm,
    /// Tabularized FFN (two kernels or one fused table).
    pub ffn: FfnTables,
}

impl TabularEncoderBlock {
    /// Forward one stacked batch (`(batch*T) x D`).
    ///
    /// Every kernel runs its batched path: the QKV/out/FFN linear kernels
    /// aggregate subspace-major over the whole batch, and each attention
    /// head processes all samples in one `query_batch` call with shared
    /// scratch buffers.
    pub fn forward(&self, x: &Matrix, seq_len: usize) -> Matrix {
        let dim = x.cols();
        let heads = self.heads.len();
        let dh = dim / heads;
        debug_assert_eq!(x.rows() % seq_len, 0, "rows not divisible by seq_len");

        let a = self.ln1.apply(x);
        let qkv = self.qkv.query(&a);
        let q = qkv.slice_cols(0, dim);
        let k = qkv.slice_cols(dim, 2 * dim);
        let v = qkv.slice_cols(2 * dim, 3 * dim);

        let mut concat = Matrix::zeros(x.rows(), dim);
        for (h, head) in self.heads.iter().enumerate() {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qs = q.slice_cols(lo, hi);
            let ks = k.slice_cols(lo, hi);
            let vs = v.slice_cols(lo, hi);
            let y = head.query_batch(&qs, &ks, &vs);
            for r in 0..x.rows() {
                concat.row_mut(r)[lo..hi].copy_from_slice(y.row(r));
            }
        }
        let x1 = x.add(&self.out.query(&concat));

        let f = self.ln2.apply(&x1);
        x1.add(&self.ffn.query(&f))
    }

    /// Table + LayerNorm storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.ln1.storage_bytes()
            + self.qkv.storage_bytes()
            + self.heads.iter().map(AttentionTable::storage_bytes).sum::<u64>()
            + self.out.storage_bytes()
            + self.ln2.storage_bytes()
            + self.ffn.storage_bytes()
    }
}

/// The complete table-based predictor (the "DART predictor").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TabularModel {
    /// Mirror of the source model's structure.
    pub config: ModelConfig,
    /// Tabularized input projection.
    pub input_linear: LinearTable,
    /// Exact LayerNorm after the input projection.
    pub input_ln: ExactLayerNorm,
    /// Tabularized encoder stack.
    pub blocks: Vec<TabularEncoderBlock>,
    /// Tabularized per-token output projection.
    pub output_linear: LinearTable,
    /// LUT sigmoid on the pooled logits.
    pub sigmoid: SigmoidLut,
}

impl TabularModel {
    /// Per-token hidden representation, pre-head (for layer diagnostics).
    pub fn encode(&self, x: &Matrix) -> Matrix {
        let mut h = self.input_linear.query(x);
        h = self.input_ln.apply(&h);
        for blk in &self.blocks {
            h = blk.forward(&h, self.config.seq_len);
        }
        h
    }

    /// Pooled pre-sigmoid logits (`batch x D_O`).
    pub fn forward_logits(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.config.input_dim, "input dim mismatch");
        let h = self.encode(x);
        let per_token = self.output_linear.query(&h);
        let t = self.config.seq_len;
        let batch = per_token.rows() / t;
        let mut out = Matrix::zeros(batch, self.config.output_dim);
        for n in 0..batch {
            let orow = out.row_mut(n);
            for step in 0..t {
                for (o, &v) in orow.iter_mut().zip(per_token.row(n * t + step)) {
                    *o += v;
                }
            }
            let inv = 1.0 / t as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
        out
    }

    /// Bitmap probabilities via the sigmoid LUT (`batch x D_O`).
    pub fn forward_probs(&self, x: &Matrix) -> Matrix {
        let mut logits = self.forward_logits(x);
        self.sigmoid.apply(logits.as_mut_slice());
        logits
    }

    /// Batched prediction over `B` stacked samples — the serving entry
    /// point used by `dart-serve`.
    ///
    /// `x` is `(B * seq_len) x D_I`: sample `n`'s token rows occupy rows
    /// `[n*seq_len, (n+1)*seq_len)`. Returns `B x D_O` bitmap
    /// probabilities. Results are bit-for-bit identical to calling
    /// [`Self::forward_probs`] on each sample individually; the batched
    /// path runs every kernel's tiled flat-arena query (`dart-pq`'s
    /// `TableArena` layout: rows are aggregated a tile at a time per
    /// sub-table pass, so each contiguous sub-table block stays
    /// cache-resident across its tile).
    pub fn predict_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows() % self.config.seq_len,
            0,
            "predict_batch rows {} not divisible by seq_len {}",
            x.rows(),
            self.config.seq_len
        );
        self.forward_probs(x)
    }

    /// Serialize the whole table hierarchy — flat `TableArena` /
    /// `CodebookArena` storage included — to JSON (the golden-fixture
    /// format under `tests/fixtures/`).
    pub fn to_json(&self) -> String {
        let json = serde_json::to_string(self).expect("TabularModel serialization cannot fail");
        // serde_json writes non-finite floats as `null` without erroring,
        // and `from_json` then rejects the file far from the cause. A
        // NaN/Inf table entry means the *fit* was degenerate — enforce the
        // actual contract (the written JSON loads back) here at the write,
        // where the message can say so. Serialization is a rare fixture /
        // snapshot path, so the extra parse is immaterial.
        assert!(
            Self::from_json(&json).is_ok(),
            "serialized TabularModel does not load back via from_json; refusing to write an \
             unloadable model. Most likely cause: non-finite table entries (serde_json writes \
             NaN/Inf as `null`), i.e. a degenerate fit — but any serializer/deserializer \
             asymmetry trips this too"
        );
        json
    }

    /// Content fingerprint: FNV-1a over the canonical [`Self::to_json`]
    /// serialization. Bit-identical models — e.g. a `clone` — share a
    /// fingerprint; any table-entry or config change alters it. Used by
    /// `dart-serve`'s model registry to distinguish a no-op hot-swap from
    /// a real model change. This serializes the whole model, so treat it
    /// as a registry/admin-path operation, not a serving-path one.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.to_json().into_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Load a model serialized by [`Self::to_json`]. f32 entries survive
    /// the round trip bit-for-bit (JSON numbers are f64, and f32 -> f64 is
    /// exact).
    pub fn from_json(s: &str) -> serde_json::Result<TabularModel> {
        serde_json::from_str(s)
    }

    /// Measured table storage in bytes (actual, not the Eq. 23 estimate).
    pub fn storage_bytes(&self) -> u64 {
        self.input_linear.storage_bytes()
            + self.input_ln.storage_bytes()
            + self.blocks.iter().map(TabularEncoderBlock::storage_bytes).sum::<u64>()
            + self.output_linear.storage_bytes()
            + self.sigmoid.storage_bytes()
    }
}
