//! The hierarchy-of-tables predictor: a table-based mirror of the attention
//! model whose inference performs **no matrix multiplications** — only
//! encodings, table lookups, aggregations, LayerNorm arithmetic, residual
//! adds, and one LUT sigmoid (paper §IV, Algorithm 1).

use dart_nn::matrix::Matrix;
use dart_nn::model::ModelConfig;
use dart_pq::{AttentionTable, FusedFfnTable, LinearTable, SigmoidLut};
use serde::{Deserialize, Serialize};

/// Rows [`ExactLayerNorm::apply`] normalises together: enough independent
/// sums in flight to cover a float add's latency.
const LN_ROWS: usize = 8;

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
    ///
    /// A row's mean and variance are two serial `dim`-long float sums, so
    /// one row at a time is bound by add latency. Rows are taken
    /// `LN_ROWS` (8) at a time instead: each sum runs column-outer over the
    /// block, one independent chain per row, every row still adding its own
    /// columns left to right from `iter().sum()`'s identity — bit for bit
    /// what `apply_row`, which handles the tail rows, computes.
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let dim = self.gamma.len();
        assert_eq!(x.cols(), dim, "LayerNorm dim mismatch");
        let mut out = Matrix::zeros(x.rows(), dim);
        // Whatever `iter().sum()` starts a row from (`-0.0` on current
        // toolchains, `0.0` on older ones): the block sums start there too.
        let identity: f32 = std::iter::empty::<f32>().sum();
        let mut r = 0;
        while r + LN_ROWS <= x.rows() {
            let rows: [&[f32]; LN_ROWS] = std::array::from_fn(|l| x.row(r + l));
            let mut sum = [identity; LN_ROWS];
            for c in 0..dim {
                for (s, row) in sum.iter_mut().zip(rows) {
                    *s += row[c];
                }
            }
            let mean = sum.map(|s| s / dim as f32);
            let mut sq = [identity; LN_ROWS];
            for c in 0..dim {
                for ((s, row), m) in sq.iter_mut().zip(rows).zip(mean) {
                    *s += (row[c] - m) * (row[c] - m);
                }
            }
            let inv = sq.map(|s| 1.0 / (s / dim as f32 + self.eps).sqrt());
            for (l, row) in rows.into_iter().enumerate() {
                self.normalise_row(row, mean[l], inv[l], out.row_mut(r + l));
            }
            r += LN_ROWS;
        }
        for r in r..x.rows() {
            self.apply_row(x.row(r), out.row_mut(r));
        }
        out
    }

    /// One row on its own: the definition [`Self::apply`]'s blocks must
    /// reproduce, and its path for the rows past the last whole block.
    fn apply_row(&self, row: &[f32], orow: &mut [f32]) {
        let dim = row.len() as f32;
        let mean = row.iter().sum::<f32>() / dim;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / dim;
        self.normalise_row(row, mean, 1.0 / (var + self.eps).sqrt(), orow);
    }

    fn normalise_row(&self, row: &[f32], mean: f32, inv: f32, orow: &mut [f32]) {
        for (((o, &v), &g), &b) in orow.iter_mut().zip(row).zip(&self.gamma).zip(&self.beta) {
            *o = g * (v - mean) * inv + b;
        }
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
    /// Forward one stacked batch (`(batch*T) x D`): [`Self::project`] then
    /// [`Self::mix`].
    ///
    /// Every kernel runs its batched path: the QKV/out/FFN linear kernels
    /// aggregate subspace-major over the whole batch, and each attention
    /// head processes all samples in one call with shared scratch buffers.
    pub fn forward(&self, x: &Matrix, seq_len: usize) -> Matrix {
        let (v, qk_codes) = self.project(x);
        self.mix(x, &v, &qk_codes, seq_len)
    }

    /// Q and K codes [`Self::project`] writes per row: every head's `C_k`
    /// Q codes then its `C_k` K codes, heads in order.
    pub fn code_width(&self) -> usize {
        self.heads.iter().map(|head| 2 * head.qk_subspaces()).sum()
    }

    /// The per-token-pure half of the block: LN1, the QKV projection and
    /// each head's Q / K row encodes. Row `r` of the V projection
    /// (`rows x D`) and of the codes (`rows x code_width`) depends on row
    /// `r` of `x` alone.
    fn project(&self, x: &Matrix) -> (Matrix, Vec<u16>) {
        let dim = x.cols();
        let dh = dim / self.heads.len();
        let rows = x.rows();

        let a = self.ln1.apply(x);
        let qkv = self.qkv.query(&a);
        let width = self.code_width();
        let mut codes = vec![0u16; rows * width];
        let mut at = 0;
        for (h, head) in self.heads.iter().enumerate() {
            let qs = qkv.slice_cols(h * dh, (h + 1) * dh);
            let ks = qkv.slice_cols(dim + h * dh, dim + (h + 1) * dh);
            head.encode_qk_rows(&qs, &ks, &mut codes, width, at);
            at += 2 * head.qk_subspaces();
        }
        (qkv.slice_cols(2 * dim, 3 * dim), codes)
    }

    /// The window-mixing half: attention over each `seq_len`-row window of
    /// the projected rows, the output projection, the residual, LN2 and
    /// the FFN. Each head reads its codes and its V columns where
    /// [`Self::project`] left them and writes its columns of the concat
    /// matrix in place.
    fn mix(&self, x: &Matrix, v: &Matrix, qk_codes: &[u16], seq_len: usize) -> Matrix {
        let dim = x.cols();
        let dh = dim / self.heads.len();
        let rows = x.rows();
        let width = self.code_width();
        debug_assert_eq!(rows % seq_len, 0, "rows not divisible by seq_len");
        assert_eq!(v.shape(), x.shape(), "V shape mismatch");

        let mut concat = Matrix::zeros(rows, dim);
        let mut at = 0;
        for (h, head) in self.heads.iter().enumerate() {
            head.query_batch_coded(qk_codes, width, at, v, h * dh, &mut concat);
            at += 2 * head.qk_subspaces();
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

/// What the forward knows about each token on its own, before any window
/// mixes them: the output of [`TabularModel::encode_tokens`] and the input
/// of [`TabularModel::predict_tokens`]. Row `r` of every field is a pure
/// function of feature row `r` — the model has no positional encoding — so
/// a caller sliding a window over an access stream computes each token's
/// row once and keeps it (see [`crate::TokenRing`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TokenRows {
    /// Hidden rows after the input projection and its LayerNorm, `rows x D`.
    pub hidden: Matrix,
    /// Block 0's V projection of those rows, `rows x D` (`rows x 0` for a
    /// model without blocks).
    pub value: Matrix,
    /// Block 0's Q and K codes, `rows x code_width` row-major in the order
    /// of [`TabularEncoderBlock::code_width`].
    pub qk_codes: Vec<u16>,
    /// Codes per row.
    pub code_width: usize,
}

impl TokenRows {
    /// Zeroed rows of the shape `model` encodes to.
    pub fn zeros(model: &TabularModel, rows: usize) -> TokenRows {
        let value_dim = if model.blocks.is_empty() { 0 } else { model.config.dim };
        let code_width = model.token_code_width();
        TokenRows {
            hidden: Matrix::zeros(rows, model.config.dim),
            value: Matrix::zeros(rows, value_dim),
            qk_codes: vec![0; rows * code_width],
            code_width,
        }
    }

    /// Number of token rows.
    pub fn rows(&self) -> usize {
        self.hidden.rows()
    }

    /// Grow (zero rows) or shrink to `rows` rows in place, keeping the
    /// leading rows and the buffers: how a caller stacking windows sizes
    /// its staging for a batch and then cuts it to the windows it filled.
    pub fn resize_rows(&mut self, rows: usize) {
        for m in [&mut self.hidden, &mut self.value] {
            let cols = m.cols();
            let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_vec();
            data.resize(rows * cols, 0.0);
            *m = Matrix::from_vec(rows, cols, data);
        }
        self.qk_codes.resize(rows * self.code_width, 0);
    }
}

impl TabularModel {
    /// Q and K codes per token row ([`TokenRows::qk_codes`]): block 0's
    /// [`TabularEncoderBlock::code_width`].
    pub fn token_code_width(&self) -> usize {
        self.blocks.first().map_or(0, TabularEncoderBlock::code_width)
    }

    /// The per-token-pure prefix of the forward: input projection, its
    /// LayerNorm, and block 0's LN1, QKV projection and Q / K encodes, over
    /// feature rows `x` (`rows x D_I`, any number of rows).
    pub fn encode_tokens(&self, x: &Matrix) -> TokenRows {
        assert_eq!(x.cols(), self.config.input_dim, "input dim mismatch");
        let hidden = self.input_ln.apply(&self.input_linear.query(x));
        let (value, qk_codes) = match self.blocks.first() {
            Some(first) => first.project(&hidden),
            None => (Matrix::zeros(x.rows(), 0), Vec::new()),
        };
        TokenRows { hidden, value, qk_codes, code_width: self.token_code_width() }
    }

    /// Per-token hidden rows after the whole encoder stack: block 0 mixes
    /// the already-projected rows, later blocks run in full.
    fn mix_tokens(&self, tokens: &TokenRows) -> Matrix {
        let t = self.config.seq_len;
        assert_eq!(
            tokens.rows() % t,
            0,
            "{} token rows not divisible by seq_len {t}",
            tokens.rows()
        );
        let Some((first, rest)) = self.blocks.split_first() else {
            return tokens.hidden.clone();
        };
        let mut h = first.mix(&tokens.hidden, &tokens.value, &tokens.qk_codes, t);
        for blk in rest {
            h = blk.forward(&h, t);
        }
        h
    }

    /// Pooled pre-sigmoid logits of stacked windows of token rows: the
    /// output projection and the mean over each window in one kernel
    /// ([`LinearTable::query_pooled`]), which never holds more per-token
    /// rows than one tile.
    fn logits_of_tokens(&self, tokens: &TokenRows) -> Matrix {
        self.output_linear.query_pooled(&self.mix_tokens(tokens), self.config.seq_len)
    }

    /// The window-mixing suffix of the forward: `tokens` holds `B` stacked
    /// windows of `seq_len` token rows each (rows `[n*seq_len,
    /// (n+1)*seq_len)` are window `n`, oldest first); returns `B x D_O`
    /// bitmap probabilities. `predict_tokens(&encode_tokens(x))` is
    /// [`Self::predict_batch`]`(x)` — that is its definition — and because
    /// every kernel accumulates per row, rows encoded in one call may be
    /// regrouped into the windows of another without changing a bit.
    pub fn predict_tokens(&self, tokens: &TokenRows) -> Matrix {
        let mut logits = self.logits_of_tokens(tokens);
        self.sigmoid.apply(logits.as_mut_slice());
        logits
    }

    /// Per-token hidden representation, pre-head (for layer diagnostics).
    pub fn encode(&self, x: &Matrix) -> Matrix {
        self.mix_tokens(&self.encode_tokens(x))
    }

    /// Pooled pre-sigmoid logits (`batch x D_O`).
    pub fn forward_logits(&self, x: &Matrix) -> Matrix {
        self.logits_of_tokens(&self.encode_tokens(x))
    }

    /// Bitmap probabilities via the sigmoid LUT (`batch x D_O`).
    pub fn forward_probs(&self, x: &Matrix) -> Matrix {
        self.predict_tokens(&self.encode_tokens(x))
    }

    /// Batched prediction over `B` stacked samples.
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

    /// Content fingerprint: FNV-1a over the bytes of the canonical
    /// [`Self::to_json`] serialization. Bit-identical models — e.g. a
    /// `clone` — share a fingerprint; any table-entry or config change
    /// alters it. Used by `dart-serve`'s model registry to distinguish a
    /// no-op hot-swap from a real model change. The text is streamed
    /// through the hash and never held or parsed back (`to_json`'s
    /// load-back guard belongs to writing a file, not to naming a model),
    /// but the whole model is still walked: a registry / admin-path
    /// operation, not a serving-path one.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv1a(u64);
        impl std::fmt::Write for Fnv1a {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for &b in s.as_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
                }
                Ok(())
            }
        }
        let mut hash = Fnv1a(0xcbf29ce484222325);
        serde_json::to_writer(&mut hash, self).expect("the hash sink accepts every write");
        hash.0
    }

    /// Load a model serialized by [`Self::to_json`]. f32 entries survive
    /// the round trip bit-for-bit (JSON numbers are f64, and f32 -> f64 is
    /// exact). A file whose parts each parse but do not fit together is an
    /// `Err` here ([`Self::validate`]), not a shape panic at the first
    /// query.
    pub fn from_json(s: &str) -> serde_json::Result<TabularModel> {
        let model: TabularModel = serde_json::from_str(s)?;
        model.validate().map_err(serde_json::Error)?;
        Ok(model)
    }

    /// Check every agreement between parts that the forward indexes by and
    /// that deserialization — field by field — cannot see: layer widths
    /// against [`Self::config`], every quantizer against its codebook and
    /// table ([`LinearTable::validate`], [`AttentionTable::validate`]),
    /// `heads * d_k == dim`, every head built for `config.seq_len`, and
    /// prototype counts that fit the `u16` codes of [`TokenRows`]. A model
    /// that passes cannot panic a kernel on a well-shaped input.
    pub fn validate(&self) -> Result<(), String> {
        let c = &self.config;
        if c.input_dim == 0 || c.dim == 0 || c.heads == 0 || c.seq_len == 0 || c.output_dim == 0 {
            return Err(format!("zero-sized dimension in {c:?}"));
        }
        if self.blocks.len() != c.layers {
            return Err(format!("{} blocks, config says {} layers", self.blocks.len(), c.layers));
        }
        let linear = |name: &str, table: &LinearTable, inp: usize, out: usize| {
            table.validate().map_err(|e| format!("{name}: {e}"))?;
            if (table.in_dim(), table.out_dim()) != (inp, out) {
                return Err(format!(
                    "{name} maps {} -> {}, config needs {inp} -> {out}",
                    table.in_dim(),
                    table.out_dim()
                ));
            }
            Ok(())
        };
        let layer_norm = |name: &str, ln: &ExactLayerNorm| {
            if ln.gamma.len() != c.dim || ln.beta.len() != c.dim {
                return Err(format!(
                    "{name} has {} scales and {} shifts for dim {}",
                    ln.gamma.len(),
                    ln.beta.len(),
                    c.dim
                ));
            }
            Ok(())
        };
        linear("input_linear", &self.input_linear, c.input_dim, c.dim)?;
        layer_norm("input_ln", &self.input_ln)?;
        for (b, blk) in self.blocks.iter().enumerate() {
            layer_norm(&format!("block {b} ln1"), &blk.ln1)?;
            layer_norm(&format!("block {b} ln2"), &blk.ln2)?;
            linear(&format!("block {b} qkv"), &blk.qkv, c.dim, 3 * c.dim)?;
            linear(&format!("block {b} out"), &blk.out, c.dim, c.dim)?;
            if blk.heads.len() != c.heads {
                return Err(format!("block {b} has {} heads, config {}", blk.heads.len(), c.heads));
            }
            for (h, head) in blk.heads.iter().enumerate() {
                head.validate().map_err(|e| format!("block {b} head {h}: {e}"))?;
                if head.seq_len() != c.seq_len || head.head_dim() * c.heads != c.dim {
                    return Err(format!(
                        "block {b} head {h} is built for seq_len {} and d_k {}, config needs \
                         seq_len {} and {} heads over dim {}",
                        head.seq_len(),
                        head.head_dim(),
                        c.seq_len,
                        c.heads,
                        c.dim
                    ));
                }
            }
            match &blk.ffn {
                FfnTables::TwoKernel { hidden, out } => {
                    linear(&format!("block {b} ffn hidden"), hidden, c.dim, c.ffn_dim)?;
                    linear(&format!("block {b} ffn out"), out, c.ffn_dim, c.dim)?;
                }
                FfnTables::Fused(fused) => {
                    fused.validate().map_err(|e| format!("block {b} fused ffn: {e}"))?;
                    if (fused.in_dim(), fused.out_dim()) != (c.dim, c.dim) {
                        return Err(format!(
                            "block {b} fused ffn maps {} -> {}, config dim is {}",
                            fused.in_dim(),
                            fused.out_dim(),
                            c.dim
                        ));
                    }
                }
            }
        }
        linear("output_linear", &self.output_linear, c.dim, c.output_dim)?;
        if self.sigmoid.len() < 2 {
            return Err(format!("sigmoid table holds {} entries", self.sigmoid.len()));
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TabularConfig;
    use crate::tabularize::tabularize;
    use dart_nn::init::InitRng;
    use dart_nn::model::AccessPredictor;
    use dart_pq::EncoderKind;
    use serde_json::Value;

    fn tiny_model() -> TabularModel {
        tiny_model_with(TabularConfig::default().encoder)
    }

    fn tiny_model_with(encoder: EncoderKind) -> TabularModel {
        let cfg = ModelConfig {
            input_dim: 6,
            dim: 8,
            heads: 2,
            layers: 1,
            ffn_dim: 16,
            output_dim: 5,
            seq_len: 4,
        };
        let student = AccessPredictor::new(cfg, 3).unwrap();
        let mut rng = InitRng::new(9);
        let x = Matrix::from_fn(40 * 4, 6, |_, _| rng.next_f32());
        let tab = TabularConfig { k: 8, c: 2, encoder, fine_tune_epochs: 0, ..Default::default() };
        tabularize(&student, &x, &tab).0
    }

    /// First value stored under `key`, depth first in field order.
    fn find_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
        match v {
            Value::Object(fields) => {
                for (name, value) in fields {
                    if name == key {
                        return Some(value);
                    }
                    if let Some(found) = find_mut(value, key) {
                        return Some(found);
                    }
                }
                None
            }
            Value::Array(items) => items.iter_mut().find_map(|item| find_mut(item, key)),
            _ => None,
        }
    }

    /// The model's JSON with one edit applied, loaded back.
    fn load_edited(edit: impl FnOnce(&mut Value)) -> Result<TabularModel, String> {
        let mut json: Value = serde_json::from_str(&tiny_model().to_json()).unwrap();
        edit(&mut json);
        TabularModel::from_json(&serde_json::to_string(&json).unwrap()).map_err(|e| e.0)
    }

    /// `ExactLayerNorm::apply` on 1..=17 rows — no block, one block, two
    /// blocks, each with and without tail rows — is, bit for bit, the
    /// per-row formula: two `iter().sum()` folds and the affine map.
    /// Planted rows: all `-0.0` (the sum's identity shows in the mean's
    /// sign), one NaN (must poison its own row only), a constant row
    /// (variance 0: `inv` is `1 / sqrt(eps)`).
    #[test]
    fn layer_norm_blocks_equal_the_per_row_formula() {
        let dim = 32;
        let mut rng = InitRng::new(0x17);
        let ln = ExactLayerNorm {
            gamma: (0..dim).map(|_| rng.normal()).collect(),
            // A `-0.0` shift keeps the sign of a zero product visible.
            beta: (0..dim).map(|c| if c % 5 == 0 { -0.0 } else { rng.normal() }).collect(),
            eps: 1e-5,
        };
        for rows in 1..=17usize {
            let mut x = Matrix::from_fn(rows, dim, |_, _| rng.normal() * 3.0);
            for (r, plant) in [(0, -0.0f32), (8, 2.5)] {
                if r < rows {
                    x.row_mut(r).fill(plant);
                }
            }
            if rows > 3 {
                x.set(rows - 2, 7, f32::NAN);
            }
            let got = ln.apply(&x);
            for r in 0..rows {
                let row = x.row(r);
                let mean = row.iter().sum::<f32>() / dim as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
                let inv = 1.0 / (var + ln.eps).sqrt();
                for (c, ((&v, &g), &b)) in row.iter().zip(&ln.gamma).zip(&ln.beta).enumerate() {
                    let want = g * (v - mean) * inv + b;
                    assert_eq!(got.get(r, c).to_bits(), want.to_bits(), "{rows} rows: ({r}, {c})");
                }
            }
            if rows > 3 {
                assert!(got.row(rows - 2).iter().all(|v| v.is_nan()));
                assert!(got.row(rows - 3).iter().all(|v| !v.is_nan()), "NaN left its row");
            }
        }
    }

    #[test]
    fn a_tabularized_model_validates_and_round_trips() {
        let model = tiny_model();
        assert_eq!(model.validate(), Ok(()));
        assert_eq!(load_edited(|_| {}).unwrap().fingerprint(), model.fingerprint());
    }

    /// The fingerprint is defined by the serialized text — FNV-1a over the
    /// bytes `to_json` returns — though computing it never builds that text.
    #[test]
    fn fingerprint_is_fnv1a_over_the_json_bytes() {
        for encoder in [EncoderKind::Argmin, EncoderKind::HashTree] {
            let model = tiny_model_with(encoder);
            let over_text = model
                .to_json()
                .bytes()
                .fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
            assert_eq!(model.fingerprint(), over_text, "{encoder:?}");
        }
        // The value this model had while `fingerprint` still built the text
        // (and argmin was the default encoder): registries keep theirs.
        assert_eq!(tiny_model_with(EncoderKind::Argmin).fingerprint(), 0xeeb5_3da8_d387_1615);
    }

    /// Each edit leaves every part parseable on its own — these files
    /// used to load and then panic a kernel at query time.
    #[test]
    fn parts_that_do_not_fit_together_are_a_load_error() {
        // input_linear's quantizer: 6 dims as 3 + 3 → bounds 2 + 4.
        let err = load_edited(|json| {
            *find_mut(json, "bounds").unwrap() =
                serde_json::to_value(vec![(0, 2), (2, 6)]).unwrap();
        })
        .unwrap_err();
        assert!(err.contains("input_linear") && err.contains("codebook"), "{err}");

        // input_linear's table: 2 x 8 x 8 entries read as 2 x 4 x 16.
        let err = load_edited(|json| {
            let table = find_mut(json, "table").unwrap();
            *find_mut(table, "protos").unwrap() = Value::Number(4.0);
            *find_mut(table, "width").unwrap() = Value::Number(16.0);
        })
        .unwrap_err();
        assert!(err.contains("input_linear: table is 2 x 4 x 16"), "{err}");

        // Layer widths against the config.
        let err = load_edited(|json| {
            let Value::Object(fields) = json else { unreachable!() };
            let at = |name: &str| fields.iter().position(|(n, _)| n == name).unwrap();
            let (a, b) = (at("input_linear"), at("output_linear"));
            let (first, second) = (fields[a].1.clone(), fields[b].1.clone());
            (fields[a].1, fields[b].1) = (second, first);
        })
        .unwrap_err();
        assert!(err.contains("input_linear maps 8 -> 5, config needs 6 -> 8"), "{err}");

        let err =
            load_edited(|json| *find_mut(json, "heads").unwrap() = Value::Number(4.0)).unwrap_err();
        assert!(err.contains("has 2 heads, config 4"), "{err}");

        // Every head is built for one window length: the ring's, too.
        let err = load_edited(|json| *find_mut(json, "seq_len").unwrap() = Value::Number(5.0))
            .unwrap_err();
        assert!(err.contains("built for seq_len 4"), "{err}");
    }
}
