//! The **attention kernel** (paper §V-B, Eq. 12–15): tabularized scaled
//! dot-product attention for a single head.
//!
//! Because attention has no fixed weight matrix, both operands of each
//! product are quantized and the tables hold *pairwise* prototype dot
//! products:
//!
//! 1. **QK table** (Eq. 12): prototypes are learned for Q rows and K rows
//!    over the `D_k` dimension (`C_k` subspaces); entry `(c, i, j)` stores
//!    `p_c(Q̃)_i · p_c(K̃)_j`. Querying (Eq. 13) reconstructs `Q̂K^T`.
//! 2. **Second quantization** (the paper's fix for the `K^3` blow-up): the
//!    *approximated* `Q̃K^T` rows produced on the training set are themselves
//!    quantized over the `T` dimension (`C_t` subspaces).
//! 3. **QKV table** (Eq. 14): scaling by `1/sqrt(D_k)` and the activation are
//!    applied **to the prototypes at training time**, then dotted against
//!    V-column prototypes, so the query needs no arithmetic beyond
//!    aggregation (Eq. 15).
//!
//! Faithful quirk: Eq. 14 uses an element-wise `Sigmoid`, not `Softmax` — a
//! true softmax cannot be evaluated per-subspace. We default to the paper's
//! sigmoid and offer [`AttentionActivation::SoftmaxPerSubspace`] as an
//! ablation (normalizing within each subspace slice).

use dart_nn::matrix::{dot, softmax_in_place, Matrix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::arena::TableArena;
use crate::quantizer::{EncoderKind, ProductQuantizer, ENCODE_TILE_ROWS};
use crate::simd::scalar::{gather_add, gather_init};

/// Samples per tile of the batched attention query: each tile reuses one
/// set of encode/scratch buffers across its samples and tiles run
/// rayon-parallel over disjoint output rows.
pub const ATTN_TILE_SAMPLES: usize = 8;

/// Activation folded into the QKV-table prototypes (paper Eq. 14).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttentionActivation {
    /// Element-wise `sigmoid(x / sqrt(D_k))` — the paper's Eq. 14.
    SigmoidScaled,
    /// Softmax normalized within each `T`-dimension subspace slice — an
    /// ablation approximating the exact softmax when `C_t` is small.
    SoftmaxPerSubspace,
}

/// Configuration of an attention kernel.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AttentionTableConfig {
    /// Prototypes per subspace `K`.
    pub k: usize,
    /// Subspaces over the head dimension `D_k` (for Q/K inputs), `C_k`.
    pub ck: usize,
    /// Subspaces over the sequence dimension `T` (for `QK^T` rows and V
    /// columns), `C_t`.
    pub ct: usize,
    /// Encoder used by all four quantizers (Q, K, `Q̂K^T` rows, V columns).
    /// Defaults to [`EncoderKind::HashTree`]; [`EncoderKind::Argmin`] is the
    /// exact-scan ablation.
    pub encoder: EncoderKind,
    /// Activation folded into the QKV prototypes.
    pub activation: AttentionActivation,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for AttentionTableConfig {
    fn default() -> Self {
        AttentionTableConfig {
            k: 16,
            ck: 2,
            ct: 2,
            encoder: EncoderKind::HashTree,
            activation: AttentionActivation::SigmoidScaled,
            seed: 0xA77,
        }
    }
}

/// A tabularized single-head attention operation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttentionTable {
    q_pq: ProductQuantizer,
    k_pq: ProductQuantizer,
    /// Flat arena of `C_k` sub-tables (`K x K` each) of pairwise Q·K
    /// prototype products.
    qk: TableArena,
    qkt_pq: ProductQuantizer,
    v_pq: ProductQuantizer,
    /// Flat arena of `C_t` sub-tables (`K x K` each) of products of
    /// activated `QK^T` prototypes with V-column prototypes.
    qkv: TableArena,
    seq_len: usize,
    dk: usize,
}

impl AttentionTable {
    /// Tabularize attention from training activations.
    ///
    /// `q_train`, `k_train`, `v_train` are stacked `(N*T) x D_k` matrices of
    /// the Q/K/V projections observed on the training set.
    pub fn fit(
        q_train: &Matrix,
        k_train: &Matrix,
        v_train: &Matrix,
        seq_len: usize,
        cfg: &AttentionTableConfig,
    ) -> AttentionTable {
        assert!(seq_len > 0);
        assert_eq!(q_train.shape(), k_train.shape());
        assert_eq!(q_train.shape(), v_train.shape());
        assert_eq!(q_train.rows() % seq_len, 0, "training rows not divisible by seq_len");
        let dk = q_train.cols();
        let n_samples = q_train.rows() / seq_len;

        // Step 1: prototypes for Q and K rows over D_k (Eq. 12).
        let q_pq = ProductQuantizer::fit(q_train, cfg.ck, cfg.k, cfg.encoder, cfg.seed);
        let k_pq =
            ProductQuantizer::fit(k_train, cfg.ck, cfg.k, cfg.encoder, cfg.seed.wrapping_add(1));
        let qk_tables = pairwise_tables(&q_pq, &k_pq);

        // Step 2: generate the table-approximated Q̃K^T on the training set
        // and quantize its rows over the T dimension.
        let qkt_rows: Vec<Matrix> = (0..n_samples)
            .into_par_iter()
            .map(|n| {
                let qs = q_train.slice_rows(n * seq_len, (n + 1) * seq_len);
                let ks = k_train.slice_rows(n * seq_len, (n + 1) * seq_len);
                lookup_qk(&q_pq, &k_pq, &qk_tables, &qs, &ks)
            })
            .collect();
        let qkt_train = Matrix::vstack(&qkt_rows);
        let qkt_pq =
            ProductQuantizer::fit(&qkt_train, cfg.ct, cfg.k, cfg.encoder, cfg.seed.wrapping_add(2));

        // V columns: reshape (N*T) x D_k into (N*D_k) x T (each row is one
        // sample's V column, the paper's Ṽ^T).
        let mut v_cols = Matrix::zeros(n_samples * dk, seq_len);
        for n in 0..n_samples {
            for o in 0..dk {
                let dst = v_cols.row_mut(n * dk + o);
                for (t, slot) in dst.iter_mut().enumerate() {
                    *slot = v_train.get(n * seq_len + t, o);
                }
            }
        }
        let v_pq =
            ProductQuantizer::fit(&v_cols, cfg.ct, cfg.k, cfg.encoder, cfg.seed.wrapping_add(3));

        // Step 3: QKV table with scaling + activation folded into the
        // QK^T-row prototypes (Eq. 14).
        let scale = 1.0 / (dk as f32).sqrt();
        let activation = cfg.activation;
        let qkv_tables = pairwise_tables_transform(&qkt_pq, &v_pq, |proto| {
            let mut p: Vec<f32> = proto.iter().map(|&x| x * scale).collect();
            match activation {
                AttentionActivation::SigmoidScaled => {
                    for x in &mut p {
                        *x = 1.0 / (1.0 + (-*x).exp());
                    }
                }
                AttentionActivation::SoftmaxPerSubspace => softmax_in_place(&mut p),
            }
            p
        });

        AttentionTable { q_pq, k_pq, qk: qk_tables, qkt_pq, v_pq, qkv: qkv_tables, seq_len, dk }
    }

    /// Check the agreements the query indexes by, which a model file can
    /// break: four consistent quantizers (Q and K over `D_k`, Q̂K^T rows and
    /// V columns over `T`, pairwise equal subspace counts), pairwise tables
    /// of matching shape, and a Q / K prototype count small enough for the
    /// `u16` codes of [`Self::encode_qk_rows`].
    pub fn validate(&self) -> Result<(), String> {
        let pairs = [
            ("QK", &self.q_pq, &self.k_pq, &self.qk, self.dk),
            ("QKV", &self.qkt_pq, &self.v_pq, &self.qkv, self.seq_len),
        ];
        for (name, a, b, table, dim) in pairs {
            a.validate().map_err(|e| format!("{name} row quantizer: {e}"))?;
            b.validate().map_err(|e| format!("{name} column quantizer: {e}"))?;
            if a.dim() != dim || b.dim() != dim || a.num_subspaces() != b.num_subspaces() {
                return Err(format!(
                    "{name} quantizers are {}-dim / {} subspaces and {}-dim / {} subspaces, \
                     want {dim}-dim and equal subspaces",
                    a.dim(),
                    a.num_subspaces(),
                    b.dim(),
                    b.num_subspaces()
                ));
            }
            let want = (a.num_subspaces(), a.num_protos(), b.num_protos());
            let got = (table.num_subspaces(), table.num_protos(), table.width());
            if got != want {
                return Err(format!(
                    "{name} table is {} x {} x {}, its quantizers need {} x {} x {}",
                    got.0, got.1, got.2, want.0, want.1, want.2
                ));
            }
        }
        if self.q_pq.num_protos().max(self.k_pq.num_protos()) > usize::from(u16::MAX) {
            return Err(format!("QK quantizers hold more than {} prototypes", u16::MAX));
        }
        Ok(())
    }

    /// Sequence length `T`.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Head dimension `D_k`.
    pub fn head_dim(&self) -> usize {
        self.dk
    }

    /// Approximate `activation(QK^T / sqrt(D_k)) V` for one sample
    /// (`q`,`k`,`v` are `T x D_k`) using only table lookups (Eq. 13 + 15).
    pub fn query(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        assert_eq!(q.shape(), (self.seq_len, self.dk), "Q shape mismatch");
        self.query_batch(q, k, v)
    }

    /// Subspaces over the head dimension (`C_k`): the Q codes, and the K
    /// codes, one row encodes to.
    pub fn qk_subspaces(&self) -> usize {
        self.q_pq.num_subspaces()
    }

    /// Batched attention over `B` stacked samples (`q`/`k`/`v` are
    /// `(B*T) x D_k`): [`Self::encode_qk_rows`] then
    /// [`Self::query_batch_coded`] on one code row per input row — the
    /// multi-sample counterpart of [`Self::query`], bit-for-bit equal to
    /// querying each sample individually.
    pub fn query_batch(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        assert_eq!(k.shape(), q.shape());
        assert_eq!(v.cols(), self.dk, "V shape mismatch");
        let width = 2 * self.qk_subspaces();
        let mut codes = vec![0u16; q.rows() * width];
        self.encode_qk_rows(q, k, &mut codes, width, 0);
        let mut out = Matrix::zeros(v.rows(), self.dk);
        self.query_batch_coded(&codes, width, 0, v, 0, &mut out);
        out
    }

    /// The per-row half of the attention query: encode every Q row and
    /// every K row (`R x D_k` each) into `C_k` prototype codes each, written
    /// in place into rows of `width` codes (row `r` at `r * width`): Q codes
    /// at `[at, at + C_k)`, K codes at `[at + C_k, at + 2 C_k)`. A row's
    /// codes depend on that row alone, so a caller that sees the same row
    /// again (a sliding window) can keep them. Each encode is its
    /// quantizer's own — hash-tree walks in lane blocks
    /// (`ProductQuantizer::encode_run`), or for an argmin table the
    /// process-wide dispatched scan (`simd::nearest_dim_major`); row tiles
    /// run rayon-parallel.
    pub fn encode_qk_rows(
        &self,
        q: &Matrix,
        k: &Matrix,
        codes: &mut [u16],
        width: usize,
        at: usize,
    ) {
        let nearest = crate::simd::nearest_dim_major();
        let ck = self.qk_subspaces();
        assert_eq!(q.cols(), self.dk, "Q shape mismatch");
        assert_eq!(k.shape(), q.shape());
        assert!(at + 2 * ck <= width, "code row too narrow");
        assert_eq!(codes.len(), q.rows() * width, "code buffer size mismatch");
        let protos = self.q_pq.num_protos().max(self.k_pq.num_protos());
        assert!(protos <= usize::from(u16::MAX), "codes do not fit u16");
        codes.par_chunks_mut(ENCODE_TILE_ROWS * width).enumerate().for_each(|(tile, codes)| {
            let r0 = tile * ENCODE_TILE_ROWS;
            let rows = codes.len() / width;
            for (pq, x, first) in [(&self.q_pq, q, at), (&self.k_pq, k, at + ck)] {
                for (ci, &(lo, hi)) in pq.bounds().iter().enumerate() {
                    pq.encode_run(
                        ci,
                        rows,
                        nearest,
                        |rr| &x.row(r0 + rr)[lo..hi],
                        |rr, code| codes[rr * width + first + ci] = code as u16,
                    );
                }
            }
        });
    }

    /// The window-mixing half of the attention query, and the one
    /// attention kernel: `B` stacked samples whose Q and K rows are already
    /// encoded, read and written in place. `codes` holds one row of `width`
    /// codes per input row, laid out as [`Self::encode_qk_rows`] writes
    /// them (this head's Q codes at `at`, its K codes at `at + C_k`); the
    /// head's V rows are columns `[col, col + D_k)` of `v`, and its output
    /// goes to the same columns of `out` (both `(B*T) x` any width), so a
    /// block's heads share the V matrix and the concat matrix with no
    /// per-head copy. Nothing else of `out` is touched. Tiled by
    /// [`ATTN_TILE_SAMPLES`]; tiles run rayon-parallel over disjoint output
    /// rows, each on its own slice of two per-call scratch buffers (floats
    /// and codes).
    ///
    /// Each sample's V block is transposed once into the tile scratch
    /// (`D_k x T`), so its columns are contiguous subvectors and both of
    /// this half's encodes — V columns and Q̂K^T rows — are
    /// `ProductQuantizer::encode_run`s over a stride-`T` block; a Q̂K^T
    /// row's code is consumed where it is produced (its QKV-table row is
    /// gathered into the output row at once).
    ///
    /// K-row and V-column codes are staged **subspace-major** as `i32`
    /// (`codes_t[ci * lanes + lane]`), so each `(t1, ci)` / `(t1, c)` pass
    /// is one gather-accumulate over contiguous indices: lane `t2` (QK) or
    /// lane `o` (QKV) reads `table_row[idx[lane]]` and accumulates in
    /// subspace order — exactly the `acc += table.get(..)` loop of a
    /// per-sample query.
    pub fn query_batch_coded(
        &self,
        codes: &[u16],
        width: usize,
        at: usize,
        v: &Matrix,
        col: usize,
        out: &mut Matrix,
    ) {
        let nearest = crate::simd::nearest_dim_major();
        let t = self.seq_len;
        let ck = self.qk_subspaces();
        let ct = self.qkt_pq.num_subspaces();
        let dk = self.dk;
        let rows = v.rows();
        let out_cols = out.cols();
        assert!(col + dk <= v.cols(), "V shape mismatch");
        assert!(col + dk <= out_cols, "output shape mismatch");
        assert_eq!(out.rows(), rows, "output shape mismatch");
        assert_eq!(rows % t, 0, "rows not divisible by seq_len");
        assert!(at + 2 * ck <= width, "code row too narrow");
        assert_eq!(codes.len(), rows * width, "code buffer size mismatch");
        crate::profile::profile_kernel("attention_query", rows as u64);
        let qk_width = self.qk.width();
        let qkv_width = self.qkv.width();

        let sample_span = t * out_cols;
        // Per-tile scratch, one slice of each buffer per tile. Floats:
        // the `T x T` Q̂K^T block, then the sample's V block transposed
        // (`D_k x T`: column `o` at `o * t`). Codes, subspace-major
        // `i32`: K rows (row `t2` under subspace `ci` at `ci * t + t2`),
        // then V columns (column `o` under subspace `c` at `c * dk + o`).
        let tiles = (rows / t).div_ceil(ATTN_TILE_SAMPLES);
        let (tile_floats, tile_codes) = (t * t + dk * t, ck * t + ct * dk);
        let mut floats = vec![0.0f32; tiles * tile_floats];
        let mut scratch_codes = vec![0i32; tiles * tile_codes];
        out.as_mut_slice()
            .par_chunks_mut(ATTN_TILE_SAMPLES * sample_span)
            .zip(floats.par_chunks_mut(tile_floats))
            .zip(scratch_codes.par_chunks_mut(tile_codes))
            .enumerate()
            .for_each(|(tile, ((ochunk, floats), scratch_codes))| {
                let n0 = tile * ATTN_TILE_SAMPLES;
                let (qkt, v_t) = floats.split_at_mut(t * t);
                let (k_codes_t, col_codes_t) = scratch_codes.split_at_mut(ck * t);

                for (s, osample) in ochunk.chunks_mut(sample_span).enumerate() {
                    let base = (n0 + s) * t;
                    let code_row = |r: usize| &codes[(base + r) * width + at..][..2 * ck];

                    // Stage 1: Q̂K^T via the QK table (Eq. 13).
                    for r in 0..t {
                        for (ci, &code) in code_row(r)[ck..].iter().enumerate() {
                            k_codes_t[ci * t + r] = i32::from(code);
                        }
                    }
                    for (t1, orow) in qkt.chunks_mut(t).enumerate() {
                        for (ci, &qcode) in code_row(t1)[..ck].iter().enumerate() {
                            let qcode = usize::from(qcode);
                            let trow =
                                &self.qk.subtable(ci)[qcode * qk_width..(qcode + 1) * qk_width];
                            let idx = &k_codes_t[ci * t..(ci + 1) * t];
                            if ci == 0 {
                                gather_init(orow, trow, idx);
                            } else {
                                gather_add(orow, trow, idx);
                            }
                        }
                    }

                    // Stage 2: encode V columns, then Q̂K^T rows, each row's
                    // code aggregating the QKV table as it appears (Eq. 15).
                    // Subspace-outer: an output row still accumulates in
                    // subspace order 0, 1, ….
                    for tt in 0..t {
                        for (o, &x) in v.row(base + tt)[col..col + dk].iter().enumerate() {
                            v_t[o * t + tt] = x;
                        }
                    }
                    for (c, &(lo, hi)) in self.v_pq.bounds().iter().enumerate() {
                        self.v_pq.encode_run(
                            c,
                            dk,
                            nearest,
                            |o| &v_t[o * t + lo..o * t + hi],
                            |o, code| col_codes_t[c * dk + o] = code as i32,
                        );
                    }
                    for (c, &(lo, hi)) in self.qkt_pq.bounds().iter().enumerate() {
                        let idx = &col_codes_t[c * dk..(c + 1) * dk];
                        self.qkt_pq.encode_run(
                            c,
                            t,
                            nearest,
                            |t1| &qkt[t1 * t + lo..t1 * t + hi],
                            |t1, rcode| {
                                let orow = &mut osample[t1 * out_cols + col..][..dk];
                                let trow = &self.qkv.subtable(c)
                                    [rcode * qkv_width..(rcode + 1) * qkv_width];
                                if c == 0 {
                                    gather_init(orow, trow, idx);
                                } else {
                                    gather_add(orow, trow, idx);
                                }
                            },
                        );
                    }
                }
            });
    }

    /// Intermediate `Q̂K^T` (exposed for diagnostics and tests).
    pub fn query_qk(&self, q: &Matrix, k: &Matrix) -> Matrix {
        lookup_qk(&self.q_pq, &self.k_pq, &self.qk, q, k)
    }

    /// Table storage in bytes (QK + QKV tables, f32 entries).
    pub fn storage_bytes(&self) -> u64 {
        ((self.qk.len() + self.qkv.len()) * 4) as u64
    }
}

/// Build the arena of per-subspace `K x K` tables of pairwise prototype
/// dot products.
fn pairwise_tables(a: &ProductQuantizer, b: &ProductQuantizer) -> TableArena {
    pairwise_tables_transform(a, b, |p| p.to_vec())
}

/// Like [`pairwise_tables`] but applies `transform` to each `a`-prototype
/// before the dot product (used to fold scaling + activation, Eq. 14).
fn pairwise_tables_transform(
    a: &ProductQuantizer,
    b: &ProductQuantizer,
    transform: impl Fn(&[f32]) -> Vec<f32> + Sync,
) -> TableArena {
    assert_eq!(a.num_subspaces(), b.num_subspaces(), "subspace mismatch");
    let (ka, kb) = (a.num_protos(), b.num_protos());
    let mut arena = TableArena::zeros(a.num_subspaces(), ka, kb);
    arena.fill_subtables_parallel(|c, sub| {
        let b_protos: Vec<Vec<f32>> = (0..kb).map(|j| b.proto(c, j)).collect();
        for i in 0..ka {
            let ta = transform(&a.proto(c, i));
            let row = &mut sub[i * kb..(i + 1) * kb];
            for (slot, pb) in row.iter_mut().zip(&b_protos) {
                *slot = dot(&ta, pb);
            }
        }
    });
    arena
}

/// Reconstruct `Q̂K^T` for one sample via QK-table lookups (Eq. 13).
fn lookup_qk(
    q_pq: &ProductQuantizer,
    k_pq: &ProductQuantizer,
    qk: &TableArena,
    q: &Matrix,
    k: &Matrix,
) -> Matrix {
    let t = q.rows();
    let c = q_pq.num_subspaces();
    let mut q_codes = vec![0usize; t * c];
    let mut k_codes = vec![0usize; t * c];
    for r in 0..t {
        q_pq.encode_row_into(q.row(r), &mut q_codes[r * c..(r + 1) * c]);
        k_pq.encode_row_into(k.row(r), &mut k_codes[r * c..(r + 1) * c]);
    }
    let mut qkt = Matrix::zeros(t, t);
    for t1 in 0..t {
        let row = qkt.row_mut(t1);
        for (t2, slot) in row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for ci in 0..c {
                acc += qk.get(ci, q_codes[t1 * c + ci], k_codes[t2 * c + ci]);
            }
            *slot = acc;
        }
    }
    qkt
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::init::InitRng;

    fn rand_stack(samples: usize, t: usize, dk: usize, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        Matrix::from_fn(samples * t, dk, |_, _| rng.normal() * 0.5)
    }

    /// Reference "sigmoid attention": `sigmoid(QK^T / sqrt(dk)) V`.
    fn sigmoid_attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        let dk = q.cols() as f32;
        let mut s = q.matmul_transb(k);
        s.scale_assign(1.0 / dk.sqrt());
        let a = s.map(|x| 1.0 / (1.0 + (-x).exp()));
        a.matmul(v)
    }

    fn fit_default(
        samples: usize,
        t: usize,
        dk: usize,
        k: usize,
    ) -> (AttentionTable, Matrix, Matrix, Matrix) {
        fit_with(AttentionTableConfig::default().encoder, samples, t, dk, k)
    }

    fn fit_with(
        encoder: EncoderKind,
        samples: usize,
        t: usize,
        dk: usize,
        k: usize,
    ) -> (AttentionTable, Matrix, Matrix, Matrix) {
        let q = rand_stack(samples, t, dk, 100);
        let kk = rand_stack(samples, t, dk, 200);
        let v = rand_stack(samples, t, dk, 300);
        let cfg = AttentionTableConfig { k, ck: 2, ct: 2, encoder, ..Default::default() };
        let table = AttentionTable::fit(&q, &kk, &v, t, &cfg);
        (table, q, kk, v)
    }

    const BOTH_ENCODERS: [EncoderKind; 2] = [EncoderKind::HashTree, EncoderKind::Argmin];

    #[test]
    fn default_encoder_is_the_hash_tree() {
        assert_eq!(AttentionTableConfig::default().encoder, EncoderKind::HashTree);
    }

    #[test]
    fn query_shape() {
        let (table, q, k, v) = fit_default(20, 4, 8, 8);
        let out = table.query(&q.slice_rows(0, 4), &k.slice_rows(0, 4), &v.slice_rows(0, 4));
        assert_eq!(out.shape(), (4, 8));
    }

    #[test]
    fn qk_table_approximates_dot_products() {
        for encoder in BOTH_ENCODERS {
            let (table, q, k, _) = fit_with(encoder, 50, 4, 8, 64);
            let qs = q.slice_rows(0, 4);
            let ks = k.slice_rows(0, 4);
            let approx = table.query_qk(&qs, &ks);
            let exact = qs.matmul_transb(&ks);
            let err = approx.sub(&exact).frobenius_norm() / exact.frobenius_norm().max(1e-6);
            assert!(err < 0.6, "{encoder:?}: relative QK error {err}");
        }
    }

    #[test]
    fn more_prototypes_improve_qk_fidelity() {
        let q = rand_stack(80, 4, 8, 1);
        let k = rand_stack(80, 4, 8, 2);
        let v = rand_stack(80, 4, 8, 3);
        let mut errs = Vec::new();
        for kk in [4, 16, 128] {
            let cfg = AttentionTableConfig { k: kk, ck: 2, ct: 2, ..Default::default() };
            let table = AttentionTable::fit(&q, &k, &v, 4, &cfg);
            let qs = q.slice_rows(0, 4);
            let ks = k.slice_rows(0, 4);
            let err = table.query_qk(&qs, &ks).sub(&qs.matmul_transb(&ks)).frobenius_norm();
            errs.push(err);
        }
        assert!(errs[2] < errs[0], "K=128 err {} !< K=4 err {}", errs[2], errs[0]);
    }

    #[test]
    fn approximates_sigmoid_attention_with_many_prototypes() {
        for encoder in BOTH_ENCODERS {
            let (table, q, k, v) = fit_with(encoder, 100, 4, 8, 128);
            // On training samples, the double quantization should land near
            // the sigmoid-attention reference.
            let mut total_rel = 0.0;
            let trials = 10;
            for n in 0..trials {
                let qs = q.slice_rows(n * 4, (n + 1) * 4);
                let ks = k.slice_rows(n * 4, (n + 1) * 4);
                let vs = v.slice_rows(n * 4, (n + 1) * 4);
                let approx = table.query(&qs, &ks, &vs);
                let exact = sigmoid_attention(&qs, &ks, &vs);
                total_rel += approx.sub(&exact).frobenius_norm() / exact.frobenius_norm().max(1e-6);
            }
            let mean_rel = total_rel / trials as f32;
            assert!(mean_rel < 0.5, "{encoder:?}: mean relative error {mean_rel}");
        }
    }

    #[test]
    fn softmax_per_subspace_variant_runs() {
        let q = rand_stack(30, 4, 8, 7);
        let k = rand_stack(30, 4, 8, 8);
        let v = rand_stack(30, 4, 8, 9);
        let cfg = AttentionTableConfig {
            k: 8,
            ck: 2,
            ct: 1,
            activation: AttentionActivation::SoftmaxPerSubspace,
            ..Default::default()
        };
        let table = AttentionTable::fit(&q, &k, &v, 4, &cfg);
        let out = table.query(&q.slice_rows(0, 4), &k.slice_rows(0, 4), &v.slice_rows(0, 4));
        assert_eq!(out.shape(), (4, 8));
        assert!(out.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn storage_matches_expected_table_sizes() {
        let (table, ..) = fit_default(20, 4, 8, 8);
        // qk: ck(2) tables of K^2(64) + qkv: ct(2) tables of K^2(64), f32.
        assert_eq!(table.storage_bytes(), ((2 * 64 + 2 * 64) * 4) as u64);
    }

    #[test]
    fn hash_tree_encoder_variant_runs() {
        let q = rand_stack(40, 4, 8, 17);
        let k = rand_stack(40, 4, 8, 18);
        let v = rand_stack(40, 4, 8, 19);
        let cfg = AttentionTableConfig {
            k: 16,
            ck: 2,
            ct: 2,
            encoder: EncoderKind::HashTree,
            ..Default::default()
        };
        let table = AttentionTable::fit(&q, &k, &v, 4, &cfg);
        let out = table.query(&q.slice_rows(0, 4), &k.slice_rows(0, 4), &v.slice_rows(0, 4));
        assert!(out.as_slice().iter().all(|x| x.is_finite()));
    }

    /// One sample with every encode walked alone (`encode_row`) and every
    /// output one `acc += table.get(..)` chain in subspace order: what the
    /// tiled, lane-blocked [`AttentionTable::query_batch`] must reproduce.
    fn reference_query(table: &AttentionTable, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        let (t, dk) = (table.seq_len, table.dk);
        let qkt = lookup_qk(&table.q_pq, &table.k_pq, &table.qk, q, k);
        let col_codes: Vec<Vec<usize>> = (0..dk)
            .map(|o| {
                let col: Vec<f32> = (0..t).map(|tt| v.get(tt, o)).collect();
                table.v_pq.encode_row(&col)
            })
            .collect();
        let mut out = Matrix::zeros(t, dk);
        for t1 in 0..t {
            let row_codes = table.qkt_pq.encode_row(qkt.row(t1));
            for (o, col) in col_codes.iter().enumerate() {
                let mut acc = 0.0f32;
                for (c, (&rc, &cc)) in row_codes.iter().zip(col).enumerate() {
                    acc += table.qkv.get(c, rc, cc);
                }
                out.set(t1, o, acc);
            }
        }
        out
    }

    /// The lane blocks against the lone-walk reference, bit for bit, at the
    /// shapes where blocks and tails trade places: `D_k` < 8 (V columns are
    /// all tail), `D_k` = 8 (DART-S: exactly one block), `D_k` = 17 (two
    /// blocks and a tail), and `T` below, at and off a multiple of 8 for
    /// the Q / K / Q̂K^T-row runs.
    #[test]
    fn lane_blocks_match_lone_walks_at_block_and_tail_shapes() {
        for encoder in BOTH_ENCODERS {
            for (t, dk) in [(4, 6), (16, 8), (11, 8), (9, 5), (12, 17)] {
                let q = rand_stack(24, t, dk, 11);
                let kk = rand_stack(24, t, dk, 12);
                let v = rand_stack(24, t, dk, 13);
                let cfg =
                    AttentionTableConfig { k: 16, ck: 2, ct: 3, encoder, ..Default::default() };
                let table = AttentionTable::fit(&q, &kk, &v, t, &cfg);
                let samples = 3;
                let qs = rand_stack(samples, t, dk, 21);
                let ks = rand_stack(samples, t, dk, 22);
                let vs = rand_stack(samples, t, dk, 23);
                let batch = table.query_batch(&qs, &ks, &vs);
                for n in 0..samples {
                    let (lo, hi) = (n * t, (n + 1) * t);
                    let want = reference_query(
                        &table,
                        &qs.slice_rows(lo, hi),
                        &ks.slice_rows(lo, hi),
                        &vs.slice_rows(lo, hi),
                    );
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&batch.slice_rows(lo, hi)),
                        bits(&want),
                        "{encoder:?} T {t} D_k {dk} sample {n}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "Q shape mismatch")]
    fn rejects_wrong_shapes() {
        let (table, q, k, v) = fit_default(10, 4, 8, 4);
        let _ = table.query(&q.slice_rows(0, 3), &k.slice_rows(0, 4), &v.slice_rows(0, 4));
    }
}
