//! Multi-head self-attention (paper Eq. 3–4).
//!
//! Input arrives stacked as `(batch * seq_len) x dim`. The Q/K/V projections
//! run as one fused `dim -> 3*dim` linear (matching Eq. 23, which accounts a
//! single `3 H D_A`-wide linear kernel), the scaled-dot-product core
//! ([`scaled_dot_product`]) runs per-sample in parallel with rayon on
//! per-head blocks of the stacked `[Q | K | V]` rows, read and written in
//! place, and the head outputs land in their columns of the concat that the
//! output projection `W_O` consumes.

use rayon::prelude::*;

use crate::init::InitRng;
use crate::layers::{Layer, Linear, Param};
use crate::matrix::{
    matmul_into, softmax_in_place, transa_into, transb_into, Matrix, View, ViewMut,
};

/// Multi-head self-attention layer.
#[derive(Clone, Debug)]
pub struct Msa {
    /// Fused query/key/value projection, `dim -> 3*dim`.
    pub qkv: Linear,
    /// Output projection `W_O`, `dim -> dim`.
    pub out: Linear,
    heads: usize,
    seq_len: usize,
    cache: Option<MsaCache>,
}

#[derive(Clone, Debug)]
struct MsaCache {
    /// Stacked `[Q | K | V]`, `(batch*seq) x 3*dim`: the QKV projection's output.
    qkv: Matrix,
    /// Softmax attention weights, [`scaled_dot_product`]'s layout.
    attn: Matrix,
}

impl Msa {
    /// New MSA layer over sequences of `seq_len` tokens with `dim` features
    /// split across `heads` heads.
    ///
    /// # Panics
    /// If `dim % heads != 0`.
    pub fn new(dim: usize, heads: usize, seq_len: usize, rng: &mut InitRng) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "dim {dim} must divide into {heads} heads");
        Msa {
            qkv: Linear::new(dim, 3 * dim, rng),
            out: Linear::new(dim, dim, rng),
            heads,
            seq_len,
            cache: None,
        }
    }

    /// Model (hidden) dimension.
    pub fn dim(&self) -> usize {
        self.out.in_dim()
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Sequence length this layer was built for.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Per-head dimension `D_h = D / h`.
    pub fn head_dim(&self) -> usize {
        self.dim() / self.heads
    }
}

/// The scaled-dot-product core of Eq. 3–4 over stacked `[Q | K | V]` rows
/// (`(N*T) x 3*dim`, head `h` owning columns `h*d_h..(h+1)*d_h` of each
/// third): for every sample and head, `A = softmax(Q_h K_hᵀ / √d_h)` row by
/// row, then `A V_h` into the head's columns of the `(N*T) x dim` concat.
/// Returns the concat and the weights, `A` of sample `n`, head `h` at rows
/// `(n*heads + h)*T..` of a `(N*heads*T) x T` matrix.
///
/// Per `(sample, head)` the operations are exactly those of
/// `Q_h.matmul_transb(&K_h)`, `scale_assign(1/√d_h)`, [`softmax_in_place`]
/// per row and `A.matmul(&V_h)` on copied-out blocks; the kernels read the
/// blocks in place instead, and samples run in parallel.
///
/// # Panics
/// If `qkv` is not `3*dim` wide for a `dim` that `heads` divide, or its rows
/// are not a multiple of `seq_len`.
pub fn scaled_dot_product(qkv: &Matrix, seq_len: usize, heads: usize) -> (Matrix, Matrix) {
    let (dim, dh, batch) = core_shape(qkv, seq_len, heads);
    let t = seq_len;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut concat = Matrix::zeros(batch * t, dim);
    let mut attn = Matrix::zeros(batch * heads * t, t);
    concat
        .as_mut_slice()
        .par_chunks_mut(t * dim)
        .zip(attn.as_mut_slice().par_chunks_mut(heads * t * t))
        .enumerate()
        .for_each(|(n, (y, a))| {
            for (h, a) in a.chunks_exact_mut(t * t).enumerate() {
                let lo = h * dh;
                let q = qkv.block(n * t, t, lo, dh);
                let k = qkv.block(n * t, t, dim + lo, dh);
                let v = qkv.block(n * t, t, 2 * dim + lo, dh);
                transb_into(q, k, &mut ViewMut::new(a, t, t, t));
                for row in a.chunks_exact_mut(t) {
                    for s in row.iter_mut() {
                        *s *= scale;
                    }
                    softmax_in_place(row);
                }
                let a = View::new(a, t, t, t);
                matmul_into(a, v, &mut ViewMut::new(&mut y[lo..], t, dh, dim));
            }
        });
    (concat, attn)
}

/// The backward of [`scaled_dot_product`]: from the stacked `[Q | K | V]`,
/// the weights it returned and the gradient of its concat, the gradient of
/// the stacked `[Q | K | V]` (`(N*T) x 3*dim`). Per `(sample, head)`:
/// `dV = Aᵀ dY`, `dA = dY Vᵀ`, `dS = A ⊙ (dA − rowsum(dA ⊙ A))` scaled by
/// `1/√d_h`, `dQ = dS K`, `dK = dSᵀ Q`, each written into its block.
fn scaled_dot_product_backward(
    qkv: &Matrix,
    attn: &Matrix,
    d_concat: &Matrix,
    seq_len: usize,
    heads: usize,
) -> Matrix {
    let (dim, dh, batch) = core_shape(qkv, seq_len, heads);
    let t = seq_len;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut d_qkv = Matrix::zeros(batch * t, 3 * dim);
    d_qkv.as_mut_slice().par_chunks_mut(t * 3 * dim).enumerate().for_each(|(n, d)| {
        let mut da = vec![0.0f32; t * t];
        let mut ds = vec![0.0f32; t * t];
        for h in 0..heads {
            let lo = h * dh;
            let a = attn.block((n * heads + h) * t, t, 0, t);
            let q = qkv.block(n * t, t, lo, dh);
            let k = qkv.block(n * t, t, dim + lo, dh);
            let v = qkv.block(n * t, t, 2 * dim + lo, dh);
            let dy = d_concat.block(n * t, t, lo, dh);

            // dV = A^T dY ; dA = dY V^T
            transa_into(a, dy, &mut ViewMut::new(&mut d[2 * dim + lo..], t, dh, 3 * dim));
            transb_into(dy, v, &mut ViewMut::new(&mut da, t, t, t));

            // Softmax backward per row: dS = A ⊙ (dA - rowsum(dA ⊙ A))
            for r in 0..t {
                let arow = attn.row((n * heads + h) * t + r);
                let darow = &da[r * t..(r + 1) * t];
                let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
                let dsrow = &mut ds[r * t..(r + 1) * t];
                for c in 0..t {
                    dsrow[c] = arow[c] * (darow[c] - dot);
                }
            }
            for s in ds.iter_mut() {
                *s *= scale;
            }

            // dQ = dS K ; dK = dS^T Q
            let ds = View::new(&ds, t, t, t);
            matmul_into(ds, k, &mut ViewMut::new(&mut d[lo..], t, dh, 3 * dim));
            transa_into(ds, q, &mut ViewMut::new(&mut d[dim + lo..], t, dh, 3 * dim));
        }
    });
    d_qkv
}

/// `(dim, d_h, batch)` of a stacked `[Q | K | V]` for [`scaled_dot_product`].
fn core_shape(qkv: &Matrix, seq_len: usize, heads: usize) -> (usize, usize, usize) {
    assert!(qkv.cols().is_multiple_of(3), "QKV width {} is not 3 * dim", qkv.cols());
    let dim = qkv.cols() / 3;
    assert!(
        heads > 0 && dim > 0 && dim.is_multiple_of(heads),
        "dim {dim} must divide into {heads} heads"
    );
    assert!(
        seq_len > 0 && qkv.rows().is_multiple_of(seq_len),
        "stacked rows {} not divisible by seq_len {seq_len}",
        qkv.rows()
    );
    (dim, dim / heads, qkv.rows() / seq_len)
}

impl Layer for Msa {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let qkv = self.qkv.forward(x, train);
        let (concat, attn) = scaled_dot_product(&qkv, self.seq_len, self.heads);
        if train {
            self.cache = Some(MsaCache { qkv, attn });
        }
        self.out.forward(&concat, train)
    }

    fn backward(&mut self, grad: &Matrix) -> Matrix {
        let d_concat = self.out.backward(grad);
        let cache = self.cache.as_ref().expect("backward before forward(train=true)");
        let d_qkv = scaled_dot_product_backward(
            &cache.qkv,
            &cache.attn,
            &d_concat,
            self.seq_len,
            self.heads,
        );
        self.qkv.backward(&d_qkv)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.qkv.visit_params(f);
        self.out.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "msa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::grad_check_input;

    /// The scaled-dot-product core for one sample before the in-place core:
    /// per-head `slice_cols` copies of the sample's Q / K / V rows. Returns
    /// the concatenated head outputs (`seq x dim`) and the per-head weights.
    fn attend_sample_reference(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
    ) -> (Matrix, Vec<Matrix>) {
        let (t, dim) = q.shape();
        let dh = dim / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut y = Matrix::zeros(t, dim);
        let mut attns = Vec::with_capacity(heads);
        for h in 0..heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qh = q.slice_cols(lo, hi);
            let kh = k.slice_cols(lo, hi);
            let vh = v.slice_cols(lo, hi);
            let mut scores = qh.matmul_transb(&kh);
            scores.scale_assign(scale);
            let a = scores.softmax_rows();
            let yh = a.matmul(&vh);
            for r in 0..t {
                y.row_mut(r)[lo..hi].copy_from_slice(yh.row(r));
            }
            attns.push(a);
        }
        (y, attns)
    }

    /// `Msa::forward` then `Msa::backward` (train mode) before the in-place
    /// core: per-sample `slice_rows`, per-head `slice_cols`, `set_rows` and
    /// `vstack` copies. Returns `(output, input gradient)`; the parameter
    /// gradients accumulate in `msa` as the layer's own pass does.
    fn forward_backward_reference(msa: &mut Msa, x: &Matrix, grad: &Matrix) -> (Matrix, Matrix) {
        let (dim, heads, t) = (msa.dim(), msa.heads, msa.seq_len);
        let dh = dim / heads;
        let batch = x.rows() / t;
        let scale = 1.0 / (dh as f32).sqrt();

        let qkv_out = msa.qkv.forward(x, true);
        let q = qkv_out.slice_cols(0, dim);
        let k = qkv_out.slice_cols(dim, 2 * dim);
        let v = qkv_out.slice_cols(2 * dim, 3 * dim);
        let mut concat = Matrix::zeros(batch * t, dim);
        let mut attn = Vec::with_capacity(batch * heads);
        for n in 0..batch {
            let rows = |m: &Matrix| m.slice_rows(n * t, (n + 1) * t);
            let (y, a) = attend_sample_reference(&rows(&q), &rows(&k), &rows(&v), heads);
            concat.set_rows(n * t, &y);
            attn.extend(a);
        }
        let out = msa.out.forward(&concat, true);

        let d_concat = msa.out.backward(grad);
        let mut d_qkv_blocks = Vec::with_capacity(batch);
        for n in 0..batch {
            let mut d_qkv = Matrix::zeros(t, 3 * dim);
            let qs = q.slice_rows(n * t, (n + 1) * t);
            let ks = k.slice_rows(n * t, (n + 1) * t);
            let vs = v.slice_rows(n * t, (n + 1) * t);
            let dy = d_concat.slice_rows(n * t, (n + 1) * t);
            for h in 0..heads {
                let (lo, hi) = (h * dh, (h + 1) * dh);
                let a = &attn[n * heads + h];
                let qh = qs.slice_cols(lo, hi);
                let kh = ks.slice_cols(lo, hi);
                let vh = vs.slice_cols(lo, hi);
                let dyh = dy.slice_cols(lo, hi);
                let dvh = a.matmul_transa(&dyh);
                let da = dyh.matmul_transb(&vh);
                let mut ds = Matrix::zeros(t, t);
                for r in 0..t {
                    let arow = a.row(r);
                    let darow = da.row(r);
                    let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
                    let dsrow = ds.row_mut(r);
                    for c in 0..t {
                        dsrow[c] = arow[c] * (darow[c] - dot);
                    }
                }
                ds.scale_assign(scale);
                let dqh = ds.matmul(&kh);
                let dkh = ds.matmul_transa(&qh);
                for r in 0..t {
                    d_qkv.row_mut(r)[lo..hi].copy_from_slice(dqh.row(r));
                    d_qkv.row_mut(r)[dim + lo..dim + hi].copy_from_slice(dkh.row(r));
                    d_qkv.row_mut(r)[2 * dim + lo..2 * dim + hi].copy_from_slice(dvh.row(r));
                }
            }
            d_qkv_blocks.push(d_qkv);
        }
        let dx = msa.qkv.backward(&Matrix::vstack(&d_qkv_blocks));
        (out, dx)
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx} is {g:?}, want {w:?}");
        }
    }

    /// The in-place core trains exactly as the copy-based one did: output,
    /// input gradient and all four parameter gradients bit for bit, at
    /// `T` = 8 with 4 heads and 1 head, at a head width that is not a
    /// multiple of four (dim 12, 2 heads), and at an odd `T`.
    #[test]
    fn in_place_core_equals_the_copy_based_reference_bit_for_bit() {
        for (dim, heads, t, batch) in [(16, 4, 8, 5), (16, 1, 8, 3), (12, 2, 8, 4), (12, 3, 5, 3)] {
            let what = format!("dim {dim} heads {heads} T {t}");
            let mut rng = InitRng::new(dim as u64 * 31 + heads as u64);
            let mut msa = Msa::new(dim, heads, t, &mut rng);
            let mut reference = msa.clone();
            let x = Matrix::from_fn(batch * t, dim, |r, c| ((r * dim + c) as f32 * 0.37).sin());
            let grad =
                Matrix::from_fn(batch * t, dim, |r, c| ((r * 3 + c * 5) as f32 * 0.11).cos());

            msa.zero_grad();
            let y = msa.forward(&x, true);
            let dx = msa.backward(&grad);
            reference.zero_grad();
            let (y_ref, dx_ref) = forward_backward_reference(&mut reference, &x, &grad);

            assert_same_bits(&y, &y_ref, &format!("{what}: output"));
            assert_same_bits(&dx, &dx_ref, &format!("{what}: input gradient"));
            let (mut got, mut want) = (Vec::new(), Vec::new());
            msa.visit_params(&mut |p| got.push(p.grad.clone()));
            reference.visit_params(&mut |p| want.push(p.grad.clone()));
            assert_eq!(got.len(), 4, "{what}: qkv.w, qkv.b, out.w, out.b");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same_bits(g, w, &format!("{what}: parameter gradient {i}"));
            }
        }
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = InitRng::new(3);
        let mut msa = Msa::new(8, 2, 4, &mut rng);
        let x = Matrix::from_fn(2 * 4, 8, |r, c| ((r * 8 + c) as f32 * 0.1).sin());
        let y = msa.forward(&x, false);
        assert_eq!(y.shape(), (8, 8));
    }

    #[test]
    fn attention_weights_are_row_stochastic() {
        let mut rng = InitRng::new(4);
        let mut msa = Msa::new(8, 2, 4, &mut rng);
        let x = Matrix::from_fn(4, 8, |r, c| (r as f32 - c as f32) * 0.2);
        let _ = msa.forward(&x, true);
        let a = &msa.cache.as_ref().unwrap().attn;
        assert_eq!(a.shape(), (2 * 4, 4)); // 1 sample * 2 heads * 4 query rows
        for r in 0..a.rows() {
            let s: f32 = a.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_check_small() {
        let mut rng = InitRng::new(9);
        let mut msa = Msa::new(4, 2, 3, &mut rng);
        let x = Matrix::from_fn(2 * 3, 4, |r, c| ((r * 4 + c) as f32 * 0.29).cos() * 0.5);
        let err = grad_check_input(&mut msa, &x, 1e-2);
        assert!(err < 3e-2, "relative grad error {err}");
    }

    #[test]
    fn batch_independence() {
        // Attention over sample 0 must not be affected by sample 1.
        let mut rng = InitRng::new(12);
        let mut msa = Msa::new(8, 2, 4, &mut rng);
        let a = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.17).sin());
        let b = Matrix::from_fn(4, 8, |r, c| ((r * 8 + c) as f32 * 0.05).cos());
        let ya = msa.forward(&a, false);
        let stacked = Matrix::vstack(&[a.clone(), b.clone()]);
        let y_stacked = msa.forward(&stacked, false);
        let ya2 = y_stacked.slice_rows(0, 4);
        for i in 0..ya.len() {
            assert!((ya.as_slice()[i] - ya2.as_slice()[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible by seq_len")]
    fn rejects_bad_stack() {
        let mut rng = InitRng::new(1);
        let mut msa = Msa::new(4, 1, 3, &mut rng);
        let x = Matrix::zeros(4, 4);
        let _ = msa.forward(&x, false);
    }

    #[test]
    fn param_count() {
        let mut rng = InitRng::new(1);
        let mut msa = Msa::new(8, 2, 4, &mut rng);
        // qkv: 24*8 + 24 ; out: 8*8 + 8
        assert_eq!(msa.param_count(), 24 * 8 + 24 + 64 + 8);
    }
}
