//! Reduced-precision table entries — the `d`-bit parameter of the paper's
//! storage model (Eq. 18–19 charge `d` bits per table entry; the evaluation
//! assumes f32, but a hardware deployment would use int8).
//!
//! [`QuantizedLinearTable`] re-encodes a fitted [`LinearTable`]'s entries as
//! symmetric int8 with one scale per subspace table, cutting table storage
//! 4x. Aggregation runs in i32 and rescales once per output — still
//! multiplication-free in the inner loop.

use dart_nn::matrix::Matrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::arena::TableArena;
use crate::linear_table::LinearTable;
use crate::quantizer::ProductQuantizer;
use crate::simd::scalar::i8_scale_add;

/// An int8 copy of a linear kernel's tables.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuantizedLinearTable {
    pq: ProductQuantizer,
    /// Flat code-major int8 entries, mirroring [`TableArena`]'s layout:
    /// subspace `c`'s `K x D_O` block starts at `c * K * D_O`.
    data: Vec<i8>,
    /// Per subspace: dequantization scale (`value = entry as f32 * scale`).
    scales: Vec<f32>,
    out_dim: usize,
}

impl QuantizedLinearTable {
    /// Quantize a fitted linear table to int8.
    pub fn from_table(table: &LinearTable) -> QuantizedLinearTable {
        let pq = table.quantizer().clone();
        let out_dim = table.out_dim();
        let arena = table.table_arena();
        let mut data = Vec::with_capacity(arena.len());
        let mut scales = Vec::with_capacity(pq.num_subspaces());
        for ci in 0..arena.num_subspaces() {
            let sub = arena.subtable(ci);
            let max_abs = sub.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-12);
            let scale = max_abs / 127.0;
            data.extend(sub.iter().map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8));
            scales.push(scale);
        }
        QuantizedLinearTable { pq, data, scales, out_dim }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Approximate query over stacked rows (int8 tables, f32 result):
    /// [`Self::query_row_into`] per row, rows in parallel.
    pub fn query(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.pq.dim(), "query dim mismatch");
        crate::profile::profile_kernel("int8_query", x.rows() as u64);
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        out.as_mut_slice()
            .par_chunks_mut(self.out_dim)
            .enumerate()
            .for_each(|(r, orow)| self.query_row_into(x.row(r), orow));
        out
    }

    /// Single-row query.
    pub fn query_row_into(&self, row: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.out_dim);
        out.fill(0.0);
        let k = self.pq.num_protos();
        for (ci, &(lo, hi)) in self.pq.bounds().iter().enumerate() {
            let code = self.pq.encode_sub(ci, &row[lo..hi]);
            let scale = self.scales[ci];
            let trow = &self.data[(ci * k + code) * self.out_dim..][..self.out_dim];
            i8_scale_add(out, trow, scale);
        }
    }

    /// Table storage in bytes (1 byte per entry).
    pub fn storage_bytes(&self) -> u64 {
        self.data.len() as u64 + (self.scales.len() * 4) as u64
    }

    /// Worst-case absolute quantization error added per output (sum over
    /// subspaces of half a quantization step).
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().map(|s| 0.5 * s).sum()
    }
}

/// Quantize an [`AttentionTable`]'s QK and QKV tables to int8 and
/// dequantize back, returning a table whose entries carry int8 precision
/// (what a `d = 8` deployment of Eq. 19 would store) while keeping the f32
/// query path. Returns the quantized-precision table and the total int8
/// storage in bytes.
pub fn quantize_attention_int8(
    table: &crate::attention_table::AttentionTable,
) -> (crate::attention_table::AttentionTable, u64) {
    let squash = |arena: &TableArena| -> (TableArena, u64) {
        let mut out = arena.clone();
        let mut bytes = 0u64;
        for ci in 0..arena.num_subspaces() {
            let sub = out.subtable_mut(ci);
            let scale = sub.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-12) / 127.0;
            for v in sub.iter_mut() {
                *v = (*v / scale).round().clamp(-127.0, 127.0) * scale;
            }
            bytes += sub.len() as u64 + 4; // 1 B/entry + the scale
        }
        (out, bytes)
    };
    let (qk, qk_bytes) = squash(table.qk_tables());
    let (qkv, qkv_bytes) = squash(table.qkv_tables());
    (table.clone().with_tables(qk, qkv), qk_bytes + qkv_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::EncoderKind;
    use dart_nn::init::InitRng;

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        Matrix::from_fn(r, c, |_, _| rng.normal())
    }

    fn fitted() -> (LinearTable, Matrix) {
        let train = rand_matrix(500, 8, 1);
        let w = rand_matrix(6, 8, 2);
        let b = vec![0.3f32; 6];
        let table = LinearTable::fit(&train, &w, &b, 2, 32, EncoderKind::Argmin, 3);
        let test = rand_matrix(40, 8, 4);
        (table, test)
    }

    #[test]
    fn quantized_tracks_f32_within_bound() {
        let (table, test) = fitted();
        let q = QuantizedLinearTable::from_table(&table);
        let dense = table.query(&test);
        let quant = q.query(&test);
        let bound = q.error_bound() + 1e-5;
        for i in 0..dense.len() {
            let err = (dense.as_slice()[i] - quant.as_slice()[i]).abs();
            assert!(err <= bound, "entry {i}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn storage_is_quarter_of_f32() {
        let (table, _) = fitted();
        let q = QuantizedLinearTable::from_table(&table);
        // f32 tables: entries * 4 bytes; int8: entries * 1 byte + scales.
        assert!(q.storage_bytes() < table.storage_bytes() / 3);
    }

    #[test]
    fn same_codes_as_dense_table() {
        // Quantization must not change *which* prototype a row maps to.
        let (table, test) = fitted();
        let q = QuantizedLinearTable::from_table(&table);
        for r in 0..test.rows() {
            assert_eq!(table.quantizer().encode_row(test.row(r)), q.pq.encode_row(test.row(r)));
        }
    }

    #[test]
    fn error_bound_is_finite_and_small() {
        let (table, _) = fitted();
        let q = QuantizedLinearTable::from_table(&table);
        assert!(q.error_bound() > 0.0);
        assert!(q.error_bound() < 1.0, "bound {}", q.error_bound());
    }
    #[test]
    fn attention_int8_roundtrip_tracks_f32() {
        use crate::attention_table::{AttentionTable, AttentionTableConfig};
        let mut rng = InitRng::new(7);
        let (t, dk) = (4usize, 8usize);
        let q = Matrix::from_fn(50 * t, dk, |_, _| rng.normal());
        let k = Matrix::from_fn(50 * t, dk, |_, _| rng.normal());
        let v = Matrix::from_fn(50 * t, dk, |_, _| rng.normal());
        let cfg = AttentionTableConfig { k: 16, ck: 2, ct: 2, ..Default::default() };
        let table = AttentionTable::fit(&q, &k, &v, t, &cfg);
        let (int8_table, bytes) = quantize_attention_int8(&table);

        let qs = q.slice_rows(0, t);
        let ks = k.slice_rows(0, t);
        let vs = v.slice_rows(0, t);
        let dense = table.query(&qs, &ks, &vs);
        let quant = int8_table.query(&qs, &ks, &vs);
        let rel = dense.sub(&quant).frobenius_norm() / dense.frobenius_norm().max(1e-6);
        assert!(rel < 0.15, "int8 attention error {rel}");
        // int8 storage is ~1/4 of the f32 table bytes.
        assert!(bytes < table.storage_bytes() / 3, "{bytes} vs {}", table.storage_bytes());
    }
}
