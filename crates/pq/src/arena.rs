//! Flat, contiguous, code-major storage arenas for the tabularization
//! kernels.
//!
//! The seed stored every kernel's per-subspace tables as `Vec<Matrix>` (one
//! heap allocation per subspace) and every product quantizer's codebook as
//! one `Matrix` per subspace. That scatters the hot lookup data across the
//! heap: a batched query walks `C` unrelated allocations per row, and the
//! prefetcher-friendly access pattern the paper's latency model assumes
//! (stream one sub-table, then the next) is lost.
//!
//! [`TableArena`] and [`CodebookArena`] replace that with single contiguous
//! `Vec<f32>` allocations laid out **code-major**: all of subspace 0's
//! entries, then all of subspace 1's. Inside a subspace block a table keeps
//! its prototype rows contiguous (a lookup reads one row), while a codebook
//! is **dimension-major** (the argmin scan reads every prototype, one
//! coordinate at a time — see [`CodebookArena`]). The tiled batch kernels in
//! `linear_table` / `quantizer` iterate subspace-outer over row tiles so one
//! subspace block stays cache-resident for a whole tile pass.
//!
//! Both arenas are read from untrusted model files, so their `Deserialize`
//! impls check the structure the kernels index by and return `Err` on a
//! mismatch instead of leaving it to a shape assert at query time.

use serde::{obj_field, Deserialize, Serialize};

use dart_nn::matrix::Matrix;
use rayon::prelude::*;

/// Flat code-major storage for `C` sub-tables of shape `K x width` each.
///
/// Entry `(c, k, o)` lives at `data[(c * protos + k) * width + o]`; the
/// whole arena is one contiguous allocation.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TableArena {
    subspaces: usize,
    protos: usize,
    width: usize,
    data: Vec<f32>,
}

impl Deserialize for TableArena {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let arena = TableArena {
            subspaces: obj_field(v, "subspaces")?,
            protos: obj_field(v, "protos")?,
            width: obj_field(v, "width")?,
            data: obj_field(v, "data")?,
        };
        let want =
            arena.subspaces.checked_mul(arena.protos).and_then(|n| n.checked_mul(arena.width));
        if want != Some(arena.data.len()) {
            return Err(serde::Error(format!(
                "table arena holds {} entries, expected {} x {} x {}",
                arena.data.len(),
                arena.subspaces,
                arena.protos,
                arena.width
            )));
        }
        Ok(arena)
    }
}

impl TableArena {
    /// A zero-filled arena for `subspaces` sub-tables of `protos x width`.
    pub fn zeros(subspaces: usize, protos: usize, width: usize) -> TableArena {
        TableArena { subspaces, protos, width, data: vec![0.0; subspaces * protos * width] }
    }

    /// Build an arena by copying per-subspace `K x width` matrices
    /// (the seed's nested layout) into one contiguous allocation.
    pub fn from_matrices(mats: &[Matrix]) -> TableArena {
        assert!(!mats.is_empty(), "arena from zero matrices");
        let protos = mats[0].rows();
        let width = mats[0].cols();
        let mut data = Vec::with_capacity(mats.len() * protos * width);
        for m in mats {
            assert_eq!(m.shape(), (protos, width), "sub-table shape mismatch");
            data.extend_from_slice(m.as_slice());
        }
        TableArena { subspaces: mats.len(), protos, width, data }
    }

    /// Number of sub-tables `C`.
    #[inline]
    pub fn num_subspaces(&self) -> usize {
        self.subspaces
    }

    /// Rows per sub-table `K`.
    #[inline]
    pub fn num_protos(&self) -> usize {
        self.protos
    }

    /// Entries per row (`D_O` for linear kernels, `K` for pairwise tables).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of `f32` entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the arena holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The row of sub-table `c` for prototype code `k`.
    #[inline]
    pub fn row(&self, c: usize, k: usize) -> &[f32] {
        debug_assert!(c < self.subspaces && k < self.protos);
        let start = (c * self.protos + k) * self.width;
        &self.data[start..start + self.width]
    }

    /// Single entry `(c, k, o)` (pairwise-table lookups).
    #[inline]
    pub fn get(&self, c: usize, k: usize, o: usize) -> f32 {
        debug_assert!(o < self.width);
        self.data[(c * self.protos + k) * self.width + o]
    }

    /// The contiguous `K * width` block of sub-table `c`.
    #[inline]
    pub fn subtable(&self, c: usize) -> &[f32] {
        debug_assert!(c < self.subspaces);
        let span = self.protos * self.width;
        &self.data[c * span..(c + 1) * span]
    }

    /// Copy sub-table `c` out as a `K x width` matrix (diagnostics and the
    /// layout benchmark's seed-shape reference).
    pub fn subtable_to_matrix(&self, c: usize) -> Matrix {
        Matrix::from_vec(self.protos, self.width, self.subtable(c).to_vec())
    }

    /// The whole arena as one flat slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Fill every sub-table in parallel: `f(c, subtable_c)` runs once per
    /// subspace over disjoint slices of the arena (construction-time mirror
    /// of the seed's `par_iter` over separate `Matrix` allocations).
    pub fn fill_subtables_parallel(&mut self, f: impl Fn(usize, &mut [f32]) + Sync) {
        let span = self.protos * self.width;
        if span == 0 {
            return;
        }
        self.data.par_chunks_mut(span).enumerate().for_each(|(c, chunk)| f(c, chunk));
    }
}

/// Flat storage for a product quantizer's prototypes: code-major across
/// subspaces, **dimension-major** inside each.
///
/// Subspace `c` holds `K` prototypes of `sub_dims[c]` entries each (sub
/// dimensions across subspaces differ by at most one); its block starts at
/// `offsets[c]` and coordinate `d` of prototype `k` lives at
/// `dim_major[offsets[c] + d * K + k]`. The exact argmin encoder reads every
/// prototype of the subspace for every input, so the layout puts what one
/// step of that scan reads — coordinate `d` of consecutive prototypes — in
/// consecutive memory; a single prototype is a stride-`K` walk
/// ([`Self::proto`]), which only table construction needs.
///
/// The serialized field is named for the layout so that a prototype-major
/// file from before this layout fails to load instead of loading
/// transposed.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CodebookArena {
    protos: usize,
    sub_dims: Vec<usize>,
    offsets: Vec<usize>,
    dim_major: Vec<f32>,
}

impl Deserialize for CodebookArena {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let arena = CodebookArena {
            protos: obj_field(v, "protos")?,
            sub_dims: obj_field(v, "sub_dims")?,
            offsets: obj_field(v, "offsets")?,
            dim_major: obj_field(v, "dim_major")?,
        };
        arena.check_structure().map_err(serde::Error)?;
        Ok(arena)
    }
}

impl CodebookArena {
    /// Build from one `K x v_c` prototype matrix per subspace, transposing
    /// each into its dimension-major block of a single allocation.
    pub fn from_prototype_matrices(mats: &[Matrix]) -> CodebookArena {
        assert!(!mats.is_empty(), "codebook from zero subspaces");
        let protos = mats[0].rows();
        let mut sub_dims = Vec::with_capacity(mats.len());
        let mut offsets = Vec::with_capacity(mats.len() + 1);
        let total: usize = mats.iter().map(Matrix::len).sum();
        let mut dim_major = Vec::with_capacity(total);
        for m in mats {
            assert_eq!(m.rows(), protos, "prototype count mismatch across subspaces");
            offsets.push(dim_major.len());
            sub_dims.push(m.cols());
            dim_major.extend_from_slice(m.transpose().as_slice());
        }
        offsets.push(dim_major.len());
        CodebookArena { protos, sub_dims, offsets, dim_major }
    }

    /// The structure every accessor and the argmin scan index by: one
    /// offset per subspace plus the end, starting at 0, each block exactly
    /// `K * sub_dims[c]` entries, the last offset the data length.
    fn check_structure(&self) -> Result<(), String> {
        if self.protos == 0 || self.sub_dims.contains(&0) {
            return Err("codebook with zero prototypes or a zero-dimensional subspace".into());
        }
        if self.offsets.len() != self.sub_dims.len() + 1 || self.offsets[0] != 0 {
            return Err(format!(
                "codebook has {} offsets for {} subspaces (want one more, starting at 0)",
                self.offsets.len(),
                self.sub_dims.len()
            ));
        }
        for (c, (&v, w)) in self.sub_dims.iter().zip(self.offsets.windows(2)).enumerate() {
            let end = self.protos.checked_mul(v).and_then(|span| w[0].checked_add(span));
            if end != Some(w[1]) {
                return Err(format!(
                    "codebook subspace {c} spans offsets {}..{}, expected {} x {v} entries",
                    w[0], w[1], self.protos
                ));
            }
        }
        let end = self.offsets[self.sub_dims.len()];
        if end != self.dim_major.len() {
            return Err(format!(
                "codebook holds {} entries, offsets end at {end}",
                self.dim_major.len()
            ));
        }
        Ok(())
    }

    /// Number of subspaces `C`.
    #[inline]
    pub fn num_subspaces(&self) -> usize {
        self.sub_dims.len()
    }

    /// Prototypes per subspace `K`.
    #[inline]
    pub fn num_protos(&self) -> usize {
        self.protos
    }

    /// Dimensionality of subspace `c`.
    #[inline]
    pub fn sub_dim(&self, c: usize) -> usize {
        self.sub_dims[c]
    }

    /// Prototype `k` of subspace `c`, copied out of its stride-`K` column
    /// (fit-time table construction, [`crate::ProductQuantizer::reconstruct`]
    /// and tests — nothing on a query path needs a whole prototype).
    pub fn proto(&self, c: usize, k: usize) -> Vec<f32> {
        assert!(k < self.protos, "prototype {k} out of {}", self.protos);
        self.subspace(c).iter().skip(k).step_by(self.protos).copied().collect()
    }

    /// The contiguous dimension-major `v_c * K` block of subspace `c` (the
    /// argmin encoder scans this linearly, one coordinate column at a time).
    #[inline]
    pub fn subspace(&self, c: usize) -> &[f32] {
        &self.dim_major[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Total number of `f32` entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.dim_major.len()
    }

    /// True when the codebook holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dim_major.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_arena_layout_is_code_major() {
        let mats = vec![Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32), Matrix::full(2, 3, 9.0)];
        let arena = TableArena::from_matrices(&mats);
        assert_eq!(arena.num_subspaces(), 2);
        assert_eq!(arena.num_protos(), 2);
        assert_eq!(arena.width(), 3);
        assert_eq!(arena.row(0, 1), &[3.0, 4.0, 5.0]);
        assert_eq!(arena.row(1, 0), &[9.0, 9.0, 9.0]);
        assert_eq!(arena.get(0, 1, 2), 5.0);
        // Subspace blocks are contiguous and in order.
        assert_eq!(arena.subtable(0), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(arena.as_slice().len(), 12);
        assert_eq!(arena.subtable_to_matrix(0), mats[0]);
    }

    #[test]
    fn fill_subtables_parallel_covers_all_entries() {
        let mut arena = TableArena::zeros(3, 4, 2);
        arena.fill_subtables_parallel(|c, chunk| {
            for v in chunk.iter_mut() {
                *v = c as f32 + 1.0;
            }
        });
        for c in 0..3 {
            assert!(arena.subtable(c).iter().all(|&v| v == c as f32 + 1.0));
        }
    }

    #[test]
    fn codebook_arena_handles_uneven_sub_dims() {
        // dim 5 split into 2 subspaces: 3 + 2 columns.
        let mats = vec![Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32), Matrix::full(4, 2, 7.0)];
        let cb = CodebookArena::from_prototype_matrices(&mats);
        assert_eq!(cb.num_subspaces(), 2);
        assert_eq!(cb.num_protos(), 4);
        assert_eq!(cb.sub_dim(0), 3);
        assert_eq!(cb.sub_dim(1), 2);
        // Dimension-major: entry (c, d, k) at offsets[c] + d * K + k, so a
        // subspace block is its coordinate columns back to back.
        #[rustfmt::skip]
        assert_eq!(cb.subspace(0), &[
            0.0, 3.0, 6.0, 9.0,  // d = 0 of prototypes 0..4
            1.0, 4.0, 7.0, 10.0, // d = 1
            2.0, 5.0, 8.0, 11.0, // d = 2
        ]);
        assert_eq!(cb.subspace(1), &[7.0; 8]);
        assert_eq!(cb.proto(0, 2), [6.0, 7.0, 8.0]);
        assert_eq!(cb.proto(1, 3), [7.0, 7.0]);
        assert_eq!(cb.len(), 20);
    }

    /// Structural damage a model file can carry is an `Err` at load, for
    /// both arenas; the intact value loads back equal.
    #[test]
    fn arena_deserialize_rejects_inconsistent_structure() {
        let cb = CodebookArena::from_prototype_matrices(&[
            Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32),
            Matrix::full(4, 2, 7.0),
        ]);
        let json = serde_json::to_string(&cb).unwrap();
        assert_eq!(serde_json::from_str::<CodebookArena>(&json).unwrap(), cb);
        assert!(json.contains("\"offsets\":[0,12,20]"), "{json}");
        for (from, to) in [
            ("\"dim_major\":[0,", "\"dim_major\":["), // one entry short
            ("\"dim_major\":", "\"data\":"),          // the prototype-major field name
            ("\"offsets\":[0,12,20]", "\"offsets\":[0,11,20]"),
            ("\"offsets\":[0,12,20]", "\"offsets\":[0,20]"),
            ("\"offsets\":[0,12,20]", "\"offsets\":[20,12,0]"),
            ("\"protos\":4", "\"protos\":5"),
            ("\"protos\":4", "\"protos\":0"),
            ("\"sub_dims\":[3,2]", "\"sub_dims\":[2,3]"),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "pattern `{from}` not found in {json}");
            assert!(serde_json::from_str::<CodebookArena>(&bad).is_err(), "accepted {bad}");
        }

        let table = TableArena::zeros(2, 3, 2);
        let json = serde_json::to_string(&table).unwrap();
        for (from, to) in [("\"data\":[0,", "\"data\":["), ("\"protos\":3", "\"protos\":4")] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "pattern `{from}` not found in {json}");
            assert!(serde_json::from_str::<TableArena>(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn arena_serde_roundtrip_is_exact() {
        let arena = TableArena::from_matrices(&[Matrix::from_fn(3, 2, |r, c| {
            (r as f32 + 0.1) * (c as f32 - 0.7)
        })]);
        let json = serde_json::to_string(&arena).unwrap();
        let back: TableArena = serde_json::from_str(&json).unwrap();
        assert_eq!(arena, back);
    }
}
