//! Per-subspace quantizers: prototype learning (`p_c`, Eq. 5) plus vector
//! encoding (`g_c`, Eq. 7).
//!
//! Two encoders are provided:
//!
//! * [`EncoderKind::HashTree`] — a MADDNESS-style balanced binary decision
//!   tree (`log2(K)` comparisons per encode): the paper's "locality
//!   sensitive hashing \[24\]" encoder, the one its latency model
//!   (`L_g = log K`) charges for, and what `dart-core`'s `TabularConfig`
//!   and [`crate::AttentionTableConfig`] build by default. Prototypes are
//!   the leaf-bucket means.
//! * [`EncoderKind::Argmin`] — exact nearest-prototype search over k-means
//!   centroids, `O(K * V)` per encode. Selected explicitly: the ablation's
//!   accuracy upper bound and the reference of the differential suites.

use dart_nn::matrix::Matrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::arena::CodebookArena;
use crate::kmeans::{kmeans, nearest_centroid, KMeansConfig};
use crate::simd::{self, NearestFn};

/// Rows per tile of the code-producing batch encoders
/// ([`ProductQuantizer::encode_batch_into`],
/// [`crate::AttentionTable::encode_qk_rows`]): the unit of rayon
/// parallelism, and the run of rows each subspace's encoder is handed at
/// once. (The linear kernels do not go through it: they encode inside
/// their own [`crate::AGG_TILE_ROWS`] tile loop.)
pub const ENCODE_TILE_ROWS: usize = 64;

/// Hash-tree walks advanced together by every batch encode: one walk is
/// `log2 K` *dependent* load → compare → index links, so a lone walk
/// leaves the core idle for most of each link's latency, while
/// `ENCODE_LANES` independent walks stepped level by level fill it. A
/// constant, not a knob: 4 and 8 lanes trade a percent or two between
/// batch 1 and batch 64 (`BENCH_23.json`), and 16 is no better than either.
pub const ENCODE_LANES: usize = 8;

/// Which encoding function `g_c` a quantizer uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderKind {
    /// Exact arg-min over k-means prototypes (`O(K*V)` per query): the
    /// upper-bound ablation.
    Argmin,
    /// Balanced hash tree with `log2(K)` scalar comparisons per query: the
    /// default of every model configuration.
    HashTree,
}

/// Balanced binary decision tree over one subspace.
///
/// Level `l` holds one split dimension and `2^l` thresholds (one per node).
/// A query walks `depth` levels; the leaf index is the bucket.
///
/// Thresholds are stored as a single flat heap-ordered array (level `l`,
/// node `idx` at `(1 << l) - 1 + idx`) so the whole tree is one contiguous
/// allocation — an `encode` touches one cache-resident array instead of
/// chasing a `Vec<Vec<f32>>` across the heap.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HashTree {
    split_dims: Vec<usize>,
    thresholds: Vec<f32>,
    k: usize,
}

impl HashTree {
    /// Tree depth (`log2 K`, rounded up).
    pub fn depth(&self) -> usize {
        self.split_dims.len()
    }

    /// Number of buckets `K`.
    pub fn num_buckets(&self) -> usize {
        self.k
    }

    /// Route a subvector to its bucket: [`Self::encode_lanes`] with one
    /// lane.
    #[inline]
    pub fn encode(&self, sub: &[f32]) -> usize {
        self.encode_lanes([sub])[0]
    }

    /// Route `N` subvectors to their buckets, level-major: each level
    /// reads its split dimension and its slice of the threshold heap once,
    /// then advances every lane one step (`idx = 2 * idx + (x > thr[idx])`).
    /// The lanes are independent, so their load → compare → index chains
    /// overlap; lane `i`'s bucket is exactly what a lone walk of `subs[i]`
    /// reaches (a NaN coordinate compares false and goes left in both).
    /// Leaves beyond `K` fold onto `leaf % K` after the last level.
    #[inline]
    pub fn encode_lanes<const N: usize>(&self, subs: [&[f32]; N]) -> [usize; N] {
        let mut idx = [0usize; N];
        let mut level_start = 0usize;
        for (level, &dim) in self.split_dims.iter().enumerate() {
            let nodes = 1usize << level;
            let thresholds = &self.thresholds[level_start..level_start + nodes];
            for (i, sub) in idx.iter_mut().zip(subs) {
                *i = 2 * *i + usize::from(sub[dim] > thresholds[*i]);
            }
            level_start += nodes;
        }
        idx.map(|leaf| if leaf >= self.k { leaf % self.k } else { leaf })
    }

    /// Check that every index [`Self::encode`] forms stays inside a
    /// `sub_dim`-dimensional subvector and the threshold array, for a tree
    /// routing to `k` buckets.
    fn validate(&self, sub_dim: usize, k: usize) -> Result<(), String> {
        let depth = self.split_dims.len();
        if depth == 0 || depth >= 32 || self.thresholds.len() != (1usize << depth) - 1 {
            return Err(format!(
                "hash tree of depth {depth} holds {} thresholds",
                self.thresholds.len()
            ));
        }
        if self.k != k {
            return Err(format!("hash tree routes to {} buckets, codebook holds {k}", self.k));
        }
        match self.split_dims.iter().find(|&&d| d >= sub_dim) {
            Some(d) => Err(format!("hash tree splits on dim {d} of a {sub_dim}-dim subspace")),
            None => Ok(()),
        }
    }

    /// Fit a tree on the rows of `data` (`n x v`).
    ///
    /// At each level the split dimension is the one with the largest summed
    /// within-bucket variance; each node splits at its bucket median.
    fn fit(data: &Matrix, k: usize) -> HashTree {
        assert!(k >= 1);
        let depth = usize::max(1, (k as f64).log2().ceil() as usize);
        let n = data.rows();
        let v = data.cols();
        let mut buckets: Vec<usize> = vec![0; n]; // current node of each point
        let mut split_dims = Vec::with_capacity(depth);
        // Flat heap order: level l's thresholds land at (1<<l)-1 onward.
        let mut thresholds = Vec::with_capacity((1usize << depth) - 1);

        for level in 0..depth {
            let num_nodes = 1usize << level;
            // Pick the dimension with max total within-node variance.
            let mut best_dim = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for d in 0..v {
                let mut sums = vec![0.0f64; num_nodes];
                let mut sqs = vec![0.0f64; num_nodes];
                let mut counts = vec![0usize; num_nodes];
                #[allow(clippy::needless_range_loop)] // i indexes data rows and buckets together
                for i in 0..n {
                    let b = buckets[i];
                    let val = data.get(i, d) as f64;
                    sums[b] += val;
                    sqs[b] += val * val;
                    counts[b] += 1;
                }
                let mut score = 0.0f64;
                for b in 0..num_nodes {
                    if counts[b] > 1 {
                        let mean = sums[b] / counts[b] as f64;
                        score += sqs[b] - counts[b] as f64 * mean * mean;
                    }
                }
                if score > best_score {
                    best_score = score;
                    best_dim = d;
                }
            }

            // Median threshold per node.
            let mut node_vals: Vec<Vec<f32>> = vec![Vec::new(); num_nodes];
            for i in 0..n {
                node_vals[buckets[i]].push(data.get(i, best_dim));
            }
            let mut level_thresh = Vec::with_capacity(num_nodes);
            for vals in &mut node_vals {
                if vals.is_empty() {
                    level_thresh.push(0.0);
                } else {
                    // total_cmp: one NaN activation must not panic the fit.
                    vals.sort_by(f32::total_cmp);
                    let mid = vals.len() / 2;
                    // Midpoint between the halves generalizes better than the
                    // median value itself for queries between clusters.
                    let t = if mid == 0 { vals[0] } else { 0.5 * (vals[mid - 1] + vals[mid]) };
                    level_thresh.push(t);
                }
            }

            // Route points down one level.
            #[allow(clippy::needless_range_loop)] // i indexes data rows and buckets together
            for i in 0..n {
                let b = buckets[i];
                let right = data.get(i, best_dim) > level_thresh[b];
                buckets[i] = 2 * b + usize::from(right);
            }
            split_dims.push(best_dim);
            debug_assert_eq!(thresholds.len(), num_nodes - 1);
            thresholds.extend_from_slice(&level_thresh);
        }

        HashTree { split_dims, thresholds, k }
    }
}

/// The per-subspace encoder variant.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum Encoder {
    Argmin,
    HashTree(HashTree),
}

/// Prototypes + encoder for one subspace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Quantizer {
    /// Learned prototypes, `K x V` (`P^c_k` in the paper).
    pub prototypes: Matrix,
    encoder: Encoder,
}

impl Quantizer {
    /// Fit on subvectors (`n x v`).
    pub fn fit(data: &Matrix, k: usize, kind: EncoderKind, seed: u64) -> Quantizer {
        assert!(k >= 1, "K must be positive");
        match kind {
            EncoderKind::Argmin => {
                let res = kmeans(data, &KMeansConfig { k, seed, ..Default::default() });
                Quantizer { prototypes: res.centroids, encoder: Encoder::Argmin }
            }
            EncoderKind::HashTree => {
                let tree = HashTree::fit(data, k);
                // Prototypes = bucket means over the training data.
                let v = data.cols();
                let mut sums = Matrix::zeros(k, v);
                let mut counts = vec![0usize; k];
                for i in 0..data.rows() {
                    let b = tree.encode(data.row(i));
                    counts[b] += 1;
                    for (s, &x) in sums.row_mut(b).iter_mut().zip(data.row(i)) {
                        *s += x;
                    }
                }
                // Empty buckets fall back to the global mean.
                let global = data.mean_rows();
                #[allow(clippy::needless_range_loop)] // b indexes counts and sums rows in lockstep
                for b in 0..k {
                    if counts[b] > 0 {
                        let inv = 1.0 / counts[b] as f32;
                        for s in sums.row_mut(b) {
                            *s *= inv;
                        }
                    } else {
                        sums.row_mut(b).copy_from_slice(global.row(0));
                    }
                }
                Quantizer { prototypes: sums, encoder: Encoder::HashTree(tree) }
            }
        }
    }

    /// Number of prototypes `K`.
    pub fn num_protos(&self) -> usize {
        self.prototypes.rows()
    }

    /// Subspace dimensionality `V`.
    pub fn sub_dim(&self) -> usize {
        self.prototypes.cols()
    }

    /// Encode a subvector to its prototype index (`g_c`, Eq. 7).
    #[inline]
    pub fn encode(&self, sub: &[f32]) -> usize {
        debug_assert_eq!(sub.len(), self.sub_dim());
        match &self.encoder {
            Encoder::Argmin => nearest_centroid(sub, &self.prototypes).0,
            Encoder::HashTree(tree) => tree.encode(sub),
        }
    }
}

/// Split `dim` into `c` contiguous chunks whose sizes differ by at most one.
/// When `c > dim`, the subspace count is clamped to `dim`.
pub fn subspace_bounds(dim: usize, c: usize) -> Vec<(usize, usize)> {
    assert!(dim > 0, "dim must be positive");
    let c = c.clamp(1, dim);
    let base = dim / c;
    let extra = dim % c;
    let mut bounds = Vec::with_capacity(c);
    let mut start = 0;
    for i in 0..c {
        let len = base + usize::from(i < extra);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// A product quantizer: one per-subspace encoder over each contiguous
/// chunk of a `dim`-dimensional vector space, with every subspace's
/// prototypes stored in one flat [`CodebookArena`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProductQuantizer {
    dim: usize,
    bounds: Vec<(usize, usize)>,
    codebook: CodebookArena,
    encoders: Vec<Encoder>,
}

impl ProductQuantizer {
    /// Fit on the rows of `data` (`n x dim`), with `c` subspaces and `k`
    /// prototypes per subspace. Subspaces are fitted in parallel, then
    /// their prototypes are packed into the flat codebook arena.
    pub fn fit(data: &Matrix, c: usize, k: usize, kind: EncoderKind, seed: u64) -> Self {
        let dim = data.cols();
        let bounds = subspace_bounds(dim, c);
        let quantizers: Vec<Quantizer> = bounds
            .par_iter()
            .enumerate()
            .map(|(ci, &(lo, hi))| {
                let sub = data.slice_cols(lo, hi);
                Quantizer::fit(&sub, k, kind, seed.wrapping_add(ci as u64 * 0x9E37))
            })
            .collect();
        let (protos, encoders): (Vec<Matrix>, Vec<Encoder>) =
            quantizers.into_iter().map(|q| (q.prototypes, q.encoder)).unzip();
        let codebook = CodebookArena::from_prototype_matrices(&protos);
        ProductQuantizer { dim, bounds, codebook, encoders }
    }

    /// Check the agreements the encoders index by, which a model file can
    /// break and `Deserialize` does not see (each field parses on its own):
    /// `bounds` tile `0..dim` contiguously with one codebook subspace of the
    /// same width and one encoder each, and every hash tree stays inside its
    /// subspace.
    pub fn validate(&self) -> Result<(), String> {
        let c = self.bounds.len();
        if c == 0 || c != self.codebook.num_subspaces() || c != self.encoders.len() {
            return Err(format!(
                "quantizer has {c} bounds, {} codebook subspaces, {} encoders",
                self.codebook.num_subspaces(),
                self.encoders.len()
            ));
        }
        let mut at = 0;
        for (ci, &(lo, hi)) in self.bounds.iter().enumerate() {
            if lo != at || hi <= lo || hi - lo != self.codebook.sub_dim(ci) {
                return Err(format!(
                    "quantizer subspace {ci} spans {lo}..{hi} (previous ends at {at}), its \
                     codebook block is {}-dimensional",
                    self.codebook.sub_dim(ci)
                ));
            }
            at = hi;
            if let Encoder::HashTree(tree) = &self.encoders[ci] {
                tree.validate(hi - lo, self.codebook.num_protos())
                    .map_err(|e| format!("quantizer subspace {ci}: {e}"))?;
            }
        }
        if at != self.dim {
            return Err(format!("quantizer bounds end at {at}, dim is {}", self.dim));
        }
        Ok(())
    }

    /// Full vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Effective number of subspaces `C` (clamped to `dim`).
    pub fn num_subspaces(&self) -> usize {
        self.bounds.len()
    }

    /// Prototypes per subspace `K`.
    pub fn num_protos(&self) -> usize {
        self.codebook.num_protos()
    }

    /// Subspace column ranges.
    pub fn bounds(&self) -> &[(usize, usize)] {
        &self.bounds
    }

    /// The flat dimension-major prototype arena.
    pub fn codebook(&self) -> &CodebookArena {
        &self.codebook
    }

    /// Prototype `k` of subspace `ci`, copied out of the arena (fit-time
    /// and test use; see [`CodebookArena::proto`]).
    pub fn proto(&self, ci: usize, k: usize) -> Vec<f32> {
        self.codebook.proto(ci, k)
    }

    /// Encode one subvector against subspace `ci`'s encoder: the
    /// one-subvector form of [`Self::encode_batch_into`], through the same
    /// process-wide argmin dispatch.
    #[inline]
    pub fn encode_sub(&self, ci: usize, sub: &[f32]) -> usize {
        self.encode_sub_with(ci, sub, simd::nearest_dim_major())
    }

    /// [`Self::encode_sub`] with the argmin distance scan over the
    /// codebook arena running through `nearest`, which callers resolve once
    /// per call instead of once per subvector (a hash tree ignores it).
    /// Codes are identical whichever scan is passed — every level's
    /// distances are bit-exact, so the strict-`<` argmin picks the same
    /// prototype. The one-subvector step of [`Self::encode_run`]; batch
    /// kernels go through that, not through a loop over this.
    #[inline]
    pub(crate) fn encode_sub_with(&self, ci: usize, sub: &[f32], nearest: NearestFn) -> usize {
        match &self.encoders[ci] {
            Encoder::Argmin => {
                nearest(sub, self.codebook.subspace(ci), self.codebook.num_protos()).0
            }
            Encoder::HashTree(tree) => tree.encode(sub),
        }
    }

    /// The block-encode primitive every batch kernel encodes through:
    /// subspace `ci`'s codes of the `n` subvectors `sub(0) .. sub(n - 1)`,
    /// handed to `emit(i, code)` in index order, where the caller consumes
    /// them (stores them, or adds the table row they name).
    ///
    /// A hash tree walks whole blocks of [`ENCODE_LANES`] subvectors
    /// level-major ([`HashTree::encode_lanes`]) and the remaining
    /// `n % ENCODE_LANES` singly, so a one-row call pays for one walk. An
    /// argmin quantizer has its width inside the scan already and takes the
    /// single-subvector step for all `n`. Either way `emit` sees exactly
    /// the codes of [`Self::encode_sub_with`] per subvector.
    #[inline]
    pub(crate) fn encode_run<'a>(
        &self,
        ci: usize,
        n: usize,
        nearest: NearestFn,
        sub: impl Fn(usize) -> &'a [f32],
        mut emit: impl FnMut(usize, usize),
    ) {
        let mut done = 0;
        if let Encoder::HashTree(tree) = &self.encoders[ci] {
            while done + ENCODE_LANES <= n {
                let codes =
                    tree.encode_lanes::<ENCODE_LANES>(std::array::from_fn(|l| sub(done + l)));
                for (l, code) in codes.into_iter().enumerate() {
                    emit(done + l, code);
                }
                done += ENCODE_LANES;
            }
        }
        for i in done..n {
            emit(i, self.encode_sub_with(ci, sub(i), nearest));
        }
    }

    /// Encode a full row into `C` prototype indices.
    pub fn encode_row(&self, row: &[f32]) -> Vec<usize> {
        let mut codes = vec![0usize; self.bounds.len()];
        self.encode_row_into(row, &mut codes);
        codes
    }

    /// Encode into a caller-provided buffer (avoids allocation).
    #[inline]
    pub fn encode_row_into(&self, row: &[f32], out: &mut [usize]) {
        let nearest = simd::nearest_dim_major();
        debug_assert_eq!(row.len(), self.dim);
        debug_assert_eq!(out.len(), self.bounds.len());
        for (ci, (slot, &(lo, hi))) in out.iter_mut().zip(&self.bounds).enumerate() {
            *slot = self.encode_sub_with(ci, &row[lo..hi], nearest);
        }
    }

    /// Encode every row of `x` into `out` (`rows * C` codes, row-major:
    /// code of row `r`, subspace `c` lands at `out[r * C + c]`).
    ///
    /// Tiled: rows are processed in blocks of [`ENCODE_TILE_ROWS`]; within
    /// a tile the loop runs subspace-major, each subspace encoding the
    /// tile's rows as one `encode_run` (hash trees [`ENCODE_LANES`]
    /// rows at a time). Tiles are independent, so they run rayon-parallel;
    /// codes are identical to calling [`Self::encode_row_into`] per row.
    /// The argmin distance scans run through the process-wide dispatch
    /// (`simd::nearest_dim_major`) without changing any code.
    pub fn encode_batch_into(&self, x: &Matrix, out: &mut [usize]) {
        self.encode_batch_into_with(x, out, simd::nearest_dim_major());
    }

    /// [`Self::encode_batch_into`] pinned to the per-centroid strided scan
    /// ([`simd::scalar::nearest_strided`]) — the reference path of the
    /// differential suites.
    pub fn encode_batch_scalar_into(&self, x: &Matrix, out: &mut [usize]) {
        self.encode_batch_into_with(x, out, simd::scalar::nearest_strided);
    }

    fn encode_batch_into_with(&self, x: &Matrix, out: &mut [usize], nearest: NearestFn) {
        let c = self.bounds.len();
        assert_eq!(x.cols(), self.dim, "encode dim mismatch");
        assert_eq!(out.len(), x.rows() * c, "code buffer size mismatch");
        crate::profile::profile_kernel("encode_batch", x.rows() as u64);
        out.par_chunks_mut(ENCODE_TILE_ROWS * c).enumerate().for_each(|(tile, chunk)| {
            let r0 = tile * ENCODE_TILE_ROWS;
            let rows = chunk.len() / c;
            for (ci, &(lo, hi)) in self.bounds.iter().enumerate() {
                self.encode_run(
                    ci,
                    rows,
                    nearest,
                    |rr| &x.row(r0 + rr)[lo..hi],
                    |rr, code| chunk[rr * c + ci] = code,
                );
            }
        });
    }

    /// Reconstruct an approximation of a row from its codes (testing aid).
    pub fn reconstruct(&self, codes: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        for ((ci, &(lo, hi)), &code) in self.bounds.iter().enumerate().zip(codes) {
            out[lo..hi].copy_from_slice(&self.codebook.proto(ci, code));
        }
        out
    }

    /// Mean squared reconstruction error over the rows of `data`.
    pub fn reconstruction_mse(&self, data: &Matrix) -> f64 {
        let mut total = 0.0f64;
        for i in 0..data.rows() {
            let codes = self.encode_row(data.row(i));
            let rec = self.reconstruct(&codes);
            total +=
                rec.iter().zip(data.row(i)).map(|(a, b)| ((a - b) * (a - b)) as f64).sum::<f64>();
        }
        total / (data.rows() * self.dim) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::init::InitRng;

    fn sample_data(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        // Two latent clusters per dimension pair for structure.
        Matrix::from_fn(n, dim, |r, _| {
            let base = if r % 2 == 0 { -2.0 } else { 2.0 };
            base + rng.normal() * 0.3
        })
    }

    #[test]
    fn subspace_bounds_cover_dim() {
        for dim in [1, 5, 8, 13] {
            for c in [1, 2, 3, 8, 20] {
                let b = subspace_bounds(dim, c);
                assert_eq!(b[0].0, 0);
                assert_eq!(b.last().unwrap().1, dim);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gaps in bounds");
                }
                let sizes: Vec<usize> = b.iter().map(|&(l, h)| h - l).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }

    #[test]
    fn argmin_encode_returns_nearest() {
        let data = sample_data(100, 4, 3);
        let q = Quantizer::fit(&data, 4, EncoderKind::Argmin, 7);
        for i in 0..20 {
            let code = q.encode(data.row(i));
            let (nearest, _) = nearest_centroid(data.row(i), &q.prototypes);
            assert_eq!(code, nearest);
        }
    }

    #[test]
    fn hash_tree_bucket_count_and_depth() {
        let data = sample_data(200, 4, 5);
        let q = Quantizer::fit(&data, 16, EncoderKind::HashTree, 7);
        assert_eq!(q.num_protos(), 16);
        if let Encoder::HashTree(t) = &q.encoder {
            assert_eq!(t.depth(), 4);
        } else {
            panic!("expected hash tree");
        }
        for i in 0..data.rows() {
            assert!(q.encode(data.row(i)) < 16);
        }
    }

    /// `K` = 24 is not a power of two: the depth-5 tree has 32 leaves, and
    /// leaves 24..32 fold onto `leaf % K` — in the fit (bucket means) and
    /// in every encode alike, so codes stay inside the table.
    #[test]
    fn hash_tree_with_non_power_of_two_k_stays_in_range() {
        let data = sample_data(400, 6, 41);
        let pq = ProductQuantizer::fit(&data, 2, 24, EncoderKind::HashTree, 7);
        assert_eq!(pq.validate(), Ok(()));
        let Encoder::HashTree(tree) = &pq.encoders[0] else { panic!("expected hash tree") };
        assert_eq!((tree.depth(), tree.num_buckets()), (5, 24));
        let mut batch = vec![0usize; data.rows() * 2];
        pq.encode_batch_into(&data, &mut batch);
        let mut folded = 0;
        for i in 0..data.rows() {
            let row = pq.encode_row(data.row(i));
            assert!(row.iter().all(|&code| code < 24), "row {i}: {row:?}");
            assert_eq!(row, batch[i * 2..(i + 1) * 2], "row {i}: batch vs row");
            let leaf = lone_leaf(tree, &data.row(i)[..3]);
            assert_eq!(row[0], leaf % 24);
            folded += usize::from(leaf >= 24);
        }
        assert!(folded > 0, "no training row reached a folded leaf: the fallback went untested");
    }

    /// The leaf one subvector reaches before folding, walked alone down
    /// the threshold heap: the reference the lane walk is held to.
    fn lone_leaf(tree: &HashTree, sub: &[f32]) -> usize {
        tree.split_dims.iter().enumerate().fold(0, |idx, (level, &dim)| {
            2 * idx + usize::from(sub[dim] > tree.thresholds[(1 << level) - 1 + idx])
        })
    }

    /// `encode_lanes::<8>` is eight lone walks: at `K` = 24 (depth 5,
    /// leaves 24..32 fold) and `K` = 256 (depth 8, DART-L), on training
    /// rows and on subvectors holding NaN, ±inf and every threshold value
    /// itself (`x > thr` is false at equality and for NaN: both go left).
    #[test]
    fn encode_lanes_equals_eight_lone_walks() {
        let data = sample_data(400, 6, 41);
        for (k, depth) in [(24usize, 5usize), (256, 8)] {
            let pq = ProductQuantizer::fit(&data, 2, k, EncoderKind::HashTree, 7);
            let Encoder::HashTree(tree) = &pq.encoders[0] else { panic!("expected hash tree") };
            assert_eq!((tree.depth(), tree.num_buckets()), (depth, k));
            let mut probes: Vec<Vec<f32>> =
                (0..data.rows()).map(|i| data.row(i)[..3].to_vec()).collect();
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for d in 0..3 {
                    let mut p = probes[d * 7].clone();
                    p[d] = special;
                    probes.push(p);
                }
                probes.push(vec![special; 3]);
            }
            for i in 0..tree.thresholds.len() {
                // On the path of training row `i`, one coordinate moved
                // onto a threshold; and the threshold in every coordinate.
                let mut p = probes[i % data.rows()].clone();
                p[i % 3] = tree.thresholds[i];
                probes.push(p);
                probes.push(vec![tree.thresholds[i]; 3]);
            }
            let mut folded = 0;
            for block in probes.chunks_exact(ENCODE_LANES) {
                let lanes =
                    tree.encode_lanes::<ENCODE_LANES>(std::array::from_fn(|l| &block[l][..]));
                for (l, sub) in block.iter().enumerate() {
                    let leaf = lone_leaf(tree, sub);
                    assert_eq!(lanes[l], leaf % k, "K {k} lane {l}: {sub:?}");
                    assert_eq!(tree.encode(sub), leaf % k, "K {k} one lane: {sub:?}");
                    folded += usize::from(leaf >= k);
                }
            }
            assert_eq!(folded > 0, k == 24, "K {k}: {folded} probes reached a folded leaf");
        }
    }

    /// `encode_run` hands out every index once, in order, with the code of
    /// a lone encode — whole lane blocks and the sub-block tail alike, for
    /// both encoders (an argmin quantizer is all tail).
    #[test]
    fn encode_run_covers_blocks_and_tail() {
        let data = sample_data(120, 6, 43);
        for kind in [EncoderKind::HashTree, EncoderKind::Argmin] {
            let pq = ProductQuantizer::fit(&data, 2, 16, kind, 3);
            let nearest = simd::nearest_dim_major();
            for n in [0, 1, ENCODE_LANES - 1, ENCODE_LANES, ENCODE_LANES + 1, 2 * ENCODE_LANES + 3]
            {
                for (ci, &(lo, hi)) in pq.bounds().iter().enumerate() {
                    let mut seen = Vec::new();
                    pq.encode_run(
                        ci,
                        n,
                        nearest,
                        |i| &data.row(i)[lo..hi],
                        |i, code| {
                            seen.push((i, code));
                        },
                    );
                    let want: Vec<(usize, usize)> =
                        (0..n).map(|i| (i, pq.encode_sub(ci, &data.row(i)[lo..hi]))).collect();
                    assert_eq!(seen, want, "{kind:?} n {n} subspace {ci}");
                }
            }
        }
    }

    #[test]
    fn hash_tree_separates_clusters() {
        // Two well-separated clusters must land in different buckets.
        let mut data = Matrix::zeros(100, 2);
        for i in 0..50 {
            data.set(i, 0, -5.0 + (i as f32) * 0.01);
            data.set(i, 1, -5.0);
        }
        for i in 50..100 {
            data.set(i, 0, 5.0 + (i as f32) * 0.01);
            data.set(i, 1, 5.0);
        }
        let q = Quantizer::fit(&data, 2, EncoderKind::HashTree, 1);
        let a = q.encode(&[-5.0, -5.0]);
        let b = q.encode(&[5.0, 5.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn product_quantizer_roundtrip_shapes() {
        let data = sample_data(120, 8, 9);
        let pq = ProductQuantizer::fit(&data, 4, 8, EncoderKind::Argmin, 11);
        assert_eq!(pq.num_subspaces(), 4);
        assert_eq!(pq.num_protos(), 8);
        let codes = pq.encode_row(data.row(0));
        assert_eq!(codes.len(), 4);
        assert_eq!(pq.reconstruct(&codes).len(), 8);
    }

    #[test]
    fn more_prototypes_reduce_reconstruction_error() {
        let data = sample_data(300, 8, 13);
        let lo = ProductQuantizer::fit(&data, 2, 2, EncoderKind::Argmin, 1);
        let hi = ProductQuantizer::fit(&data, 2, 32, EncoderKind::Argmin, 1);
        assert!(
            hi.reconstruction_mse(&data) < lo.reconstruction_mse(&data),
            "more prototypes should reconstruct better"
        );
    }

    #[test]
    fn clamps_subspaces_to_dim() {
        let data = sample_data(50, 3, 17);
        let pq = ProductQuantizer::fit(&data, 8, 4, EncoderKind::Argmin, 1);
        assert_eq!(pq.num_subspaces(), 3);
    }

    #[test]
    fn encode_row_into_matches_encode_row() {
        let data = sample_data(60, 6, 19);
        let pq = ProductQuantizer::fit(&data, 3, 4, EncoderKind::HashTree, 23);
        let mut buf = vec![0usize; 3];
        for i in 0..10 {
            pq.encode_row_into(data.row(i), &mut buf);
            assert_eq!(buf, pq.encode_row(data.row(i)));
        }
    }

    /// `validate` sees what field-by-field deserialization cannot: bounds
    /// that disagree with the codebook, and a hash tree that would index
    /// outside its subvector.
    #[test]
    fn validate_rejects_parts_that_do_not_fit_together() {
        let data = sample_data(120, 6, 31);
        for kind in [EncoderKind::Argmin, EncoderKind::HashTree] {
            let pq = ProductQuantizer::fit(&data, 2, 8, kind, 5);
            assert_eq!(pq.validate(), Ok(()));
            let json = serde_json::to_string(&pq).unwrap();
            let shifted = json.replace("\"bounds\":[[0,3],[3,6]]", "\"bounds\":[[0,2],[2,6]]");
            assert_ne!(shifted, json, "fixture drifted: {json}");
            let torn: ProductQuantizer = serde_json::from_str(&shifted).unwrap();
            assert!(torn.validate().unwrap_err().contains("codebook block is 3-dimensional"));
        }
        let mut tree = ProductQuantizer::fit(&data, 2, 8, EncoderKind::HashTree, 5);
        let Encoder::HashTree(t) = &mut tree.encoders[1] else { panic!("expected hash tree") };
        t.split_dims[0] = 3;
        assert!(tree.validate().unwrap_err().contains("splits on dim 3 of a 3-dim subspace"));
    }

    #[test]
    fn argmin_beats_or_matches_hash_tree_on_reconstruction() {
        let data = sample_data(300, 8, 29);
        let exact = ProductQuantizer::fit(&data, 2, 16, EncoderKind::Argmin, 1);
        let tree = ProductQuantizer::fit(&data, 2, 16, EncoderKind::HashTree, 1);
        // Argmin over k-means centroids is the accuracy upper bound; allow a
        // small tolerance because the tree trains its own prototypes.
        assert!(exact.reconstruction_mse(&data) <= tree.reconstruction_mse(&data) * 1.5);
    }
}
