//! The row primitives of the tiled batch kernels: plain loops over one
//! contiguous slice each, which the compiler auto-vectorises. The batch
//! kernels and the row-at-a-time references share these bodies, so they
//! define the semantics (operation order, `0.0 + x` initialization).
//!
//! The argmin scan over a dimension-major codebook block lives here too:
//! [`nearest_strided`] is the per-centroid reference, [`scan_blocks`] the
//! blocked body every dispatch level compiles.

/// Centroids per accumulator block of [`scan_blocks`]: two AVX2 or four
/// SSE2 registers. Wider blocks (32, 64) measured slower: the select over
/// a block is a serial compare / min / cmov chain, one link per centroid,
/// so what a block costs beyond its distance sweep is how often it holds
/// a new minimum — which `scan_blocks` tests before walking it.
const BLOCK: usize = 16;

/// Continue an argmin scan over centroids `from..k` of a dimension-major
/// `point.len() x k` block, one centroid at a time: a stride-`k` walk
/// accumulating `(p - c)^2` in dimension order from `0.0`
/// (`dart_nn::matrix::sq_dist`'s sequence), ascending, strict `<`.
#[inline(always)]
fn scan_strided(
    point: &[f32],
    cols: &[f32],
    k: usize,
    from: usize,
    mut best: (usize, f32),
) -> (usize, f32) {
    for c in from..k {
        let mut d2 = 0.0;
        for (&p, col) in point.iter().zip(cols.chunks_exact(k)) {
            let diff = p - col[c];
            d2 += diff * diff;
        }
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

/// Index and squared distance of the centroid nearest to `point` in a
/// dimension-major block (`cols[d * k + c]` is coordinate `d` of centroid
/// `c`), one centroid at a time: ascending scan, strict `<`, so the first
/// minimum wins and a NaN distance is never selected (an all-NaN scan
/// returns `(0, +inf)`). The reference every dispatch level is compared
/// against, bit for bit.
pub fn nearest_strided(point: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    assert!(k > 0, "argmin over zero centroids");
    assert_eq!(cols.len(), point.len() * k, "centroid block is not point.len() x k");
    scan_strided(point, cols, k, 0, (0, f32::INFINITY))
}

/// [`nearest_strided`], [`BLOCK`] centroids at a time: one accumulator per
/// centroid, swept over `d = 0, 1, …` with contiguous column loads, then
/// the same ascending strict-`<` scan over the block — skipped when no
/// lane is below the running minimum, which is most blocks after the first
/// and skips nothing the scan would have taken (a NaN lane compares false
/// in the test as it does in the scan); the `k mod BLOCK` tail runs the
/// strided loop. Lanes map onto centroids, never onto the reduction
/// dimension, and subtract / multiply / add stay separate, so every
/// distance — and therefore every index — has the reference's bits.
///
/// Used as a function pointer it is the build's baseline compile (SSE2
/// lanes on x86-64) — the `SimdLevel::Scalar` kernel; `#[inline(always)]`
/// lets `avx2.rs` get its own compile of the same body under its own
/// target features.
#[inline(always)]
pub(super) fn scan_blocks(point: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    // Release-mode asserts: a mis-shaped block (a damaged model file that
    // got past load-time validation would be the only source) must panic
    // here rather than scan the wrong columns.
    assert!(k > 0, "argmin over zero centroids");
    assert_eq!(cols.len(), point.len() * k, "centroid block is not point.len() x k");
    let mut best = (0usize, f32::INFINITY);
    let full = k - k % BLOCK;
    for c0 in (0..full).step_by(BLOCK) {
        let mut acc = [0.0f32; BLOCK];
        for (&p, col) in point.iter().zip(cols.chunks_exact(k)) {
            for (a, &c) in acc.iter_mut().zip(&col[c0..c0 + BLOCK]) {
                let diff = p - c;
                *a += diff * diff;
            }
        }
        // A branch-free any-lane test (two vector compares and a mask test)
        // in front of the 16-link dependent chain below.
        if acc.iter().fold(false, |any, &d2| any | (d2 < best.1)) {
            for (l, &d2) in acc.iter().enumerate() {
                if d2 < best.1 {
                    best = (c0 + l, d2);
                }
            }
        }
    }
    scan_strided(point, cols, k, full, best)
}

/// `dst[j] = 0.0 + src[j]`. The explicit `0.0 +` is load-bearing: it
/// normalizes `-0.0` to `+0.0` exactly as the accumulating loops do, so a
/// first-pass "initialize" is bit-identical to "zero-fill then add".
pub fn init_row(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = 0.0 + s;
    }
}

/// `dst[j] += src[j]`.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[j] = 0.0 + row[idx[j]]`.
pub fn gather_init(dst: &mut [f32], row: &[f32], idx: &[i32]) {
    for (d, &i) in dst.iter_mut().zip(idx) {
        *d = 0.0 + row[i as usize];
    }
}

/// `dst[j] += row[idx[j]]`.
pub fn gather_add(dst: &mut [f32], row: &[f32], idx: &[i32]) {
    for (d, &i) in dst.iter_mut().zip(idx) {
        *d += row[i as usize];
    }
}
