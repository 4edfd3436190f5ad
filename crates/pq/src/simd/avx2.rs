//! AVX2 (8-lane f32) argmin scan.
//!
//! Mirrors [`crate::kmeans::nearest_centroid_flat`] lane by lane: vector
//! lanes map 1:1 onto centroids, each lane executes the exact scalar
//! operation sequence (separate `sub`/`mul`/`add`, never FMA), and the
//! ragged tail falls back to the scalar body. That makes the result
//! bit-for-bit identical to scalar — the property the differential suites
//! assert — while 8 centroids are scanned per instruction.
//!
//! Safety: [`nearest_flat`] is only reachable through `super::detect`,
//! which hands it out after `is_x86_feature_detected!("avx2")` succeeded,
//! and through tests that perform the same check.

// The whole point of this module is intrinsics. (Safety story above.)
#![allow(unsafe_code)]

use std::arch::x86_64::{
    _mm256_add_ps, _mm256_i32gather_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setr_epi32,
    _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps,
};

const LANES: usize = 8;

pub fn nearest_flat(point: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
    // Release-mode asserts, not debug_asserts: this is the safe boundary
    // in front of unchecked vector gathers, so a mismatched shape must
    // panic — never read out of bounds — in every build profile. Three
    // compares per scan are noise next to the `K x dim` work behind them.
    assert!(dim > 0, "nearest_flat over zero-dim subspace");
    assert_eq!(point.len(), dim, "nearest_flat point length mismatch");
    assert_eq!(centroids.len() % dim, 0, "nearest_flat ragged centroid block");
    // SAFETY: AVX2 is present (dispatch gate, module docs); the shape
    // contracts `nearest_flat_avx2` relies on were asserted just above.
    unsafe { nearest_flat_avx2(point, centroids, dim) }
}

/// # Safety
/// Caller must guarantee AVX2 is available, `point.len() == dim > 0`, and
/// `centroids.len()` is a multiple of `dim`: the vector path gathers at
/// byte offsets up to `dim * (LANES - 1)` past each 8-centroid base, which
/// stays inside `centroids` exactly when those shape contracts hold.
#[target_feature(enable = "avx2")]
unsafe fn nearest_flat_avx2(point: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
    let k = centroids.len() / dim;
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    let mut c0 = 0usize;
    if dim * (LANES - 1) <= i32::MAX as usize {
        // Lane l scans centroid c0 + l: a stride-`dim` gather per input
        // dimension, accumulating (p - c)^2 in dimension order — the
        // per-centroid operation sequence of `sq_dist`, 8 rows at a time.
        let stride = _mm256_setr_epi32(
            0,
            dim as i32,
            2 * dim as i32,
            3 * dim as i32,
            4 * dim as i32,
            5 * dim as i32,
            6 * dim as i32,
            7 * dim as i32,
        );
        while c0 + LANES <= k {
            let base = centroids.as_ptr().add(c0 * dim);
            let mut acc = _mm256_setzero_ps();
            for d in 0..dim {
                let p = _mm256_set1_ps(*point.get_unchecked(d));
                let c = _mm256_i32gather_ps::<4>(base.add(d), stride);
                let diff = _mm256_sub_ps(p, c);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
            }
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            // Strict `<` in ascending centroid order: first minimum wins,
            // matching the scalar scan's tie-break exactly.
            for (l, &d2) in lanes.iter().enumerate() {
                if d2 < best_d {
                    best_d = d2;
                    best = c0 + l;
                }
            }
            c0 += LANES;
        }
    }
    for (c, row) in centroids[c0 * dim..].chunks_exact(dim).enumerate() {
        let d2 = dart_nn::matrix::sq_dist(point, row);
        if d2 < best_d {
            best_d = d2;
            best = c0 + c;
        }
    }
    (best, best_d)
}
