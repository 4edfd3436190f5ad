//! The argmin scan re-compiled for AVX2.
//!
//! No intrinsics: [`nearest_dim_major`] is [`super::scalar::scan_blocks`]
//! — the safe body the baseline level runs — inlined into a function
//! compiled with `#[target_feature(enable = "avx2")]`, so the compiler
//! lowers the same 16-centroid accumulator block to two 8-lane registers
//! instead of four 4-lane ones. The operation sequence per centroid is the
//! source's (AVX2 does not enable FMA and rustc never contracts `a * b + c`
//! on its own), hence the same bits as every other level.

pub fn nearest_dim_major(point: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    // SAFETY: the only requirement of a `#[target_feature]` function is
    // that the CPU has the feature. This function is reachable only through
    // `super::detect`, which hands it out after
    // `is_x86_feature_detected!("avx2")` succeeded, and through tests that
    // perform the same check.
    unsafe { scan_avx2(point, cols, k) }
}

#[target_feature(enable = "avx2")]
fn scan_avx2(point: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    super::scalar::scan_blocks(point, cols, k)
}
