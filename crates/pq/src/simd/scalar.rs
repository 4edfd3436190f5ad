//! The row primitives of the tiled batch kernels: plain loops over one
//! contiguous slice each, which the compiler auto-vectorises. The batch
//! kernels and the row-at-a-time references share these bodies, so they
//! define the semantics (operation order, `0.0 + x` initialization).

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
