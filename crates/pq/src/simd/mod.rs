//! Kernel dispatch: the one primitive with two implementations.
//!
//! The argmin distance scan over a flat `K x dim` centroid block
//! (`nearest_flat`) is the only inner loop where a hand-written vector
//! kernel measurably beats the compiler: the AVX2 scan roughly doubles
//! end-to-end prediction throughput, while hand-written AVX2 for the
//! row-accumulate / gather loops in [`scalar`] is at parity with
//! the auto-vectorised bodies on every benchmark workload. So those loops
//! are plain functions called directly, and only the argmin scan is
//! dispatched.
//!
//! The AVX2 scan keeps the scalar per-centroid operation sequence
//! (separate subtract / multiply / add in dimension order, strict `<`
//! first-minimum-wins), so codes are **bit-for-bit identical** at either
//! level — the differential suites (`tests/integration_kernels_diff.rs`,
//! the proptests below) compare it against
//! [`crate::kmeans::nearest_centroid_flat`].
//!
//! ## Dispatch rules
//!
//! The level is resolved once per process from what the process observes
//! and cached (`OnceLock`): `ServeRuntime::start` resolves it on the
//! caller's thread before spawning workers; otherwise the first kernel
//! call does.
//!
//! * `x86_64` with `is_x86_feature_detected!("avx2")`: [`SimdLevel::Avx2`].
//! * Anything else (older x86, every other architecture):
//!   [`SimdLevel::Scalar`].
//! * `DART_SIMD=off` (or `scalar`/`0`) forces the scalar scan — the
//!   debugging escape hatch, and how CI keeps the process-wide scalar
//!   dispatch exercised on AVX2 runners. Any other value except
//!   `auto`/empty panics, matching the strict `DART_NUM_THREADS` parsing.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::sync::OnceLock;

use crate::kmeans::nearest_centroid_flat;

/// Which argmin kernel the process dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable scalar scan (the mandatory fallback and reference).
    Scalar,
    /// The 8-lane f32 AVX2 scan (`std::arch::x86_64`).
    Avx2,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        })
    }
}

/// An argmin scan over a flat `K x dim` centroid block: index + squared
/// distance of the nearest row, scanning rows in order with strict `<`
/// (first minimum wins) and per-row accumulation order `d = 0, 1, …` —
/// [`nearest_centroid_flat`] exactly, whichever implementation runs.
pub(crate) type NearestFlatFn = fn(&[f32], &[f32], usize) -> (usize, f32);

fn dispatch() -> (SimdLevel, NearestFlatFn) {
    static DISPATCH: OnceLock<(SimdLevel, NearestFlatFn)> = OnceLock::new();
    *DISPATCH.get_or_init(|| {
        let value = std::env::var("DART_SIMD").ok();
        let forced_scalar = forced_scalar(value.as_deref()).unwrap_or_else(|msg| panic!("{msg}"));
        let resolved = detect(forced_scalar);
        dart_telemetry::global()
            .gauge(
                "dart_pq_simd_level",
                "Argmin kernel this process dispatches to (info series, always 1).",
                &[("level", &resolved.0.to_string())],
            )
            .set(1);
        resolved
    })
}

/// The kernel level this process resolved to (see the module docs for
/// the rules). Forces the resolution, so calling it at start-up surfaces
/// a malformed `DART_SIMD` on the caller's thread.
pub fn active_level() -> SimdLevel {
    dispatch().0
}

/// The dispatched argmin scan. Batch kernels fetch it once per call and
/// run every subvector through it, so dispatch costs one `OnceLock` load
/// per batch, not per element.
pub(crate) fn nearest_flat() -> NearestFlatFn {
    dispatch().1
}

/// Interpret a `DART_SIMD` value: `Ok(true)` = forced scalar, `Ok(false)`
/// = autodetect (unset, empty or `auto`); anything else is an error (same
/// strictness as `DART_NUM_THREADS`).
fn forced_scalar(value: Option<&str>) -> Result<bool, String> {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        None | Some("" | "auto") => Ok(false),
        Some("off" | "scalar" | "0") => Ok(true),
        Some(other) => {
            Err(format!("DART_SIMD must be `auto`, `off`, `scalar`, or `0`, got `{other}`"))
        }
    }
}

fn detect(forced_scalar: bool) -> (SimdLevel, NearestFlatFn) {
    #[cfg(target_arch = "x86_64")]
    if !forced_scalar && std::arch::is_x86_feature_detected!("avx2") {
        return (SimdLevel::Avx2, avx2::nearest_flat);
    }
    let _ = forced_scalar; // only read on x86_64
    (SimdLevel::Scalar, nearest_centroid_flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random f32 including negative zero and large
    /// magnitudes (bit-exactness must not depend on "nice" values).
    fn val(seed: u64, i: usize) -> f32 {
        let h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let m = (h >> 40) as i32 - (1 << 23);
        match h % 37 {
            0 => -0.0,
            1 => 0.0,
            _ => m as f32 * 1.73e-3,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dispatched argmin matches the scalar scan exactly — same index
        /// (first-minimum tie-break included) and same distance bits — for
        /// centroid counts straddling the 8-lane AVX2 block.
        #[test]
        fn dispatched_nearest_flat_matches_scalar(
            seed in 0u64..10_000,
            k in 1usize..21,
            dim in 1usize..9,
            dup in proptest::bool::ANY,
        ) {
            let mut cents: Vec<f32> = (0..k * dim).map(|i| val(seed, i)).collect();
            if dup && k > 1 {
                // Force exact duplicate rows so the first-wins tie-break is
                // actually exercised.
                let (head, tail) = cents.split_at_mut(dim);
                tail[(k - 2) * dim..].copy_from_slice(head);
            }
            let point: Vec<f32> = (0..dim).map(|i| val(seed ^ 0xF0, i)).collect();
            let (di, dd) = nearest_flat()(&point, &cents, dim);
            let (si, sd) = nearest_centroid_flat(&point, &cents, dim);
            prop_assert_eq!(di, si, "argmin index");
            prop_assert_eq!(dd.to_bits(), sd.to_bits(), "argmin distance bits");
        }
    }

    #[test]
    fn dart_simd_values_parse_strictly() {
        for auto in [None, Some(""), Some("auto"), Some(" AUTO ")] {
            assert_eq!(forced_scalar(auto), Ok(false), "{auto:?}");
        }
        for off in ["off", "scalar", "0", " Off\n"] {
            assert_eq!(forced_scalar(Some(off)), Ok(true), "{off:?}");
        }
        for bad in ["bogus", "avx2", "1", "on"] {
            let err = forced_scalar(Some(bad)).expect_err(bad);
            assert!(err.contains("DART_SIMD") && err.contains(bad), "{err}");
        }
    }

    /// `DART_SIMD=off` resolves to the scalar scan on every host.
    #[test]
    fn forced_scalar_dispatches_scalar() {
        assert_eq!(detect(true).0, SimdLevel::Scalar);
    }

    #[test]
    fn resolved_level_is_exported_as_an_info_series() {
        let level = active_level();
        let doc = dart_telemetry::global().render();
        assert!(doc.contains(&format!("dart_pq_simd_level{{level=\"{level}\"}} 1")), "{doc}");
    }

    /// The AVX2 scan is exercised directly (bypassing the cached dispatch,
    /// which `DART_SIMD=off` may have pinned to scalar) whenever the host
    /// supports it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_directly() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        for k in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 33] {
            let dim = 5usize;
            let cents: Vec<f32> = (0..k * dim).map(|i| val(0xCE, i)).collect();
            let point: Vec<f32> = (0..dim).map(|i| val(0xBD, i)).collect();
            let got = avx2::nearest_flat(&point, &cents, dim);
            let want = nearest_centroid_flat(&point, &cents, dim);
            assert_eq!(got.0, want.0, "argmin index k={k}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "argmin bits k={k}");
        }
    }
}
