//! Kernel dispatch: the one primitive compiled twice.
//!
//! The argmin distance scan over a dimension-major `dim x K` centroid
//! block is the encode of an [`crate::EncoderKind::Argmin`] model — the
//! exact-scan ablation, where it is nine tenths of a prediction — and the
//! Lloyd assignment step of every k-means fit. A model built with the
//! default hash-tree encoder never reaches it at serve time. It is the one
//! inner loop whose speed depends on the vector width it is compiled for:
//! one safe body ([`scalar`]'s `scan_blocks`: a 16-centroid accumulator
//! block swept over contiguous coordinate columns, which the compiler
//! vectorises, then a serial select over the block, skipped when no lane
//! beats the running minimum), compiled
//! once for the build's baseline target and once under
//! `#[target_feature(enable = "avx2")]`; the AVX2 compile is about a third
//! faster end to end (`BENCH_20.json`, `BENCH_22.json`). The
//! row-accumulate / gather loops in [`scalar`] measure the same either
//! way, so they are plain functions called directly, and only the argmin
//! scan is dispatched.
//!
//! Both compiles keep the per-centroid operation sequence of the strided
//! reference [`scalar::nearest_strided`] (separate subtract / multiply /
//! add in dimension order, strict `<` first-minimum-wins; lanes are
//! centroids, never the reduction dimension), so codes are **bit-for-bit
//! identical** at either level — the differential suites
//! (`tests/integration_kernels_diff.rs`, the proptests below) compare both
//! against it.
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
//! * `DART_SIMD=off` (or `scalar`/`0`) forces the baseline compile — the
//!   debugging escape hatch, and how CI keeps the process-wide baseline
//!   dispatch exercised on AVX2 runners. Any other value except
//!   `auto`/empty panics, matching the strict `DART_NUM_THREADS` parsing.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::sync::OnceLock;

/// Which compile of the argmin scan the process dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The scan compiled for the build's baseline target (the mandatory
    /// fallback; 4-lane SSE2 on x86-64).
    Scalar,
    /// The same scan compiled with AVX2 enabled (8-lane f32).
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

/// An argmin scan `(point, cols, k)` over a dimension-major
/// `point.len() x k` centroid block: index + squared distance of the
/// nearest centroid, scanning centroids in order with strict `<` (first
/// minimum wins) and per-centroid accumulation order `d = 0, 1, …` —
/// [`scalar::nearest_strided`] exactly, whichever compile runs.
pub(crate) type NearestFn = fn(&[f32], &[f32], usize) -> (usize, f32);

fn dispatch() -> (SimdLevel, NearestFn) {
    static DISPATCH: OnceLock<(SimdLevel, NearestFn)> = OnceLock::new();
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
pub(crate) fn nearest_dim_major() -> NearestFn {
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

fn detect(forced_scalar: bool) -> (SimdLevel, NearestFn) {
    #[cfg(target_arch = "x86_64")]
    if !forced_scalar && std::arch::is_x86_feature_detected!("avx2") {
        return (SimdLevel::Avx2, avx2::nearest_dim_major);
    }
    let _ = forced_scalar; // only read on x86_64
    (SimdLevel::Scalar, scalar::scan_blocks)
}

#[cfg(test)]
mod tests {
    use super::scalar::nearest_strided;
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

    /// Centroid counts around the 16-centroid block (tail only, exactly
    /// one block, block + tail, several blocks) plus the model shapes'.
    fn centroid_counts() -> impl Strategy<Value = usize> {
        (0usize..44).prop_map(|i| if i < 40 { i + 1 } else { [127, 128, 129, 256][i - 40] })
    }

    /// 1..=17 plus the attention kernel's widest subvector.
    fn dims() -> impl Strategy<Value = usize> {
        (0usize..18).prop_map(|i| if i < 17 { i + 1 } else { 64 })
    }

    /// A `dim x k` dimension-major block and a point. `special` overwrites
    /// a few coordinates with -0.0 / ±inf / NaN; `dup` copies centroid 0
    /// over the last two so the first-wins tie-break is actually exercised
    /// across a block boundary.
    fn case(seed: u64, k: usize, dim: usize, dup: bool, special: bool) -> (Vec<f32>, Vec<f32>) {
        let mut cols: Vec<f32> = (0..k * dim).map(|i| val(seed, i)).collect();
        let mut point: Vec<f32> = (0..dim).map(|i| val(seed ^ 0xF0, i)).collect();
        if special {
            const SPECIALS: [f32; 4] = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            for (n, &v) in SPECIALS.iter().enumerate() {
                let at = (seed as usize).wrapping_mul(31).wrapping_add(n * 7) % cols.len();
                cols[at] = v;
            }
            if seed.is_multiple_of(3) {
                point[seed as usize % dim] = SPECIALS[seed as usize % 4];
            }
        }
        if dup && k > 2 {
            for d in 0..dim {
                cols[d * k + k - 2] = cols[d * k];
                cols[d * k + k - 1] = cols[d * k];
            }
        }
        (point, cols)
    }

    fn assert_same(got: (usize, f32), want: (usize, f32), what: &str) {
        assert_eq!(got.0, want.0, "{what}: argmin index");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: argmin distance bits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatched scan — and the AVX2 compile called directly,
        /// which `DART_SIMD=off` would otherwise leave unexercised — match
        /// the strided reference exactly: same index (first-minimum
        /// tie-break included) and same distance bits.
        #[test]
        fn dispatched_nearest_flat_matches_scalar(
            seed in 0u64..10_000,
            k in centroid_counts(),
            dim in dims(),
            dup in proptest::bool::ANY,
            special in proptest::bool::ANY,
        ) {
            let (point, cols) = case(seed, k, dim, dup, special);
            let want = nearest_strided(&point, &cols, k);
            assert_same(nearest_dim_major()(&point, &cols, k), want, "dispatched");
            assert_same(scalar::scan_blocks(&point, &cols, k), want, "baseline");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                assert_same(avx2::nearest_dim_major(&point, &cols, k), want, "avx2");
            }
        }
    }

    /// A NaN distance is never selected: strict `<` is false against NaN
    /// at every level, so an all-NaN point scans to `(0, +inf)`.
    #[test]
    fn all_nan_point_selects_nothing() {
        for k in [1usize, 5, 16, 21, 128] {
            let cols: Vec<f32> = (0..3 * k).map(|i| val(0xAA, i)).collect();
            let point = [f32::NAN; 3];
            let want = (0usize, f32::INFINITY);
            assert_same(nearest_strided(&point, &cols, k), want, "reference");
            assert_same(nearest_dim_major()(&point, &cols, k), want, "dispatched");
            assert_same(scalar::scan_blocks(&point, &cols, k), want, "baseline");
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

    /// `DART_SIMD=off` resolves to the baseline compile on every host.
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

    /// The AVX2 compile is exercised directly (bypassing the cached
    /// dispatch, which `DART_SIMD=off` may have pinned to the baseline)
    /// whenever the host supports it, at the block-straddling counts.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_directly() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host has no AVX2");
            return;
        }
        for k in [1usize, 3, 15, 16, 17, 31, 32, 33, 47, 48, 128, 129] {
            for dim in [1usize, 5, 16] {
                let (point, cols) = case(0xCE + k as u64, k, dim, k % 2 == 0, false);
                assert_same(
                    avx2::nearest_dim_major(&point, &cols, k),
                    nearest_strided(&point, &cols, k),
                    &format!("k={k} dim={dim}"),
                );
            }
        }
    }
}
