//! Property-based tests on the PQ stack: quantizer invariants and LUT
//! correctness over random configurations. (The kernel cost formulas'
//! properties are unit tests of `dart_core::configurator`.)

use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_pq::{EncoderKind, ProductQuantizer, SigmoidLut};
use proptest::prelude::*;

fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = InitRng::new(seed);
    Matrix::from_fn(r, c, |_, _| rng.normal())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Codes are always in range for both encoders.
    #[test]
    fn codes_in_range(
        seed in 0u64..10_000,
        k in 1usize..40,
        c in 1usize..6,
        dim in 2usize..12,
        tree in proptest::bool::ANY,
    ) {
        let data = rand_matrix(60, dim, seed);
        let kind = if tree { EncoderKind::HashTree } else { EncoderKind::Argmin };
        let pq = ProductQuantizer::fit(&data, c, k, kind, seed);
        for i in 0..data.rows() {
            for &code in &pq.encode_row(data.row(i)) {
                prop_assert!(code < k);
            }
        }
    }

    /// Encoding is deterministic.
    #[test]
    fn encoding_is_deterministic(seed in 0u64..10_000, k in 2usize..16) {
        let data = rand_matrix(50, 6, seed);
        let pq = ProductQuantizer::fit(&data, 2, k, EncoderKind::HashTree, seed);
        for i in 0..10 {
            prop_assert_eq!(pq.encode_row(data.row(i)), pq.encode_row(data.row(i)));
        }
    }

    /// The sigmoid LUT is within its own error bound everywhere.
    #[test]
    fn sigmoid_lut_error_bound(n in 16usize..2048, range in 2.0f32..12.0, x in -20.0f32..20.0) {
        let lut = SigmoidLut::new(n, range);
        let exact = 1.0 / (1.0 + (-x).exp());
        prop_assert!((lut.query(x) - exact).abs() <= lut.error_bound() * 1.01 + 1e-6);
    }

    /// Reconstruction lands inside the convex hull radius: reconstructed
    /// subvectors are actual prototypes, so their norm is bounded by the
    /// largest prototype norm.
    #[test]
    fn reconstruct_returns_prototypes(seed in 0u64..5_000, k in 2usize..12) {
        let data = rand_matrix(80, 8, seed);
        let pq = ProductQuantizer::fit(&data, 2, k, EncoderKind::Argmin, seed);
        let codes = pq.encode_row(data.row(0));
        let rec = pq.reconstruct(&codes);
        for (ci, &(lo, hi)) in pq.bounds().iter().enumerate() {
            let sub = &rec[lo..hi];
            let is_proto = (0..pq.num_protos()).any(|p| {
                pq.proto(ci, p).iter().zip(sub).all(|(a, b)| (a - b).abs() < 1e-6)
            });
            prop_assert!(is_proto, "reconstructed subvector is not a prototype");
        }
    }
}
