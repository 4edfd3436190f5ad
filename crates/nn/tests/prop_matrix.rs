//! Property-based tests on the matrix substrate: algebraic identities that
//! must hold for every input the generators produce.

use dart_nn::matrix::{dot, Matrix};
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Right distributivity: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes_over_add(
        a in matrix_strategy(4, 5),
        b in matrix_strategy(5, 3),
        c in matrix_strategy(5, 3),
    ) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-2));
    }

    /// (AB)^T = B^T A^T.
    #[test]
    fn transpose_reverses_products(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 6),
    ) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&lhs, &rhs, 1e-2));
    }

    /// matmul_transb(A, B)[i][j] is exactly dot(A_i, B_j); it equals
    /// A @ B^T only up to rounding, since `matmul` sums in another order.
    #[test]
    fn matmul_transb_consistent(
        a in matrix_strategy(5, 7),
        b in matrix_strategy(4, 7),
    ) {
        let got = a.matmul_transb(&b);
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                prop_assert_eq!(got.get(i, j).to_bits(), dot(a.row(i), b.row(j)).to_bits());
            }
        }
        prop_assert!(approx_eq(&got, &a.matmul(&b.transpose()), 1e-2));
    }

    /// matmul_transa(A, B) = A^T @ B exactly: both are the same skipping
    /// serial sum over the shared dimension.
    #[test]
    fn matmul_transa_consistent(
        a in matrix_strategy(6, 3),
        b in matrix_strategy(6, 4),
    ) {
        prop_assert_eq!(bits(&a.matmul_transa(&b)), bits(&a.transpose().matmul(&b)));
    }

    /// Softmax rows are probability distributions.
    #[test]
    fn softmax_rows_are_distributions(a in matrix_strategy(4, 9)) {
        let s = a.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// Scaling commutes with addition: k(A + B) = kA + kB.
    #[test]
    fn scale_distributes(
        a in matrix_strategy(3, 3),
        b in matrix_strategy(3, 3),
        k in -5.0f32..5.0,
    ) {
        let lhs = a.add(&b).scale(k);
        let rhs = a.scale(k).add(&b.scale(k));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    /// vstack then slice_rows recovers the parts.
    #[test]
    fn vstack_slice_roundtrip(
        a in matrix_strategy(2, 4),
        b in matrix_strategy(3, 4),
    ) {
        let v = Matrix::vstack(&[a.clone(), b.clone()]);
        prop_assert_eq!(v.slice_rows(0, 2), a);
        prop_assert_eq!(v.slice_rows(2, 5), b);
    }

    /// Frobenius norm satisfies the triangle inequality.
    #[test]
    fn frobenius_triangle(
        a in matrix_strategy(4, 4),
        b in matrix_strategy(4, 4),
    ) {
        let sum_norm = a.add(&b).frobenius_norm();
        prop_assert!(sum_norm <= a.frobenius_norm() + b.frobenius_norm() + 1e-3);
    }
}
