//! k-means prototype learning (paper Eq. 5): k-means++ seeding followed by
//! Lloyd iterations, with rayon-parallel assignment steps through the same
//! dispatched argmin scan the encoders use.

use dart_nn::init::InitRng;
use dart_nn::matrix::{sq_dist, Matrix};
use rayon::prelude::*;

/// Result of clustering: `k x dim` centroids plus the final assignment.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Learned centroids (`k x dim`). Rows of empty clusters are re-seeded
    /// from the farthest points, so all `k` rows are meaningful.
    pub centroids: Matrix,
    /// Cluster index of each training row.
    pub assignments: Vec<usize>,
    /// Final sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// k-means configuration.
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Relative inertia improvement below which iteration stops.
    pub tol: f64,
    /// PRNG seed for k-means++ seeding.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 16, max_iters: 25, tol: 1e-4, seed: 0x5EED }
    }
}

/// Run k-means on the rows of `data` (`n x dim`).
///
/// When `n < k`, the surplus centroids replicate existing rows with tiny
/// jitter so the centroid count is always exactly `k` (table shapes in the
/// kernels depend on it).
pub fn kmeans(data: &Matrix, config: &KMeansConfig) -> KMeansResult {
    let nearest = crate::simd::nearest_dim_major();
    lloyd(data, config, |centroids| {
        // One transpose per assignment step buys `n` contiguous-column
        // scans; distances keep `nearest_centroid`'s bits, so assignments,
        // inertia and centroids do too.
        let cols = centroids.transpose();
        (0..data.rows())
            .into_par_iter()
            .map(|i| nearest(data.row(i), cols.as_slice(), centroids.rows()))
            .collect()
    })
}

/// [`kmeans`] with the assignment step — nearest centroid index and
/// squared distance for every row of `data` — supplied by the caller, so
/// the tests can run the per-row [`nearest_centroid`] Lloyd beside it.
fn lloyd(
    data: &Matrix,
    config: &KMeansConfig,
    assign: impl Fn(&Matrix) -> Vec<(usize, f32)>,
) -> KMeansResult {
    assert!(config.k > 0, "k must be positive");
    assert!(data.rows() > 0, "cannot cluster an empty dataset");
    let n = data.rows();
    let dim = data.cols();
    let k = config.k;
    let mut rng = InitRng::new(config.seed);

    // --- k-means++ seeding -------------------------------------------------
    let mut centroids = Matrix::zeros(k, dim);
    let first = rng.below(n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut min_d2: Vec<f32> = (0..n).map(|i| sq_dist(data.row(i), centroids.row(0))).collect();
    for c in 1..k {
        let total: f64 = min_d2.iter().map(|&d| d as f64).sum();
        let chosen = if total <= f64::EPSILON {
            rng.below(n)
        } else {
            let mut target = rng.next_f32() as f64 * total;
            let mut pick = n - 1;
            for (i, &d) in min_d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
        for (i, slot) in min_d2.iter_mut().enumerate() {
            let d = sq_dist(data.row(i), centroids.row(c));
            if d < *slot {
                *slot = d;
            }
        }
    }

    // --- Lloyd iterations ---------------------------------------------------
    let mut assignments = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let new = assign(&centroids);
        let new_inertia: f64 = new.iter().map(|&(_, d)| d as f64).sum();
        for (i, &(a, _)) in new.iter().enumerate() {
            assignments[i] = a;
        }

        // Update step.
        let mut sums = Matrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for (i, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            let s = sums.row_mut(a);
            for (sv, &dv) in s.iter_mut().zip(data.row(i)) {
                *sv += dv;
            }
        }
        #[allow(clippy::needless_range_loop)] // c indexes counts, sums, and centroids in lockstep
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f32;
                let row = sums.row(c).to_vec();
                for (cv, sv) in centroids.row_mut(c).iter_mut().zip(row) {
                    *cv = sv * inv;
                }
            } else {
                // Re-seed empty cluster from the point farthest from its centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_dist(data.row(a), centroids.row(assignments[a]));
                        let db = sq_dist(data.row(b), centroids.row(assignments[b]));
                        // total_cmp: a NaN row must not panic the fit.
                        da.total_cmp(&db)
                    })
                    .unwrap_or(0);
                let jitter = 1e-4 * (c as f32 + 1.0);
                let src = data.row(far).to_vec();
                for (cv, sv) in centroids.row_mut(c).iter_mut().zip(src) {
                    *cv = sv + jitter;
                }
            }
        }

        let improved = inertia.is_infinite()
            || (inertia - new_inertia).abs() > config.tol * inertia.abs().max(1e-12);
        inertia = new_inertia;
        if !improved {
            break;
        }
    }

    // Final assignment against the last centroid update.
    let finals = assign(&centroids);
    inertia = finals.iter().map(|&(_, d)| d as f64).sum();
    for (i, (a, _)) in finals.into_iter().enumerate() {
        assignments[i] = a;
    }

    KMeansResult { centroids, assignments, inertia, iterations }
}

/// Index and squared distance of the nearest centroid to `point`.
#[inline]
pub fn nearest_centroid(point: &[f32], centroids: &Matrix) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..centroids.rows() {
        let d = sq_dist(point, centroids.row(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, centers: &[(f32, f32)], spread: f32, seed: u64) -> Matrix {
        let mut rng = InitRng::new(seed);
        let mut data = Matrix::zeros(n_per * centers.len(), 2);
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..n_per {
                let r = ci * n_per + i;
                data.set(r, 0, cx + rng.normal() * spread);
                data.set(r, 1, cy + rng.normal() * spread);
            }
        }
        data
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = blobs(50, &[(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)], 0.5, 7);
        let res = kmeans(&data, &KMeansConfig { k: 3, seed: 3, ..Default::default() });
        // Every blob should map to a single cluster.
        for blob in 0..3 {
            let first = res.assignments[blob * 50];
            for i in 0..50 {
                assert_eq!(res.assignments[blob * 50 + i], first, "blob {blob} split");
            }
        }
        // Inertia must be small relative to the blob separation.
        assert!(res.inertia < 150.0 * 1.0, "inertia {}", res.inertia);
    }

    #[test]
    fn inertia_nonincreasing_with_more_clusters() {
        let data = blobs(40, &[(0.0, 0.0), (5.0, 5.0)], 1.0, 11);
        let i2 = kmeans(&data, &KMeansConfig { k: 2, seed: 1, ..Default::default() }).inertia;
        let i8 = kmeans(&data, &KMeansConfig { k: 8, seed: 1, ..Default::default() }).inertia;
        assert!(i8 <= i2 + 1e-6, "k=8 inertia {i8} > k=2 inertia {i2}");
    }

    #[test]
    fn handles_fewer_points_than_clusters() {
        let data = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let res = kmeans(&data, &KMeansConfig { k: 4, seed: 5, ..Default::default() });
        assert_eq!(res.centroids.rows(), 4);
        assert!(res.assignments.iter().all(|&a| a < 4));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blobs(30, &[(0.0, 0.0), (3.0, 3.0)], 0.8, 13);
        let a = kmeans(&data, &KMeansConfig { k: 4, seed: 9, ..Default::default() });
        let b = kmeans(&data, &KMeansConfig { k: 4, seed: 9, ..Default::default() });
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn single_cluster_is_mean() {
        let data = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let res = kmeans(&data, &KMeansConfig { k: 1, seed: 2, ..Default::default() });
        assert!((res.centroids.get(0, 0) - 2.5).abs() < 1e-5);
    }

    /// The kernel-assigned Lloyd is the per-row `nearest_centroid` Lloyd,
    /// bit for bit, whatever the pool size: every fitted table downstream
    /// depends on it.
    #[test]
    fn kernel_assignment_matches_per_row_lloyd() {
        let mut rng = InitRng::new(0xD1FF);
        let data = Matrix::from_fn(500, 6, |r, _| (r % 7) as f32 * 0.8 + rng.normal());
        // 40 centroids: two full 16-centroid blocks plus a tail.
        let config = KMeansConfig { k: 40, seed: 21, ..Default::default() };
        let want = lloyd(&data, &config, |centroids| {
            (0..data.rows()).map(|i| nearest_centroid(data.row(i), centroids)).collect()
        });
        for threads in [1, 4] {
            let pool = rayon::ThreadPool::new(threads);
            let got = pool.install(|| kmeans(&data, &config));
            assert_eq!(got.assignments, want.assignments, "{threads} threads");
            assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "{threads} threads");
            assert_eq!(got.iterations, want.iterations, "{threads} threads");
            let same_bits = got
                .centroids
                .as_slice()
                .iter()
                .zip(want.centroids.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "centroids differ at {threads} threads");
        }
    }

    /// One NaN row neither panics the fit (k-means and hash tree both sort
    /// by `total_cmp`) nor leaves an assignment out of range.
    #[test]
    fn nan_row_does_not_panic_the_fit() {
        let mut data = blobs(30, &[(0.0, 0.0), (6.0, 6.0)], 0.5, 19);
        data.row_mut(17).fill(f32::NAN);
        // More clusters than distinct blobs, so the empty-cluster re-seed
        // (the comparison that used to unwrap a partial_cmp) runs.
        let res = kmeans(&data, &KMeansConfig { k: 12, seed: 5, ..Default::default() });
        assert_eq!(res.centroids.rows(), 12);
        assert!(res.assignments.iter().all(|&a| a < 12));
        for kind in [crate::EncoderKind::Argmin, crate::EncoderKind::HashTree] {
            let pq = crate::ProductQuantizer::fit(&data, 1, 8, kind, 3);
            assert!(pq.encode_row(data.row(17)).iter().all(|&code| code < 8));
        }
    }

    #[test]
    fn assignments_point_to_nearest() {
        let data = blobs(25, &[(0.0, 0.0), (8.0, 0.0)], 0.7, 17);
        let res = kmeans(&data, &KMeansConfig { k: 2, seed: 4, ..Default::default() });
        for i in 0..data.rows() {
            let (nearest, _) = nearest_centroid(data.row(i), &res.centroids);
            assert_eq!(res.assignments[i], nearest);
        }
    }
}
