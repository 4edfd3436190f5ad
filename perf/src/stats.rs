//! Order statistics and run summaries.
//!
//! Percentiles are exact order statistics over the benchmark's own
//! timestamps (nearest rank, no interpolation, no histogram buckets). The
//! quartiles of a handful of repetitions use the same rule as Python's
//! `statistics.quantiles(values, n=4)`, so the spread this program prints
//! is the spread the driver computes.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of an ascending slice by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the `q`-quantile.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

/// Median and quartiles of a few values (one per repetition).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Summarize `values` (any order). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method); a single
/// value is its own median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let m = v.len();
    if m == 1 {
        return Summary { median: v[0], q1: v[0], q3: v[0] };
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { median: cut(2), q1: cut(1), q3: cut(3) }
}

/// `values` ordered best first (`higher` says which end is best).
fn best_first(values: &[f64], higher: bool) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    if higher {
        v.reverse();
    }
    v
}

/// The least-disturbed repetition. This host shares its cores with other
/// tenants: interference arrives in bursts of seconds, slows whichever
/// repetitions it overlaps by up to half, and never speeds one up — so
/// the best repetition estimates the code's own speed, and repeats from
/// run to run where the median of the repetitions does not.
pub fn best(values: &[f64], higher: bool) -> f64 {
    best_first(values, higher)[0]
}

/// How far the third-best repetition is from the best, as a share of the
/// best: small when several repetitions ran undisturbed and agree.
pub fn noise(values: &[f64], higher: bool) -> f64 {
    let v = best_first(values, higher);
    if v.len() < 3 || v[0] == 0.0 {
        return 0.0;
    }
    (v[2] - v[0]).abs() / v[0].abs()
}

/// The `q`-quantile, in microseconds, of each repetition's nanosecond
/// samples; `None` if any repetition has fewer than [`MIN_BEYOND`] samples
/// beyond it.
pub fn per_rep_quantile_us(reps: &mut [Vec<u64>], q: f64) -> Option<Vec<f64>> {
    reps.iter_mut()
        .map(|r| {
            r.sort_unstable();
            supports(r.len(), q).then(|| quantile_sorted(r, q) as f64 / 1e3)
        })
        .collect()
}

/// FNV-1a over 64-bit words — the checksum every correctness gate folds
/// responses into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word, byte by byte (little-endian).
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        // Never interpolates: the answer is always one of the samples.
        assert_eq!(quantile_sorted(&[1, 1000], 0.5), 1);
        assert_eq!(quantile_sorted(&[1, 1000], 0.51), 1000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let s = summarize(&[3.25]);
        assert_eq!((s.q1, s.median, s.q3), (3.25, 3.25, 3.25));
    }

    #[test]
    fn best_follows_the_direction_and_noise_looks_at_the_top_three() {
        let rps = [2644.0, 2570.0, 1236.0, 2600.0, 1839.0];
        assert_eq!(best(&rps, true), 2644.0);
        assert!((noise(&rps, true) - (2644.0 - 2570.0) / 2644.0).abs() < 1e-12);
        let us = [380.0, 519.0, 375.0, 378.0];
        assert_eq!(best(&us, false), 375.0);
        assert!((noise(&us, false) - 5.0 / 375.0).abs() < 1e-12);
        assert_eq!(noise(&[1.0, 2.0], false), 0.0);
    }

    #[test]
    fn per_repetition_quantiles_need_support_in_every_repetition() {
        let full: Vec<u64> = (1..=200).rev().map(|v| v * 1000).collect();
        let mut reps = vec![full.clone(), full.clone()];
        assert_eq!(per_rep_quantile_us(&mut reps, 0.50), Some(vec![100.0, 100.0]));
        assert_eq!(per_rep_quantile_us(&mut reps, 0.95), Some(vec![190.0, 190.0]));
        assert_eq!(per_rep_quantile_us(&mut reps, 0.99), None);
        let mut uneven = vec![full, (1..=15).collect()];
        assert_eq!(per_rep_quantile_us(&mut uneven, 0.50), None);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.push(1);
        a.push(2);
        let mut b = Fnv::default();
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        assert_ne!(a, Fnv::default());
    }
}
