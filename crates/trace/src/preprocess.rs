//! TransFetch-style preprocessing (paper §VI-A): segmented address inputs
//! and delta-bitmap labels.
//!
//! * **Segmented address input**: a block address is split into `S` segments
//!   of `c` bits each; each segment is normalized to `[0, 1]`. The PC is
//!   segmented the same way, so one access becomes a
//!   `addr_segments + pc_segments`-dimensional token and a history of `T`
//!   accesses becomes a `T x D_I` matrix.
//! * **Delta bitmap labels**: bit `b` of the `2R`-wide label is set iff the
//!   block delta it encodes (in `[-R, -1] ∪ [1, R]`) occurs between the
//!   current access and any of the next `lookforward` accesses — enabling
//!   multiple simultaneous predictions (variable prefetch degree).

use dart_nn::matrix::Matrix;
use dart_nn::train::Dataset;
use serde::{Deserialize, Serialize};

use crate::record::TraceRecord;

/// Preprocessing hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// History length `T` (tokens per sample).
    pub seq_len: usize,
    /// Number of block-address segments `S`.
    pub addr_segments: usize,
    /// Bits per segment `c`.
    pub seg_bits: u32,
    /// Number of PC segments.
    pub pc_segments: usize,
    /// Delta range `R`: predictable deltas are `[-R, R] \ {0}`.
    pub delta_range: usize,
    /// Look-forward window (accesses) for label construction.
    pub lookforward: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            seq_len: 16,
            addr_segments: 6,
            seg_bits: 6,
            pc_segments: 2,
            delta_range: 64,
            lookforward: 16,
        }
    }
}

impl PreprocessConfig {
    /// Token feature dimension `D_I = addr_segments + pc_segments`.
    pub fn input_dim(&self) -> usize {
        self.addr_segments + self.pc_segments
    }

    /// Label dimension `D_O = 2R`.
    pub fn output_dim(&self) -> usize {
        2 * self.delta_range
    }

    /// Map a block delta to its bitmap bit, if in range.
    /// Negative deltas occupy bits `[0, R)`, positive `[R, 2R)`.
    #[inline]
    pub fn delta_to_bit(&self, delta: i64) -> Option<usize> {
        let r = self.delta_range as i64;
        if delta >= 1 && delta <= r {
            Some((r + delta - 1) as usize)
        } else if delta <= -1 && delta >= -r {
            Some((delta + r) as usize)
        } else {
            None
        }
    }

    /// Inverse of [`Self::delta_to_bit`].
    #[inline]
    pub fn bit_to_delta(&self, bit: usize) -> i64 {
        let r = self.delta_range as i64;
        let b = bit as i64;
        if b < r {
            b - r
        } else {
            b - r + 1
        }
    }

    /// The one emission rule, shared by `DartPrefetcher`, the NN baselines'
    /// `precompute_predictions` and the `dart-serve` runtime: rank bitmap
    /// probabilities at or above `threshold`, take the strongest
    /// `max_degree` bits (at least one: a cap of 0 means the minimum useful
    /// degree, never "off"; equal probabilities rank in ascending bit
    /// order), and map each to a prefetch block address relative to
    /// `anchor_block` (dropping non-positive targets after the selection).
    /// `candidates` is caller-owned scratch.
    ///
    /// One pass, no sort: `candidates` holds only the strongest bits seen
    /// so far, strongest first. Bits are read 64 at a time; a mask of the
    /// ones at or above the current floor (`threshold`, or the weakest held
    /// bit once `k` are held) is built branch-free, and only its set bits
    /// are visited. A bit enters a full buffer only by strictly beating the
    /// weakest held bit, and goes in after every held bit it does not
    /// strictly beat — the order a stable descending sort gives. NaN is
    /// never at or above anything, so it never enters.
    pub fn decode_bitmap_into(
        &self,
        probs: &[f32],
        anchor_block: u64,
        threshold: f32,
        max_degree: usize,
        candidates: &mut Vec<(f32, usize)>,
    ) -> Vec<u64> {
        let k = max_degree.max(1);
        candidates.clear();
        for (chunk_at, chunk) in probs.chunks(64).enumerate() {
            let floor = if candidates.len() < k { threshold } else { candidates[k - 1].0 };
            let mut mask = 0u64;
            for (i, &p) in chunk.iter().enumerate() {
                mask |= u64::from(p >= floor) << i;
            }
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let p = chunk[i];
                if candidates.len() == k {
                    if p <= candidates[k - 1].0 {
                        continue;
                    }
                    candidates.pop();
                }
                let at = candidates.iter().position(|&(held, _)| p > held);
                candidates.insert(at.unwrap_or(candidates.len()), (p, chunk_at * 64 + i));
            }
        }
        candidates
            .iter()
            .filter_map(|&(_, bit)| {
                let target = anchor_block as i64 + self.bit_to_delta(bit);
                (target > 0).then_some(target as u64)
            })
            .collect()
    }

    /// Write one token's features (segmented block + PC) into `out`.
    ///
    /// `block` is a cache-block address (`addr >> 6`).
    pub fn write_token_features(&self, block: u64, pc: u64, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.input_dim());
        let denom = ((1u64 << self.seg_bits) - 1).max(1) as f32;
        let mask = (1u64 << self.seg_bits) - 1;
        let (addr_out, pc_out) = out.split_at_mut(self.addr_segments);
        for (s, slot) in addr_out.iter_mut().enumerate() {
            let seg = (block >> (s as u32 * self.seg_bits)) & mask;
            *slot = seg as f32 / denom;
        }
        for (s, slot) in pc_out.iter_mut().enumerate() {
            let seg = (pc >> (s as u32 * self.seg_bits)) & mask;
            *slot = seg as f32 / denom;
        }
    }
}

/// Build a supervised dataset from a trace.
///
/// Sample `i` covers accesses `[i, i + T)` as input and labels deltas from
/// access `i + T - 1` (the "current" access) to the next `lookforward`
/// accesses. `stride` controls sampling density (1 = every position).
pub fn build_dataset(trace: &[TraceRecord], cfg: &PreprocessConfig, stride: usize) -> Dataset {
    let t = cfg.seq_len;
    let di = cfg.input_dim();
    let d_o = cfg.output_dim();
    let stride = stride.max(1);
    if trace.len() < t + 1 {
        return Dataset::new(Matrix::zeros(0, di), Matrix::zeros(0, d_o), t);
    }
    let last_start = trace.len() - t - 1;
    let num_samples = last_start / stride + 1;

    let mut inputs = Matrix::zeros(num_samples * t, di);
    let mut targets = Matrix::zeros(num_samples, d_o);
    for (sample, start) in (0..=last_start).step_by(stride).enumerate() {
        for tok in 0..t {
            let rec = &trace[start + tok];
            cfg.write_token_features(rec.block(), rec.pc, inputs.row_mut(sample * t + tok));
        }
        let current = trace[start + t - 1].block() as i64;
        let horizon = (start + t - 1 + cfg.lookforward).min(trace.len() - 1);
        for rec in &trace[start + t..=horizon] {
            if let Some(bit) = cfg.delta_to_bit(rec.block() as i64 - current) {
                targets.set(sample, bit, 1.0);
            }
        }
    }
    Dataset::new(inputs, targets, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_pq::SigmoidLut;
    use proptest::prelude::*;

    fn rec(addr: u64) -> TraceRecord {
        TraceRecord { instr_id: 0, pc: 0x400100, addr }
    }

    /// The emission rule as it was first written — every bit at or above
    /// `threshold`, a stable descending sort, the first `max(1,
    /// max_degree)`, then the target map — which the one-pass selection of
    /// [`PreprocessConfig::decode_bitmap_into`] must equal exactly.
    fn decode_by_sort(
        cfg: &PreprocessConfig,
        probs: &[f32],
        anchor_block: u64,
        threshold: f32,
        max_degree: usize,
    ) -> Vec<u64> {
        let mut candidates: Vec<(f32, usize)> = probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p >= threshold)
            .map(|(b, &p)| (p, b))
            .collect();
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        candidates
            .iter()
            .take(max_degree.max(1))
            .filter_map(|&(_, bit)| {
                let target = anchor_block as i64 + cfg.bit_to_delta(bit);
                (target > 0).then_some(target as u64)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Rows as a shard sees them — logits through the 1024-entry LUT, on
        /// a coarse grid so most probabilities tie with others — with
        /// planted `-0.0`, `+0.0` and NaN entries, widths that straddle the
        /// 64-bit mask chunks, thresholds 0, 0.5 and 1 and one LUT step
        /// either side of 0.5, degrees below, at and past the row width,
        /// and anchors so low that most negative deltas fall off after the
        /// selection.
        #[test]
        fn one_pass_emission_equals_the_stable_sort(
            delta_range in 1usize..101,
            grid in proptest::collection::vec(0u16..48, 200),
            plants in proptest::collection::vec((0usize..200, 0u8..3), 0..8),
            threshold_idx in 0usize..5,
            degree_idx in 0usize..6,
            anchor in 0u64..4,
        ) {
            let lut = SigmoidLut::default_table();
            let cfg = PreprocessConfig { delta_range, ..Default::default() };
            let mut probs: Vec<f32> = grid[..cfg.output_dim()]
                .iter()
                .map(|&g| lut.query((f32::from(g) - 24.0) * 0.25))
                .collect();
            for &(at, kind) in &plants {
                let width = probs.len();
                probs[at % width] = [-0.0, 0.0, f32::NAN][usize::from(kind)];
            }
            // Entries 511 and 512 straddle 0.5; 0.0 and 1.0 admit all or
            // (almost) nothing.
            let threshold =
                [0.0, 0.5, 1.0, lut.query(-1e-3), lut.query(1e-3)][threshold_idx];
            let max_degree = [0, 1, 4, 127, 128, 200][degree_idx];
            let mut scratch = vec![(9.0, 9); 3];
            let got = cfg.decode_bitmap_into(&probs, anchor, threshold, max_degree, &mut scratch);
            let want = decode_by_sort(&cfg, &probs, anchor, threshold, max_degree);
            prop_assert_eq!(got, want, "threshold {} degree {} anchor {}", threshold, max_degree, anchor);
            prop_assert!(scratch.len() <= max_degree.max(1));
        }
    }

    #[test]
    fn delta_bit_roundtrip() {
        let cfg = PreprocessConfig::default();
        for d in [-64i64, -1, 1, 64] {
            let bit = cfg.delta_to_bit(d).unwrap();
            assert_eq!(cfg.bit_to_delta(bit), d, "delta {d}");
        }
        assert_eq!(cfg.delta_to_bit(0), None);
        assert_eq!(cfg.delta_to_bit(65), None);
        assert_eq!(cfg.delta_to_bit(-65), None);
    }

    #[test]
    fn all_bits_map_to_distinct_deltas() {
        let cfg = PreprocessConfig { delta_range: 8, ..Default::default() };
        let mut seen = std::collections::HashSet::new();
        for bit in 0..cfg.output_dim() {
            let d = cfg.bit_to_delta(bit);
            assert_ne!(d, 0);
            assert!(d.abs() <= 8);
            assert!(seen.insert(d), "duplicate delta {d}");
            assert_eq!(cfg.delta_to_bit(d), Some(bit));
        }
    }

    #[test]
    fn token_features_in_unit_range() {
        let cfg = PreprocessConfig::default();
        let mut out = vec![0.0f32; cfg.input_dim()];
        cfg.write_token_features(u64::MAX >> 6, u64::MAX, &mut out);
        assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
        cfg.write_token_features(0, 0, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn segments_decompose_address() {
        let cfg = PreprocessConfig {
            addr_segments: 3,
            seg_bits: 4,
            pc_segments: 0,
            ..Default::default()
        };
        let mut out = vec![0.0f32; 3];
        // block = 0xABC -> segments (low first): C, B, A
        cfg.write_token_features(0xABC, 0, &mut out);
        assert!((out[0] - 12.0 / 15.0).abs() < 1e-6);
        assert!((out[1] - 11.0 / 15.0).abs() < 1e-6);
        assert!((out[2] - 10.0 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn dataset_labels_future_deltas() {
        let cfg =
            PreprocessConfig { seq_len: 2, delta_range: 4, lookforward: 2, ..Default::default() };
        // Blocks: 10, 11, 12, 14 (addresses are blocks << 6).
        let trace: Vec<TraceRecord> = [10u64, 11, 12, 14].iter().map(|&b| rec(b << 6)).collect();
        let ds = build_dataset(&trace, &cfg, 1);
        // Samples start at 0 and 1.
        assert_eq!(ds.len(), 2);
        // Sample 0: history blocks [10, 11]; future (window 2): 12, 14 ->
        // deltas +1 and +3 relative to 11.
        let row = ds.targets.row(0);
        assert_eq!(row[cfg.delta_to_bit(1).unwrap()], 1.0);
        assert_eq!(row[cfg.delta_to_bit(3).unwrap()], 1.0);
        assert_eq!(row.iter().sum::<f32>(), 2.0);
        // Sample 1: history [11, 12]; future: 14 -> delta +2.
        let row = ds.targets.row(1);
        assert_eq!(row[cfg.delta_to_bit(2).unwrap()], 1.0);
        assert_eq!(row.iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn dataset_respects_stride() {
        let cfg = PreprocessConfig { seq_len: 2, lookforward: 1, ..Default::default() };
        let trace: Vec<TraceRecord> = (0..20).map(|b| rec(b << 6)).collect();
        let dense = build_dataset(&trace, &cfg, 1);
        let sparse = build_dataset(&trace, &cfg, 4);
        assert!(sparse.len() < dense.len());
        assert!(sparse.len() >= dense.len() / 4);
    }

    #[test]
    fn short_trace_yields_empty_dataset() {
        let cfg = PreprocessConfig { seq_len: 8, ..Default::default() };
        let trace: Vec<TraceRecord> = (0..4).map(|b| rec(b << 6)).collect();
        let ds = build_dataset(&trace, &cfg, 1);
        assert!(ds.is_empty());
    }

    #[test]
    fn out_of_range_deltas_do_not_set_bits() {
        let cfg =
            PreprocessConfig { seq_len: 2, delta_range: 2, lookforward: 1, ..Default::default() };
        // Jump of +100 blocks: outside the range, label must be empty.
        let trace: Vec<TraceRecord> = [10u64, 11, 111].iter().map(|&b| rec(b << 6)).collect();
        let ds = build_dataset(&trace, &cfg, 1);
        assert_eq!(ds.targets.row(0).iter().sum::<f32>(), 0.0);
    }
}
