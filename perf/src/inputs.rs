//! Seeded inputs. Everything the program under test receives — requests,
//! feature windows, model weights, the paper loop's trace — derives from
//! `--seed` here; none of the repository's own load generators is used.

use dart_core::config::{PredictorConfig, TabularConfig};
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_nn::model::AccessPredictor;
use dart_serve::PrefetchRequest;
use dart_trace::PreprocessConfig;

/// SplitMix64: a full-period 64-bit generator that is one line to state,
/// so the benchmark's inputs do not depend on the code it measures.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`salt`) of one run (`seed`).
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Block strides a stream may walk with (in 64-byte blocks).
const STRIDES: [u64; 6] = [1, 1, 2, 3, 4, 8];
/// Accesses a stream makes before hopping to another region.
const BURSTS: [u64; 4] = [24, 48, 96, 192];

/// One client stream: a strided walk that hops to a seeded new region
/// every `burst` accesses — the stream + hop mix the predictor was built
/// for, cheap enough to compute per request.
#[derive(Clone, Copy, Debug)]
struct StreamSpec {
    base_block: u64,
    stride: u64,
    burst: u64,
    pc: u64,
    hop_key: u64,
}

/// The access pattern of every stream of a run, as a pure function of
/// `(stream, index)`: any request can be produced on demand and any
/// stream replayed from its start.
#[derive(Clone, Debug)]
pub struct Streams {
    specs: Vec<StreamSpec>,
}

impl Streams {
    /// `count` streams drawn from `seed`.
    pub fn new(seed: u64, count: usize) -> Streams {
        let mut rng = Rng::new(seed, 0x5712_EA45);
        let specs = (0..count)
            .map(|_| StreamSpec {
                base_block: (1 << 20) + rng.below(1 << 28),
                stride: STRIDES[rng.below(STRIDES.len() as u64) as usize],
                burst: BURSTS[rng.below(BURSTS.len() as u64) as usize],
                pc: 0x40_0000 + 4 * rng.below(1 << 16),
                hop_key: rng.next_u64(),
            })
            .collect();
        Streams { specs }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `(pc, byte address)` of access `index` of `stream`.
    pub fn access(&self, stream: usize, index: u64) -> (u64, u64) {
        let s = &self.specs[stream];
        let region = mix(s.hop_key ^ (index / s.burst)) % (1 << 22);
        let block = s.base_block + region * 64 + (index % s.burst) * s.stride;
        (s.pc + 4 * ((index / s.burst) % 4), block << dart_core::BLOCK_BITS)
    }

    /// Access `index` of `stream` as a runtime request under `stream_id`.
    pub fn request(&self, stream: usize, index: u64, stream_id: u64) -> PrefetchRequest {
        let (pc, addr) = self.access(stream, index);
        PrefetchRequest { stream_id, pc, addr }
    }

    /// The first `count` requests of the run, round-robin over the
    /// streams (stream ids `0..len`): what the stand-alone probes replay.
    pub fn sample_requests(&self, count: usize) -> Vec<PrefetchRequest> {
        let n = self.len();
        (0..count).map(|i| self.request(i % n, (i / n) as u64, (i % n) as u64)).collect()
    }

    /// `count` feature windows (`seq_len` consecutive accesses each, one
    /// stacked `seq_len x D_I` block per window), cycling over the streams.
    pub fn windows(&self, pre: &PreprocessConfig, count: usize) -> Matrix {
        let (t, di) = (pre.seq_len, pre.input_dim());
        let mut out = Matrix::zeros(count * t, di);
        for w in 0..count {
            let stream = w % self.len();
            let first = (w / self.len() * t) as u64;
            for step in 0..t {
                let (pc, addr) = self.access(stream, first + step as u64);
                pre.write_token_features(
                    addr >> dart_core::BLOCK_BITS,
                    pc,
                    out.row_mut(w * t + step),
                );
            }
        }
        out
    }
}

/// Windows the prototypes are learned on when a workload tabularizes an
/// untrained student. 128 windows x 16 tokens give every sub-quantizer
/// 2048 rows for its 128 prototypes and keep set-up near half a second,
/// so it can be repeated.
pub const FIT_WINDOWS: usize = 128;

/// A seeded, untrained student of the given variant, tabularized (no
/// fine-tuning) on the first [`FIT_WINDOWS`] windows of `streams`. The
/// tables' cost does not depend on what the weights encode, so the
/// latency workloads skip training.
pub fn untrained_tables(
    variant: &PredictorConfig,
    pre: &PreprocessConfig,
    streams: &Streams,
    seed: u64,
) -> TabularModel {
    let cfg = variant.to_model_config(pre.input_dim(), pre.output_dim(), pre.seq_len);
    let student = AccessPredictor::new(cfg, seed ^ 0x57D).expect("paper variants are valid");
    let fit = streams.windows(pre, FIT_WINDOWS);
    let tab = TabularConfig { seed: seed ^ 0xDA47, ..TabularConfig::from_predictor(variant) }
        .without_fine_tuning();
    tabularize(&student, &fit, &tab).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (Streams::new(7, 16), Streams::new(7, 16));
        for s in 0..16 {
            for i in [0u64, 1, 23, 24, 1000] {
                assert_eq!(a.access(s, i), b.access(s, i));
            }
        }
        let c = Streams::new(8, 16);
        assert!((0..16).any(|s| a.access(s, 0) != c.access(s, 0)));
    }

    #[test]
    fn streams_walk_then_hop() {
        let s = Streams::new(3, 4);
        let spec = s.specs[0];
        let block = |i: u64| s.access(0, i).1 >> dart_core::BLOCK_BITS;
        assert_eq!(block(1) - block(0), spec.stride);
        assert_ne!(block(spec.burst) as i64 - block(spec.burst - 1) as i64, spec.stride as i64);
    }

    #[test]
    fn windows_have_the_model_input_shape() {
        let pre = PreprocessConfig::default();
        let w = Streams::new(1, 8).windows(&pre, 20);
        assert_eq!(w.shape(), (20 * pre.seq_len, pre.input_dim()));
        assert!(w.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
