//! `StreamEngine::step` against its two references.
//!
//! Random interleavings of up to eight streams, cut into batches of 1 to
//! 64 accesses (so one batch often holds several accesses of one stream),
//! with stream resets (what an eviction does to a slot) and model changes
//! (to a bit-identical clone and to other weights, each a new epoch)
//! between batches. Every access's `(seq, prefetch blocks)` must equal,
//! bit for bit:
//!
//! * the same accesses stepped one at a time, and
//! * `predict_batch` on the stream's window written out
//!   (`StreamState::write_features_into`), then `decode_bitmap_into`.

use std::sync::OnceLock;

use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::{EmitPolicy, StreamEngine, StreamLookup, StreamState, TabularModel};
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_trace::PreprocessConfig;
use proptest::prelude::*;

const PRE: PreprocessConfig = PreprocessConfig {
    seq_len: 4,
    addr_segments: 3,
    seg_bits: 4,
    pc_segments: 1,
    delta_range: 4,
    lookforward: 4,
};

/// Two models of one shape with different weights.
fn models() -> &'static [TabularModel; 2] {
    static MODELS: OnceLock<[TabularModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        [3, 11].map(|seed| {
            let cfg = ModelConfig {
                input_dim: PRE.input_dim(),
                dim: 8,
                heads: 2,
                layers: 1,
                ffn_dim: 16,
                output_dim: PRE.output_dim(),
                seq_len: PRE.seq_len,
            };
            let student = AccessPredictor::new(cfg, seed).unwrap();
            let mut rng = InitRng::new(seed ^ 0x9E37);
            let x = Matrix::from_fn(40 * PRE.seq_len, PRE.input_dim(), |_, _| rng.next_f32());
            let tab = TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..Default::default() };
            tabularize(&student, &x, &tab).0
        })
    })
}

/// Stream `id` is slot `id` (ids are small).
struct Streams(Vec<StreamState>);

impl StreamLookup for Streams {
    fn stream(&mut self, stream: u64, _: usize) -> &mut StreamState {
        &mut self.0[stream as usize]
    }
}

/// The materialised-window answer for one access.
fn reference(
    model: &TabularModel,
    emit: EmitPolicy,
    state: &mut StreamState,
    (block, pc): (u64, u64),
) -> (u64, Vec<u64>) {
    let seq = state.push(block, pc);
    if !state.warm() {
        return (seq, Vec::new());
    }
    let mut feats = Matrix::zeros(PRE.seq_len, PRE.input_dim());
    state.write_features_into(&PRE, &mut feats, 0);
    let probs = model.predict_batch(&feats);
    let blocks = PRE.decode_bitmap_into(
        probs.row(0),
        block,
        emit.threshold,
        emit.max_degree,
        &mut Vec::new(),
    );
    (seq, blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_batched_step_equals_single_steps_and_the_materialised_window(
        streams in 1u64..9,
        raw in proptest::collection::vec((0u64..8, 0u64..40, 0u64..3), 1..200),
        plan in proptest::collection::vec((1usize..65, 0u8..6, 0u64..8), 1..12),
        threshold in 0.0f32..0.7,
        max_degree in 0usize..5,
    ) {
        let emit = EmitPolicy { threshold, max_degree };
        // Each stream walks its own blocks: mostly small strides, sometimes
        // a jump out of the delta range.
        let mut last = vec![0u64; streams as usize];
        let accesses: Vec<(u64, u64, u64)> = raw
            .iter()
            .map(|&(s, step, pc)| {
                let s = s % streams;
                let at = &mut last[s as usize];
                *at += if step >= 36 { 4096 } else { 1 + step % 3 };
                (s, (s + 1) * 100_000 + *at, 0x400100 + 8 * pc)
            })
            .collect();

        let fresh = || Streams((0..streams).map(|_| StreamState::new(PRE.seq_len)).collect());
        let (mut batched, mut single, mut materialised) = (fresh(), fresh(), fresh());
        let mut batched_engine = StreamEngine::new(&models()[0], PRE, emit);
        let mut single_engine = StreamEngine::new(&models()[0], PRE, emit);
        let (mut model, mut which, mut epoch) = (models()[0].clone(), 0, 1u64);
        let (mut at, mut warm) = (0, 0u64);
        for &(size, op, arg) in plan.iter().cycle() {
            if at == accesses.len() {
                break;
            }
            match op {
                0 => {
                    let s = (arg % streams) as usize;
                    for set in [&mut batched, &mut single, &mut materialised] {
                        set.0[s].reset();
                    }
                }
                1 => {
                    model = model.clone();
                    epoch += 1;
                }
                2 => {
                    which = 1 - which;
                    model = models()[which].clone();
                    epoch += 1;
                }
                _ => {}
            }
            let batch = &accesses[at..(at + size).min(accesses.len())];
            at += batch.len();
            let got: Vec<(u64, Vec<u64>)> =
                batched_engine.step(&model, epoch, &mut batched, batch.iter().copied()).collect();
            prop_assert_eq!(got.len(), batch.len());
            for (&access, got) in batch.iter().zip(got) {
                let one: Vec<(u64, Vec<u64>)> =
                    single_engine.step(&model, epoch, &mut single, [access]).collect();
                let (s, block, pc) = access;
                let want = reference(&model, emit, &mut materialised.0[s as usize], (block, pc));
                warm += u64::from(materialised.0[s as usize].warm());
                prop_assert_eq!(&one, &vec![want.clone()]);
                prop_assert_eq!(got, want);
            }
        }
        let counters = batched_engine.counters();
        prop_assert_eq!(counters, single_engine.counters());
        prop_assert_eq!(counters.predictions, warm);
    }
}
