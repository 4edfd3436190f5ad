//! The DART prefetcher (paper Fig. 3): a history buffer feeding the
//! hierarchy-of-tables predictor, emitting one prefetch per delta-bitmap bit
//! above threshold (variable prefetch degree).

use dart_core::config::PredictorConfig;
use dart_core::configurator::model_latency;
use dart_core::{EmitPolicy, StreamEngine, StreamState, TabularModel};
use dart_sim::{LlcAccess, Prefetcher};
use dart_trace::PreprocessConfig;

/// DART: table-based neural prefetching at rule-based-prefetcher cost.
///
/// One stream through the serving runtime's [`StreamEngine`], one access
/// per step: each access is encoded once and joins the stream's token
/// ring, and a prediction runs `predict_tokens` over the ring's window —
/// bit for bit `forward_probs` on the window's `T x D_I` feature matrix.
pub struct DartPrefetcher {
    name: String,
    model: TabularModel,
    stream: StreamState,
    engine: StreamEngine,
    latency: u64,
}

impl DartPrefetcher {
    /// Wrap a tabular model. `predictor_cfg` supplies the Eq. 22 analytic
    /// latency (Table VIII); `threshold`/`max_degree` bound emissions.
    pub fn new(
        name: impl Into<String>,
        model: TabularModel,
        pre: PreprocessConfig,
        predictor_cfg: &PredictorConfig,
        threshold: f32,
        max_degree: usize,
    ) -> DartPrefetcher {
        let latency = model_latency(predictor_cfg);
        Self::with_latency(name, model, pre, latency, threshold, max_degree)
    }

    /// Explicit-latency constructor (used by ideal-variant ablations).
    pub fn with_latency(
        name: impl Into<String>,
        model: TabularModel,
        pre: PreprocessConfig,
        latency: u64,
        threshold: f32,
        max_degree: usize,
    ) -> DartPrefetcher {
        DartPrefetcher {
            name: name.into(),
            engine: StreamEngine::new(&model, pre, EmitPolicy { threshold, max_degree }),
            model,
            stream: StreamState::new(pre.seq_len),
            latency,
        }
    }
}

impl Prefetcher for DartPrefetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn on_access(&mut self, access: &LlcAccess) -> Vec<u64> {
        // One stream, one model: epoch 1 throughout.
        let access = [(0, access.block, access.pc)];
        let mut out = self.engine.step(&self.model, 1, &mut self.stream, access);
        out.next().map_or_else(Vec::new, |(_, prefetch)| prefetch)
    }

    fn storage_bytes(&self) -> u64 {
        self.model.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn_batch::{precompute_predictions, NnBatchPrefetcher};
    use dart_core::config::TabularConfig;
    use dart_core::tabularize::tabularize;
    use dart_nn::init::InitRng;
    use dart_nn::layers::Param;
    use dart_nn::matrix::Matrix;
    use dart_nn::model::{AccessPredictor, ModelConfig, SequenceModel};
    use dart_trace::TraceRecord;

    fn tiny_setup() -> (TabularModel, PreprocessConfig) {
        let pre = PreprocessConfig {
            seq_len: 4,
            addr_segments: 3,
            seg_bits: 4,
            pc_segments: 1,
            delta_range: 4,
            lookforward: 4,
        };
        let cfg = ModelConfig {
            input_dim: pre.input_dim(),
            dim: 8,
            heads: 2,
            layers: 1,
            ffn_dim: 16,
            output_dim: pre.output_dim(),
            seq_len: pre.seq_len,
        };
        let student = AccessPredictor::new(cfg, 3).unwrap();
        let mut rng = InitRng::new(9);
        let x = Matrix::from_fn(40 * 4, pre.input_dim(), |_, _| rng.next_f32());
        let tab_cfg = TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..Default::default() };
        let (model, _) = tabularize(&student, &x, &tab_cfg);
        (model, pre)
    }

    fn access(seq: usize, block: u64) -> LlcAccess {
        LlcAccess {
            seq,
            instr_id: seq as u64 * 4,
            pc: 0x400100,
            addr: block << 6,
            block,
            hit: false,
        }
    }

    #[test]
    fn warms_up_before_predicting() {
        let (model, pre) = tiny_setup();
        let mut pf = DartPrefetcher::with_latency("DART", model, pre, 97, 0.0, 4);
        // First seq_len - 1 accesses: no prediction.
        for i in 0..3 {
            assert!(pf.on_access(&access(i, 100 + i as u64)).is_empty());
        }
        // With threshold 0 every bit qualifies; degree caps at 4.
        let out = pf.on_access(&access(3, 103));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn emissions_are_valid_deltas() {
        let (model, pre) = tiny_setup();
        let r = pre.delta_range as i64;
        let mut pf = DartPrefetcher::with_latency("DART", model, pre, 97, 0.0, 8);
        for i in 0..3 {
            let _ = pf.on_access(&access(i, 500 + i as u64));
        }
        let out = pf.on_access(&access(3, 503));
        for target in out {
            let delta = target as i64 - 503;
            assert!(delta != 0 && delta.abs() <= r, "delta {delta} out of range");
        }
    }

    #[test]
    fn threshold_one_silences_prefetcher() {
        let (model, pre) = tiny_setup();
        let mut pf = DartPrefetcher::with_latency("DART", model, pre, 97, 1.1, 4);
        for i in 0..10 {
            assert!(pf.on_access(&access(i, 100 + i as u64)).is_empty());
        }
    }

    /// `precompute_predictions` only reads probabilities, so this lets it
    /// decode the very rows `DartPrefetcher` sees.
    struct TabularProbs(TabularModel);

    impl SequenceModel for TabularProbs {
        fn forward_logits(&mut self, _: &Matrix, _: bool) -> Matrix {
            unreachable!("inference only")
        }
        fn backward_logits(&mut self, _: &Matrix) {
            unreachable!("inference only")
        }
        fn visit_params(&mut self, _: &mut dyn FnMut(&mut Param)) {}
        fn seq_len(&self) -> usize {
            self.0.config.seq_len
        }
        fn input_dim(&self) -> usize {
            self.0.config.input_dim
        }
        fn output_dim(&self) -> usize {
            self.0.config.output_dim
        }
        fn forward_probs(&mut self, x: &Matrix) -> Matrix {
            self.0.predict_batch(x)
        }
    }

    /// One emission rule, one forward: on every access of a 200-record
    /// trace (three PCs, strides and jumps) the same targets come out of
    /// the NN-baseline replay, `DartPrefetcher`'s token ring, and
    /// `forward_probs` + `decode_bitmap_into` on the materialised window,
    /// including the `max_degree = 0` floor of one.
    #[test]
    fn nn_batch_dart_and_decode_bitmap_emit_identical_targets() {
        let (model, pre) = tiny_setup();
        let mut block = 100u64;
        let trace: Vec<TraceRecord> = (0..200u64)
            .map(|i| {
                block = if i % 17 == 16 { block + 4096 } else { block + 1 + i % 3 };
                TraceRecord { instr_id: i * 4, pc: 0x400100 + (i % 3) * 8, addr: block << 6 }
            })
            .collect();
        let mut scratch = Vec::new();
        for max_degree in [0, 1, 4] {
            let preds = precompute_predictions(
                &mut TabularProbs(model.clone()),
                &trace,
                &pre,
                0.0,
                max_degree,
            );
            let mut nn = NnBatchPrefetcher::new("NN", 0, 0, preds);
            let mut dart =
                DartPrefetcher::with_latency("DART", model.clone(), pre, 97, 0.0, max_degree);
            for (i, rec) in trace.iter().enumerate() {
                let acc = LlcAccess { pc: rec.pc, ..access(i, rec.block()) };
                let from_dart = dart.on_access(&acc);
                assert_eq!(nn.on_access(&acc), from_dart, "degree {max_degree}, access {i}");
                if i + 1 < pre.seq_len {
                    continue;
                }
                let mut x = Matrix::zeros(pre.seq_len, pre.input_dim());
                for (t, r) in trace[i + 1 - pre.seq_len..=i].iter().enumerate() {
                    pre.write_token_features(r.block(), r.pc, x.row_mut(t));
                }
                let probs = model.forward_probs(&x);
                let direct = pre.decode_bitmap_into(
                    probs.row(0),
                    rec.block(),
                    0.0,
                    max_degree,
                    &mut scratch,
                );
                assert_eq!(direct, from_dart, "degree {max_degree}, access {i}");
                // Threshold 0: every bit qualifies, so the cap decides.
                assert_eq!(from_dart.len(), max_degree.max(1));
            }
        }
    }

    /// What `DartPrefetcher` was before the token ring: the `(block, pc)`
    /// history written out as a `T x D_I` matrix and pushed through
    /// `forward_probs` on every access.
    struct WindowDart {
        model: TabularModel,
        pre: PreprocessConfig,
        history: std::collections::VecDeque<(u64, u64)>,
    }

    impl Prefetcher for WindowDart {
        fn name(&self) -> &str {
            "DART-window"
        }
        fn latency(&self) -> u64 {
            97
        }
        fn on_access(&mut self, access: &LlcAccess) -> Vec<u64> {
            if self.history.len() == self.pre.seq_len {
                self.history.pop_front();
            }
            self.history.push_back((access.block, access.pc));
            if self.history.len() < self.pre.seq_len {
                return Vec::new();
            }
            let mut x = Matrix::zeros(self.pre.seq_len, self.pre.input_dim());
            for (t, &(block, pc)) in self.history.iter().enumerate() {
                self.pre.write_token_features(block, pc, x.row_mut(t));
            }
            let probs = self.model.forward_probs(&x);
            self.pre.decode_bitmap_into(probs.row(0), access.block, 0.6, 4, &mut Vec::new())
        }
        fn storage_bytes(&self) -> u64 {
            self.model.storage_bytes()
        }
    }

    /// The whole simulation — every cycle, fill and late prefetch — is the
    /// same with the ring as with the materialised window, on the seeded
    /// gcc trace the benchmark's `paper_loop` runs.
    #[test]
    fn sim_counters_equal_a_window_materialising_prefetcher() {
        let (model, pre) = tiny_setup();
        let trace = dart_trace::workload_by_name("602.gcc").unwrap().generate(6_000, 1);
        let sim = dart_sim::Simulator::new(dart_sim::SimConfig::table_iii());
        let mut ring = DartPrefetcher::with_latency("DART", model.clone(), pre, 97, 0.6, 4);
        let mut window = WindowDart { model, pre, history: Default::default() };
        let with_ring = sim.run(&trace, &mut ring, false);
        let with_window = sim.run(&trace, &mut window, false);
        assert!(with_ring.prefetches_issued > 0, "the comparison must exercise predictions");
        assert_eq!(format!("{with_ring:?}"), format!("{with_window:?}"));
    }

    #[test]
    fn latency_comes_from_configurator() {
        let (model, pre) = tiny_setup();
        let cfg = PredictorConfig::dart();
        let pf = DartPrefetcher::new("DART", model, pre, &cfg, 0.5, 4);
        assert_eq!(pf.latency(), model_latency(&cfg));
        assert!(pf.storage_bytes() > 0);
    }
}
