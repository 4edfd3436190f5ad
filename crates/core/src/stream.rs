//! The paper's prefetcher (Fig. 3) around the tables: per-stream history
//! and the one batched step from accesses to prefetches. The serving
//! runtime's shard loop (many streams per step) and `DartPrefetcher` (one
//! stream, one access per step) both run [`StreamEngine::step`]; they
//! differ only in how they find a stream ([`StreamLookup`]) and in the
//! model epochs they pass.

use std::collections::VecDeque;

use dart_nn::matrix::Matrix;
use dart_trace::PreprocessConfig;

use crate::tabular_model::{TabularModel, TokenRows};
use crate::token_ring::TokenRing;

/// Rolling access history of one stream, and beside it a [`TokenRing`] of
/// the same tokens' encoded rows (`T * (2D * 4 + 2 * H * C_k * 2)` bytes
/// once a step has served the stream), so an access encodes one token, not
/// `T`. `history` stays the truth: the ring is used only while it was
/// encoded under the epoch now serving and matches the history.
#[derive(Clone, Debug)]
pub struct StreamState {
    history: VecDeque<(u64, u64)>, // (block, pc)
    seq_len: usize,
    next_seq: u64,
    ring: TokenRing,
    /// Model epoch the ring's rows were encoded under (0: none yet).
    ring_epoch: u64,
}

impl StreamState {
    /// Fresh state for a model with history length `seq_len`.
    pub fn new(seq_len: usize) -> StreamState {
        StreamState {
            history: VecDeque::with_capacity(seq_len),
            seq_len,
            next_seq: 0,
            ring: TokenRing::default(),
            ring_epoch: 0,
        }
    }

    /// True when the ring holds exactly the rows of `history` as the model
    /// of `epoch` encodes them. False after a hot swap, for a stream no
    /// step has served yet, and after a bare [`Self::push`].
    fn ring_current(&self, epoch: u64) -> bool {
        self.ring_epoch == epoch && self.ring.len() == self.history.len()
    }

    /// Re-derive the ring from `history` under `model` (the version of
    /// `epoch`); returns the rows encoded.
    fn rebuild_ring(&mut self, epoch: u64, model: &TabularModel, pre: &PreprocessConfig) -> usize {
        self.ring.clear();
        self.ring_epoch = epoch;
        if self.history.is_empty() {
            return 0;
        }
        let mut feats = Matrix::zeros(self.history.len(), pre.input_dim());
        self.write_history_into(pre, &mut feats, 0);
        let tokens = model.encode_tokens(&feats);
        for r in 0..tokens.rows() {
            self.ring.push(self.seq_len, &tokens, r);
        }
        tokens.rows()
    }

    /// [`Self::push`] together with the access's encoded token, row `r` of
    /// `tokens` (the ring must be [`Self::ring_current`] for the epoch
    /// that encoded it).
    fn push_token(&mut self, block: u64, pc: u64, tokens: &TokenRows, r: usize) -> u64 {
        self.ring.push(self.seq_len, tokens, r);
        self.push(block, pc)
    }

    /// Record one access; returns its per-stream sequence number.
    pub fn push(&mut self, block: u64, pc: u64) -> u64 {
        if self.history.len() == self.seq_len {
            self.history.pop_front();
        }
        self.history.push_back((block, pc));
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Forget everything: clear the history window and the token ring and
    /// restart the per-stream sequence counter, keeping their allocations.
    /// How a stream map recycles an evicted stream's slot — the next
    /// occupant starts exactly as cold as a brand-new stream.
    pub fn reset(&mut self) {
        self.history.clear();
        self.next_seq = 0;
        self.ring.clear();
        self.ring_epoch = 0;
    }

    /// True once the history holds a full model window.
    pub fn warm(&self) -> bool {
        self.history.len() == self.seq_len
    }

    /// Number of accesses seen so far.
    pub fn requests(&self) -> u64 {
        self.next_seq
    }

    /// Write the history window into `seq_len` stacked feature rows of
    /// `feats`, starting at `base_row` (the batched-prediction layout of
    /// `TabularModel::predict_batch`): the materialised window the token
    /// ring is checked against. Panics if the stream is not
    /// [`warm`](Self::warm).
    pub fn write_features_into(&self, pre: &PreprocessConfig, feats: &mut Matrix, base_row: usize) {
        assert!(self.warm(), "write_features_into on a cold stream");
        self.write_history_into(pre, feats, base_row);
    }

    /// One feature row per history entry, oldest first, from `base_row`.
    fn write_history_into(&self, pre: &PreprocessConfig, feats: &mut Matrix, base_row: usize) {
        for (t, &(block, pc)) in self.history.iter().enumerate() {
            pre.write_token_features(block, pc, feats.row_mut(base_row + t));
        }
    }
}

/// Where [`StreamEngine::step`] finds the state of an access's stream.
pub trait StreamLookup {
    /// The state of `stream`, created cold for a `seq_len`-token window if
    /// absent.
    fn stream(&mut self, stream: u64, seq_len: usize) -> &mut StreamState;
}

/// A lone stream: every access is its own, whatever its stream id.
impl StreamLookup for StreamState {
    fn stream(&mut self, _: u64, _: usize) -> &mut StreamState {
        self
    }
}

/// Emission policy applied to each bitmap prediction
/// ([`PreprocessConfig::decode_bitmap_into`], which floors `max_degree`
/// at one).
#[derive(Clone, Copy, Debug, Default)]
pub struct EmitPolicy {
    pub threshold: f32,
    pub max_degree: usize,
}

/// What the steps so far have done, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepCounters {
    /// Warm accesses, each one window through `predict_tokens`.
    pub predictions: u64,
    /// Token rows run through `encode_tokens`: one per access, plus a
    /// stream's history whenever its ring is rebuilt.
    pub token_rows_computed: u64,
    /// Window rows taken from a ring instead (`seq_len - 1` per warm access
    /// in steady state).
    pub token_rows_reused: u64,
}

/// The batched step and the scratch it reuses between steps, so a
/// long-running caller performs no steady-state allocation for staging
/// however many steps it runs.
#[derive(Clone, Default)]
pub struct StreamEngine {
    pre: PreprocessConfig,
    emit: EmitPolicy,
    /// This step's `(stream, block, pc)` accesses, in arrival order.
    accesses: Vec<(u64, u64, u64)>,
    feat_buf: Vec<f32>,
    /// The stacked warm windows handed to `predict_tokens`, shaped for the
    /// model of `windows_epoch` (0: none yet).
    windows: TokenRows,
    windows_epoch: u64,
    /// `(access index, anchor block)` per stacked window.
    warm: Vec<(usize, u64)>,
    candidates: Vec<(f32, usize)>,
    /// `(seq, prefetch blocks)` per access of the step.
    out: Vec<(u64, Vec<u64>)>,
    counters: StepCounters,
}

impl StreamEngine {
    /// An engine emitting under `emit` for streams preprocessed by `pre`,
    /// which must agree with `model`'s shape.
    pub fn new(model: &TabularModel, pre: PreprocessConfig, emit: EmitPolicy) -> StreamEngine {
        assert_eq!(model.config.seq_len, pre.seq_len, "seq_len mismatch");
        assert_eq!(model.config.input_dim, pre.input_dim(), "input dim mismatch");
        assert_eq!(model.config.output_dim, pre.output_dim(), "output dim mismatch");
        StreamEngine { pre, emit, ..Default::default() }
    }

    /// The counters summed over every step so far.
    pub fn counters(&self) -> StepCounters {
        self.counters
    }

    /// Serve a batch of `(stream, block, pc)` accesses under `model`, the
    /// version of `epoch` (nonzero, changed whenever the model is); yields
    /// `(seq, prefetch blocks)` per access, in order.
    ///
    /// One feature row per access and one `encode_tokens` for the batch;
    /// then, in arrival order, each row joins its stream's ring (rebuilt
    /// from the history first if encoded under another epoch) and a warm
    /// stream's window is copied out at once, so several accesses of one
    /// stream each get their own window; last, one `predict_tokens` and the
    /// emission rule per window. Bit for bit `predict_batch` on the
    /// materialised windows ([`StreamState::write_features_into`]).
    pub fn step<L: StreamLookup>(
        &mut self,
        model: &TabularModel,
        epoch: u64,
        streams: &mut L,
        accesses: impl IntoIterator<Item = (u64, u64, u64)>,
    ) -> std::vec::Drain<'_, (u64, Vec<u64>)> {
        let (t, di) = (self.pre.seq_len, self.pre.input_dim());
        if epoch != self.windows_epoch {
            self.windows = TokenRows::zeros(model, 0);
            self.windows_epoch = epoch;
        }
        self.accesses.clear();
        self.accesses.extend(accesses);
        self.warm.clear();
        self.out.clear();
        let n = self.accesses.len();

        self.feat_buf.clear();
        self.feat_buf.resize(n * di, 0.0);
        let mut feats = Matrix::from_vec(n, di, std::mem::take(&mut self.feat_buf));
        for (i, &(_, block, pc)) in self.accesses.iter().enumerate() {
            self.pre.write_token_features(block, pc, feats.row_mut(i));
        }
        let tokens = model.encode_tokens(&feats);
        self.feat_buf = feats.into_vec();
        self.counters.token_rows_computed += n as u64;

        self.windows.resize_rows(n * t);
        for (i, &(stream, block, pc)) in self.accesses.iter().enumerate() {
            let state = streams.stream(stream, t);
            let rebuilt = !state.ring_current(epoch);
            if rebuilt {
                self.counters.token_rows_computed +=
                    state.rebuild_ring(epoch, model, &self.pre) as u64;
            }
            self.out.push((state.push_token(block, pc, &tokens, i), Vec::new()));
            if state.warm() {
                state.ring.write_window(&mut self.windows, self.warm.len());
                self.warm.push((i, block));
                if !rebuilt {
                    self.counters.token_rows_reused += (t - 1) as u64;
                }
            }
        }

        if !self.warm.is_empty() {
            self.windows.resize_rows(self.warm.len() * t);
            let probs = model.predict_tokens(&self.windows);
            for (w, &(i, anchor)) in self.warm.iter().enumerate() {
                self.out[i].1 = self.pre.decode_bitmap_into(
                    probs.row(w),
                    anchor,
                    self.emit.threshold,
                    self.emit.max_degree,
                    &mut self.candidates,
                );
            }
            self.counters.predictions += self.warm.len() as u64;
        }
        self.out.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pre() -> PreprocessConfig {
        PreprocessConfig { seq_len: 4, ..Default::default() }
    }

    #[test]
    fn warms_after_seq_len_accesses() {
        let mut s = StreamState::new(4);
        for i in 0..3 {
            assert_eq!(s.push(100 + i, 0x400), i);
            assert!(!s.warm());
        }
        assert_eq!(s.push(103, 0x400), 3);
        assert!(s.warm());
        assert_eq!(s.requests(), 4);
    }

    #[test]
    fn history_is_a_sliding_window() {
        let pre = pre();
        let mut s = StreamState::new(4);
        for i in 0..10u64 {
            s.push(i, 0x400);
        }
        // Window should be blocks [6, 7, 8, 9], written at a row offset.
        let mut feats = Matrix::zeros(8, pre.input_dim());
        s.write_features_into(&pre, &mut feats, 4);
        let mut expected = Matrix::zeros(8, pre.input_dim());
        for (t, block) in (6u64..10).enumerate() {
            pre.write_token_features(block, 0x400, expected.row_mut(4 + t));
        }
        assert_eq!(feats, expected);
    }

    #[test]
    #[should_panic(expected = "cold stream")]
    fn cold_stream_rejects_feature_write() {
        let pre = pre();
        let s = StreamState::new(4);
        let mut m = Matrix::zeros(4, pre.input_dim());
        s.write_features_into(&pre, &mut m, 0);
    }
}
