//! Per-stream history state.

use std::collections::VecDeque;

use dart_core::{TabularModel, TokenRing, TokenRows};
use dart_nn::matrix::Matrix;
use dart_trace::PreprocessConfig;

/// Rolling access history of one client stream, mirroring the
/// `DartPrefetcher` history buffer but owned by a shard worker so thousands
/// of streams can share one model.
///
/// Beside the `(block, pc)` history sits a [`TokenRing`] of the same
/// tokens' encoded rows (`T * (2D * 4 + 2 * H * C_k * 2)` bytes once the
/// worker has served the stream), so a request encodes one token, not
/// `T`. `history` stays the truth: rows are kept only while they were
/// encoded under the model epoch now serving and match the history token
/// for token; otherwise the worker re-derives them from `history`
/// ([`Self::rebuild_ring`]).
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
    /// of `epoch` encodes them. False after a hot swap, for a stream the
    /// worker has not served yet, and after a bare [`Self::push`].
    pub(crate) fn ring_current(&self, epoch: u64) -> bool {
        self.ring_epoch == epoch && self.ring.len() == self.history.len()
    }

    /// Re-derive the ring from `history` under `model` (the version of
    /// `epoch`); returns the rows encoded.
    pub(crate) fn rebuild_ring(
        &mut self,
        epoch: u64,
        model: &TabularModel,
        pre: &PreprocessConfig,
    ) -> usize {
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
    pub(crate) fn push_token(&mut self, block: u64, pc: u64, tokens: &TokenRows, r: usize) -> u64 {
        self.ring.push(self.seq_len, tokens, r);
        self.push(block, pc)
    }

    /// Copy the warm window's token rows into window `w` of `dst`.
    pub(crate) fn write_tokens_into(&self, dst: &mut TokenRows, w: usize) {
        self.ring.write_window(dst, w);
    }

    /// Record one access; returns the request's per-stream sequence number.
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
    /// Used by the shard LRU to recycle an evicted stream's slot — the next
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

    /// Block address of the most recent access (prediction anchor).
    pub fn last_block(&self) -> Option<u64> {
        self.history.back().map(|&(block, _)| block)
    }

    /// Number of requests seen so far.
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
        assert_eq!(s.last_block(), Some(103));
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
