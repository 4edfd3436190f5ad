//! The shard worker's token path against the materialised window.
//!
//! A worker encodes each request's token once and keeps the row in its
//! stream's ring; what it answers must be, bit for bit, what
//! `predict_batch` answers on the stream's history written out as a
//! `T x D_I` feature matrix. The reference here is exactly that — a
//! `StreamLru` of the same capacity, `StreamState::write_features_into`,
//! one `predict_batch` call per warm access, the shared emission rule — and
//! it is driven through everything that can put a ring out of step with
//! its history: several requests of one stream in one drained batch, LRU
//! eviction and re-warm, connection retirement, and hot swaps to other
//! weights, another shape and a bit-identical clone.
//!
//! One shard, so arrival order — which the reference replays — is
//! submission order.

use std::sync::Arc;

use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_pq::EncoderKind;
use dart_serve::{
    drill_model, drill_pre, PrefetchRequest, ServeConfig, ServeRuntime, ServeStats, StreamLru,
};
use dart_trace::PreprocessConfig;

struct Shape {
    dim: usize,
    heads: usize,
    layers: usize,
}

const SMALL: Shape = Shape { dim: 8, heads: 2, layers: 1 };

fn model(pre: &PreprocessConfig, shape: Shape, seed: u64, tab: TabularConfig) -> Arc<TabularModel> {
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: shape.dim,
        heads: shape.heads,
        layers: shape.layers,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, seed).unwrap();
    let mut rng = InitRng::new(seed ^ 0x9E37);
    let x = Matrix::from_fn(40 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    let tab = TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..tab };
    Arc::new(tabularize(&student, &x, &tab).0)
}

/// `count` accesses of each of `streams`, interleaved round-robin; every
/// stream walks its own addresses with its own stride, and `from` makes
/// later calls continue where earlier ones stopped.
fn accesses(streams: &[u64], from: u64, count: u64) -> Vec<PrefetchRequest> {
    let mut out = Vec::new();
    for k in from..from + count {
        for &stream_id in streams {
            let lane = stream_id & 0xff;
            let block = (lane + 1) * 10_000 + k * (1 + lane % 3) + (k % 5) * (lane % 2);
            out.push(PrefetchRequest { stream_id, pc: 0x400100 + 8 * (k % 3), addr: block << 6 });
        }
    }
    out
}

fn cfg(max_batch: usize, pool_threads: usize, max_streams: usize) -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch,
        threshold: 0.3,
        max_degree: 4,
        max_streams_per_shard: max_streams,
        pool_threads: Some(pool_threads),
        ..ServeConfig::default()
    }
}

/// The answers one shard owes, from materialised windows.
struct Reference {
    lru: StreamLru,
    model: Arc<TabularModel>,
    pre: PreprocessConfig,
    cfg: ServeConfig,
    feats: Matrix,
    candidates: Vec<(f32, usize)>,
    predictions: u64,
}

impl Reference {
    fn new(model: &Arc<TabularModel>, pre: PreprocessConfig, cfg: ServeConfig) -> Reference {
        Reference {
            lru: StreamLru::new(cfg.max_streams_per_shard),
            model: Arc::clone(model),
            pre,
            cfg,
            feats: Matrix::zeros(pre.seq_len, pre.input_dim()),
            candidates: Vec::new(),
            predictions: 0,
        }
    }

    fn answer(&mut self, req: &PrefetchRequest) -> (u64, Vec<u64>) {
        let state = self.lru.entry(req.stream_id, self.pre.seq_len);
        let seq = state.push(req.block(), req.pc);
        if !state.warm() {
            return (seq, Vec::new());
        }
        state.write_features_into(&self.pre, &mut self.feats, 0);
        let probs = self.model.predict_batch(&self.feats);
        self.predictions += 1;
        let blocks = self.pre.decode_bitmap_into(
            probs.row(0),
            req.block(),
            self.cfg.threshold,
            self.cfg.max_degree,
            &mut self.candidates,
        );
        (seq, blocks)
    }
}

/// Submit `reqs` as one burst (so the worker drains full batches) and hold
/// every response against the reference, in order.
fn serve_and_check(rt: &ServeRuntime, reference: &mut Reference, reqs: &[PrefetchRequest]) {
    rt.submit_all(reqs.iter().copied());
    rt.wait_idle();
    let responses = rt.drain_completed();
    assert_eq!(responses.len(), reqs.len());
    for (i, (req, resp)) in reqs.iter().zip(&responses).enumerate() {
        let (seq, blocks) = reference.answer(req);
        assert_eq!(resp.error, None);
        assert_eq!((resp.stream_id, resp.seq), (req.stream_id, seq), "request {i}");
        assert_eq!(resp.prefetch_blocks, blocks, "request {i}: stream {} seq {seq}", req.stream_id);
    }
}

fn token_rows(stats: &ServeStats) -> (u64, u64) {
    (
        stats.per_shard_token_rows_computed.iter().sum(),
        stats.per_shard_token_rows_reused.iter().sum(),
    )
}

/// Every encoder, FFN form and depth; batches of 1, 3 and 64; kernels
/// inline and on a 4-thread pool. Five streams in bursts of 200, so at
/// `max_batch` 64 a drained batch holds a dozen requests of each stream.
#[test]
fn served_equals_predict_batch_on_the_materialised_window() {
    let pre = drill_pre();
    let variants = [
        (
            "argmin",
            model(
                &pre,
                SMALL,
                3,
                TabularConfig { encoder: EncoderKind::Argmin, ..Default::default() },
            ),
        ),
        (
            "hash tree",
            model(
                &pre,
                SMALL,
                3,
                TabularConfig { encoder: EncoderKind::HashTree, ..Default::default() },
            ),
        ),
        (
            "fused ffn",
            model(&pre, SMALL, 3, TabularConfig { fuse_ffn: true, ..Default::default() }),
        ),
        ("two blocks", model(&pre, Shape { layers: 2, ..SMALL }, 3, TabularConfig::default())),
    ];
    let reqs = accesses(&[0, 1, 2, 3, 4], 0, 40);
    for (name, model) in &variants {
        for max_batch in [1, 3, 64] {
            for pool_threads in [1, 4] {
                let cfg = cfg(max_batch, pool_threads, 64);
                let rt = ServeRuntime::start(Arc::clone(model), pre, cfg);
                let mut reference = Reference::new(model, pre, cfg);
                serve_and_check(&rt, &mut reference, &reqs);
                let stats = rt.shutdown();
                let context = format!("{name}, max_batch {max_batch}, {pool_threads} threads");
                assert!(reference.predictions > 0 && stats.failed == 0, "{context}");
                assert_eq!(stats.predictions, reference.predictions, "{context}");
                if max_batch == 64 {
                    assert!(stats.max_batch > 5, "{context}: no stream repeated within a batch");
                }
                // Steady state: each request's token is encoded once; a
                // warm window takes its other T - 1 rows from the ring.
                let reused = stats.predictions * (pre.seq_len as u64 - 1);
                assert_eq!(token_rows(&stats), (reqs.len() as u64, reused), "{context}");
            }
        }
    }
}

/// A stream evicted by the LRU cap comes back cold and re-warms: its ring
/// must restart with its history, not resume from the evicted rows (the
/// slot and its buffers are recycled by whoever evicted it).
#[test]
fn eviction_then_rewarm_matches_the_reference() {
    let pre = drill_pre();
    let model = drill_model(&pre, 4);
    let cfg = cfg(16, 1, 3);
    let rt = ServeRuntime::start(Arc::clone(&model), pre, cfg);
    let mut reference = Reference::new(&model, pre, cfg);
    serve_and_check(&rt, &mut reference, &accesses(&[0, 1, 2], 0, 8));
    serve_and_check(&rt, &mut reference, &accesses(&[3, 4, 5], 0, 8));
    serve_and_check(&rt, &mut reference, &accesses(&[0, 1, 2], 8, 8));
    // Five streams over three slots: every access evicts.
    serve_and_check(&rt, &mut reference, &accesses(&[0, 1, 2, 3, 4], 16, 6));
    let stats = rt.shutdown();
    assert_eq!(stats.stream_evictions, reference.lru.evictions());
    assert!(stats.stream_evictions >= 6 + 5 * 6 - 3);
    assert_eq!(stats.predictions, reference.predictions);
}

#[test]
fn retired_streams_restart_cold() {
    let pre = drill_pre();
    let model = drill_model(&pre, 5);
    let cfg = cfg(64, 1, 64);
    let rt = ServeRuntime::start(Arc::clone(&model), pre, cfg);
    let mut reference = Reference::new(&model, pre, cfg);
    let streams = [7 << 32, 7 << 32 | 1, 8 << 32, 8 << 32 | 1];
    serve_and_check(&rt, &mut reference, &accesses(&streams, 0, 10));
    // Applied by the worker before its next batch — the one just below.
    rt.retire_streams_with_prefix(7);
    assert_eq!(reference.lru.retire_prefix(7), 2);
    serve_and_check(&rt, &mut reference, &accesses(&streams, 10, 10));
    let stats = rt.shutdown();
    assert_eq!(stats.stream_retirements, 2);
    assert_eq!(stats.predictions, reference.predictions);
}

/// Hot swaps mid-stream. New weights (and then a new *shape*) must answer
/// from the surviving history with every row re-encoded — a burst of
/// `computed`, no reuse on the first request after the swap; a
/// bit-identical clone must change no answer.
#[test]
fn hot_swaps_rederive_rows_from_the_history() {
    let pre = drill_pre();
    let first = drill_model(&pre, 6);
    let cfg = cfg(64, 1, 64);
    let rt = ServeRuntime::start(Arc::clone(&first), pre, cfg);
    let mut reference = Reference::new(&first, pre, cfg);
    let streams = [0, 1, 2, 3, 4, 5];
    let t = pre.seq_len as u64;
    let mut from = 0;
    let mut serve = |reference: &mut Reference, count: u64| {
        serve_and_check(&rt, reference, &accesses(&streams, from, count));
        from += count;
        token_rows(&rt.stats_snapshot())
    };
    let n = streams.len() as u64;

    let (computed, reused) = serve(&mut reference, 10);
    assert_eq!((computed, reused), (10 * n, (10 - (t - 1)) * n * (t - 1)));

    let swaps = [
        ("other weights", drill_model(&pre, 7)),
        (
            "other shape",
            model(&pre, Shape { dim: 16, heads: 4, layers: 1 }, 8, TabularConfig::default()),
        ),
    ];
    let (mut computed, mut reused) = (computed, reused);
    for (name, next) in swaps {
        assert_ne!(next.fingerprint(), reference.model.fingerprint(), "{name}");
        rt.swap_model(Arc::clone(&next), name).expect("same preprocessing dimensions");
        reference.model = next;
        let (c, r) = serve(&mut reference, 6);
        // Each stream's first request re-encodes its T-token history and
        // reuses nothing; its other five run in steady state.
        assert_eq!(c - computed, n * (t + 6), "{name}");
        assert_eq!(r - reused, n * 5 * (t - 1), "{name}");
        (computed, reused) = (c, r);
    }

    let clone = Arc::new(TabularModel::clone(&reference.model));
    assert_eq!(clone.fingerprint(), reference.model.fingerprint());
    rt.swap_model(clone, "bit-identical clone").unwrap();
    // The reference keeps answering with the model it had.
    serve(&mut reference, 6);

    let stats = rt.shutdown();
    assert_eq!((stats.model_swaps, stats.failed), (3, 0));
    assert_eq!(stats.predictions, reference.predictions);
}

/// An inconsistent model is refused where it is loaded, with the reason,
/// instead of panicking a shard worker on its first batch.
#[test]
fn inconsistent_models_are_refused_at_the_door() {
    let pre = drill_pre();
    let good = drill_model(&pre, 9);
    let rt = ServeRuntime::start(Arc::clone(&good), pre, cfg(8, 1, 8));

    // Heads built for another window length: every part parses and every
    // preprocessing dimension matches, but no ring can be sized for it.
    let other = PreprocessConfig { seq_len: 6, ..pre };
    let mut torn = TabularModel::clone(&good);
    torn.blocks[0].heads = drill_model(&other, 9).blocks[0].heads.clone();
    let err = rt.swap_model(Arc::new(torn.clone()), "torn").unwrap_err();
    assert!(err.contains("seq_len"), "{err}");
    assert_eq!(rt.model_version(), 1, "a refused candidate must change nothing");
    rt.shutdown();

    let started =
        std::panic::catch_unwind(|| ServeRuntime::start(Arc::new(torn), pre, cfg(8, 1, 8)));
    assert!(started.is_err(), "start must refuse an inconsistent model");
}
