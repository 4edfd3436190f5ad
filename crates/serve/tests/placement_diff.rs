//! Differential proof that NUMA-aware shard placement is
//! behavior-neutral: the identical request sequence served with
//! `ShardPlacement::NumaRoundRobin` and with placement disabled must
//! produce identical responses and identical serving counts. On the CI
//! container this exercises the single-node fallback (pin to the full
//! cpuset, no replica); on a real multi-socket host the same test proves
//! the node-local replicas are bit-identical to the original.

use std::collections::HashMap;
use std::sync::Arc;

use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_serve::{
    generate_requests, LoadGenConfig, PrefetchRequest, ServeConfig, ServeRuntime, ShardPlacement,
};
use dart_trace::PreprocessConfig;

/// A tiny tabularized model + preprocessing pair (fast to fit).
fn tiny_setup() -> (Arc<TabularModel>, PreprocessConfig) {
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
    (Arc::new(model), pre)
}

type ResponseMap = HashMap<(u64, u64), Vec<u64>>;

fn run(
    model: &Arc<TabularModel>,
    pre: PreprocessConfig,
    cfg: ServeConfig,
    reqs: &[PrefetchRequest],
) -> (ResponseMap, u64, u64) {
    let runtime = ServeRuntime::start(Arc::clone(model), pre, cfg);
    runtime.submit_all(reqs.iter().copied());
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), reqs.len(), "dropped responses");
    for resp in &responses {
        assert!(resp.error.is_none(), "unexpected failure response");
    }
    let map: ResponseMap =
        responses.into_iter().map(|r| ((r.stream_id, r.seq), r.prefetch_blocks)).collect();
    assert_eq!(map.len(), reqs.len(), "duplicate (stream, seq) keys");
    let stats = runtime.shutdown();
    (map, stats.predictions, stats.batches)
}

/// Order-normalized responses and `predictions`/`batches` counts must be
/// identical with placement on and off. `max_batch: 1` makes the batch
/// count deterministic (one drain per request) so it can be compared
/// exactly; the coalesced variant below covers the batched path.
#[test]
fn placement_on_and_off_serve_identically() {
    let (model, pre) = tiny_setup();
    let reqs = generate_requests(&LoadGenConfig { streams: 24, accesses_per_stream: 20, seed: 7 });
    let base = ServeConfig {
        shards: 4,
        max_batch: 1,
        threshold: 0.0,
        placement: ShardPlacement::Disabled,
        ..ServeConfig::default()
    };
    let numa = ServeConfig { placement: ShardPlacement::NumaRoundRobin, ..base };

    let (plain, plain_preds, plain_batches) = run(&model, pre, base, &reqs);
    let (placed, placed_preds, placed_batches) = run(&model, pre, numa, &reqs);

    assert_eq!(plain_preds, placed_preds, "placement changed the prediction count");
    assert_eq!(plain_batches, placed_batches, "placement changed the batch count");
    assert_eq!(plain.len(), placed.len());
    for (key, blocks) in &plain {
        assert_eq!(
            placed.get(key),
            Some(blocks),
            "stream {} seq {} diverged under NUMA placement",
            key.0,
            key.1
        );
    }
}

/// Same differential through the coalescing path (batch composition is
/// timing-dependent, so only responses and the prediction count are
/// compared — both must still be bit-identical).
#[test]
fn placement_is_neutral_under_coalescing() {
    let (model, pre) = tiny_setup();
    let reqs = generate_requests(&LoadGenConfig { streams: 16, accesses_per_stream: 30, seed: 11 });
    let base = ServeConfig {
        shards: 2,
        max_batch: 64,
        threshold: 0.0,
        placement: ShardPlacement::Disabled,
        ..ServeConfig::default()
    };
    let numa = ServeConfig { placement: ShardPlacement::NumaRoundRobin, ..base };
    let (plain, plain_preds, _) = run(&model, pre, base, &reqs);
    let (placed, placed_preds, _) = run(&model, pre, numa, &reqs);
    assert_eq!(plain_preds, placed_preds);
    assert_eq!(plain, placed, "coalesced responses diverged under NUMA placement");
}

/// The observability surface: a placed runtime reports a node for every
/// shard (consistent with the topology it detected), an unplaced one
/// reports none, and `ServeStats::per_shard_node` mirrors the plan.
#[test]
fn placement_plan_is_observable() {
    let (model, pre) = tiny_setup();

    let plain = ServeRuntime::start(
        Arc::clone(&model),
        pre,
        ServeConfig { shards: 3, ..ServeConfig::default() },
    );
    assert!(!plain.topology().nodes().is_empty(), "topology must always resolve");
    assert_eq!(plain.per_shard_node(), &[None, None, None]);
    let stats = plain.shutdown();
    assert_eq!(stats.per_shard_node, vec![None, None, None]);

    let placed = ServeRuntime::start(
        Arc::clone(&model),
        pre,
        ServeConfig {
            shards: 3,
            placement: ShardPlacement::NumaRoundRobin,
            ..ServeConfig::default()
        },
    );
    let topology = placed.topology().clone();
    let topo_nodes: Vec<usize> = topology.nodes().iter().map(|n| n.id).collect();
    for node in placed.per_shard_node() {
        let id = node.expect("every shard must be placed under NumaRoundRobin");
        assert!(topo_nodes.contains(&id), "plan references node {id} outside the topology");
    }
    let stats = placed.shutdown();
    assert_eq!(stats.per_shard_node.len(), 3);
    assert!(stats.per_shard_node.iter().all(|n| n.is_some()));
    // Pin outcomes are reported honestly: off Linux x86_64/aarch64
    // pinning is a no-op and must read `false` — placement must not
    // pretend locality it cannot deliver. Where it is supported, a shard
    // pins exactly when its node's cpuset intersects the CPUs
    // this process is allowed to use (pinning never widens a
    // taskset/cgroup restriction, and a disjoint cpuset — e.g. the
    // fallback topology's synthesized ids inside a shifted container
    // cpuset — is a clean no-pin).
    assert_eq!(stats.per_shard_pinned.len(), 3);
    if !dart_numa::affinity_supported() {
        assert!(
            stats.per_shard_pinned.iter().all(|&p| !p),
            "no-op pinning must not be reported as pinned"
        );
    } else {
        let allowed = dart_numa::current_affinity().expect("affinity readable when supported");
        for (shard, (&pinned, node)) in
            stats.per_shard_pinned.iter().zip(&stats.per_shard_node).enumerate()
        {
            let cpus = &topology.node(node.unwrap()).unwrap().cpus;
            let expect = cpus.iter().any(|c| allowed.contains(c));
            assert_eq!(pinned, expect, "shard {shard}: node cpus {cpus:?} vs allowed {allowed:?}");
        }
    }
}

/// `TabularModel::deep_clone` — the per-node replica primitive — must
/// produce bit-identical predictions through fresh storage.
#[test]
fn deep_clone_replica_is_bit_identical() {
    let (model, pre) = tiny_setup();
    let replica = model.deep_clone();
    assert_eq!(replica.storage_bytes(), model.storage_bytes());
    let mut rng = InitRng::new(0xC0FFEE);
    let x = Matrix::from_fn(6 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32());
    assert_eq!(model.predict_batch(&x), replica.predict_batch(&x));
}
