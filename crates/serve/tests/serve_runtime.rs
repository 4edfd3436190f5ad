//! End-to-end tests of the sharded serving runtime against a real (tiny)
//! tabularized model: completeness, ordering, routing, serial equivalence,
//! a multi-threaded submission smoke test, and the worker-death drills —
//! each stall a [`hold_shard`] the test opens itself, each kill a
//! `ShardHold::panic` at a point the test chooses.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_serve::{
    drill_model, drill_pre, generate_requests, hold_shard, CompletionLane, LoadGenConfig,
    PrefetchRequest, PrefetchResponse, ServeConfig, ServeRuntime,
};
use dart_trace::PreprocessConfig;

fn tiny_setup() -> (Arc<TabularModel>, PreprocessConfig) {
    let pre = drill_pre();
    (drill_model(&pre, 3), pre)
}

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig { shards, max_batch: 16, threshold: 0.0, ..ServeConfig::default() }
}

#[test]
fn every_request_gets_exactly_one_response() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(2));
    let reqs = generate_requests(&LoadGenConfig { streams: 8, accesses_per_stream: 20, seed: 1 });
    let total = reqs.len();
    runtime.submit_all(reqs);
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), total);
    let stats = runtime.shutdown();
    assert_eq!(stats.requests as usize, total);
    // threshold 0.0: every warm request must emit prefetches.
    // streams warm after seq_len accesses: 8 * (20 - 3) warm requests.
    assert_eq!(stats.predictions, 8 * 17);
}

#[test]
fn per_stream_order_and_routing_hold() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(4));
    let reqs = generate_requests(&LoadGenConfig { streams: 16, accesses_per_stream: 12, seed: 2 });
    runtime.submit_all(reqs);
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    let router = *runtime.router();

    let mut seqs: HashMap<u64, Vec<u64>> = HashMap::new();
    for resp in &responses {
        assert_eq!(resp.shard, router.shard_of(resp.stream_id), "misrouted response");
        seqs.entry(resp.stream_id).or_default().push(resp.seq);
    }
    assert_eq!(seqs.len(), 16);
    for (stream, mut s) in seqs {
        s.sort_unstable();
        let expect: Vec<u64> = (0..12).collect();
        assert_eq!(s, expect, "stream {stream} has gaps or duplicates");
    }
    runtime.shutdown();
}

#[test]
fn warmup_responses_are_empty_then_predictions_flow() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));
    // One stream, sequential blocks.
    for i in 0..10u64 {
        runtime.submit(PrefetchRequest { stream_id: 7, pc: 0x400, addr: (100 + i) << 6 });
    }
    runtime.wait_idle();
    let mut responses = runtime.drain_completed();
    responses.sort_by_key(|r| r.seq);
    assert_eq!(responses.len(), 10);
    for resp in &responses[..3] {
        assert!(resp.prefetch_blocks.is_empty(), "seq {} predicted while cold", resp.seq);
    }
    // threshold 0.0 with max_degree 4: every warm prediction emits (the
    // emission rule only drops non-positive targets, impossible here).
    for resp in &responses[3..] {
        assert!(!resp.prefetch_blocks.is_empty(), "seq {} emitted nothing", resp.seq);
    }
    runtime.shutdown();
}

/// The runtime's batched predictions must match a serial replay of the same
/// per-stream accesses through `TabularModel::forward_probs` one sample at
/// a time (the naive DartPrefetcher-style loop).
#[test]
fn batched_serving_matches_serial_replay() {
    let (model, pre) = tiny_setup();
    let reqs = generate_requests(&LoadGenConfig { streams: 6, accesses_per_stream: 15, seed: 5 });

    // Serial reference: replay per stream, predicting on every warm window.
    let mut reference: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    let mut histories: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut seq_counters: HashMap<u64, u64> = HashMap::new();
    for req in &reqs {
        let hist = histories.entry(req.stream_id).or_default();
        hist.push((req.addr >> 6, req.pc));
        let seq = *seq_counters.entry(req.stream_id).and_modify(|s| *s += 1).or_insert(0);
        if hist.len() >= pre.seq_len {
            let window = &hist[hist.len() - pre.seq_len..];
            let mut feats = Matrix::zeros(pre.seq_len, pre.input_dim());
            for (t, &(block, pc)) in window.iter().enumerate() {
                pre.write_token_features(block, pc, feats.row_mut(t));
            }
            let probs = model.forward_probs(&feats);
            let anchor = window.last().unwrap().0;
            let mut candidates: Vec<(f32, usize)> =
                probs.row(0).iter().enumerate().map(|(bit, &p)| (p, bit)).collect();
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let blocks: Vec<u64> = candidates
                .into_iter()
                .take(4)
                .filter_map(|(_, bit)| {
                    let target = anchor as i64 + pre.bit_to_delta(bit);
                    (target > 0).then_some(target as u64)
                })
                .collect();
            reference.insert((req.stream_id, seq), blocks);
        }
    }

    let runtime = ServeRuntime::start(model, pre, serve_cfg(3));
    runtime.submit_all(reqs);
    runtime.wait_idle();
    for resp in runtime.drain_completed() {
        if let Some(expect) = reference.get(&(resp.stream_id, resp.seq)) {
            assert_eq!(
                &resp.prefetch_blocks, expect,
                "stream {} seq {} diverged from serial replay",
                resp.stream_id, resp.seq
            );
        } else {
            assert!(resp.prefetch_blocks.is_empty());
        }
    }
    runtime.shutdown();
}

/// Scratch-buffer-reuse hammer: the shard worker recycles its feature
/// staging buffers across batches, and responses must be identical whether
/// a shard drains requests one at a time (`max_batch = 1`, one buffer
/// cycle per request) or in large coalesced batches (`max_batch = 64`,
/// buffers resized and reused at every drain) — with heavily interleaved
/// stream IDs so consecutive rows of one staging buffer belong to
/// different streams. Also asserts no request is dropped either way.
#[test]
fn coalesced_and_single_drain_produce_identical_responses() {
    let (model, pre) = tiny_setup();
    // Interleave 24 streams round-robin so every coalesced batch mixes
    // streams and repeated same-stream requests land in one batch.
    let streams = 24u64;
    let accesses = 30u64;
    let mut reqs = Vec::new();
    for k in 0..accesses {
        for s in 0..streams {
            reqs.push(PrefetchRequest {
                stream_id: s,
                pc: 0x400 + s * 8,
                addr: (2_000 + s * 50_000 + k * (1 + s % 3)) << 6,
            });
        }
    }

    let run = |max_batch: usize| -> HashMap<(u64, u64), Vec<u64>> {
        let runtime = ServeRuntime::start(
            Arc::clone(&model),
            pre,
            ServeConfig { shards: 2, max_batch, threshold: 0.0, ..ServeConfig::default() },
        );
        runtime.submit_all(reqs.iter().copied());
        runtime.wait_idle();
        let responses = runtime.drain_completed();
        assert_eq!(
            responses.len(),
            (streams * accesses) as usize,
            "dropped requests at max_batch {max_batch}"
        );
        let stats = runtime.shutdown();
        assert_eq!(stats.requests, streams * accesses);
        responses.into_iter().map(|r| ((r.stream_id, r.seq), r.prefetch_blocks)).collect()
    };

    let single = run(1);
    let coalesced = run(64);
    assert_eq!(single.len(), coalesced.len());
    for (key, blocks) in &single {
        assert_eq!(
            coalesced.get(key),
            Some(blocks),
            "stream {} seq {} diverged between drain modes",
            key.0,
            key.1
        );
    }
}

/// Concurrency smoke test: hammer the runtime from 8 submitter threads and
/// verify no response is dropped, duplicated, or misrouted.
#[test]
fn eight_thread_hammer_drops_nothing() {
    hammer_with_config(serve_cfg(4));
}

/// Same hammer, but the shard workers' drains run their batched kernels on
/// a dedicated 4-thread work-stealing pool shared across shards: pooled
/// tile-parallel kernels under concurrent submission must still answer
/// every request exactly once.
#[test]
fn pooled_kernel_hammer_drops_nothing() {
    let mut cfg = serve_cfg(2);
    cfg.pool_threads = Some(4);
    hammer_with_config(cfg);
}

/// Degenerate pool: one kernel thread (the `DART_NUM_THREADS=1` shape —
/// kernels run inline on each shard thread). The runtime must behave
/// identically.
#[test]
fn single_thread_pool_hammer_drops_nothing() {
    let mut cfg = serve_cfg(2);
    cfg.pool_threads = Some(1);
    hammer_with_config(cfg);
}

fn hammer_with_config(cfg: ServeConfig) {
    let (model, pre) = tiny_setup();
    let expected_pool = cfg.pool_threads;
    let runtime = Arc::new(ServeRuntime::start(model, pre, cfg));
    if let Some(n) = expected_pool {
        assert_eq!(runtime.pool_threads(), n, "runtime must report its kernel pool size");
    }
    let threads = 8;
    let per_thread_streams = 8;
    let accesses = 40;

    thread::scope(|scope| {
        for tid in 0..threads {
            let rt = Arc::clone(&runtime);
            scope.spawn(move || {
                // Each thread owns disjoint stream ids.
                for k in 0..accesses {
                    for s in 0..per_thread_streams {
                        let stream_id = (tid * per_thread_streams + s) as u64;
                        rt.submit(PrefetchRequest {
                            stream_id,
                            pc: 0x400 + stream_id * 4,
                            addr: (1000 + stream_id * 10_000 + k as u64) << 6,
                        });
                    }
                }
            });
        }
    });

    runtime.wait_idle();
    let responses = runtime.drain_completed();
    let total = threads * per_thread_streams * accesses;
    assert_eq!(responses.len(), total, "dropped or duplicated responses");

    let router = *runtime.router();
    let mut per_stream: HashMap<u64, Vec<u64>> = HashMap::new();
    for resp in &responses {
        assert_eq!(resp.shard, router.shard_of(resp.stream_id), "misrouted");
        per_stream.entry(resp.stream_id).or_default().push(resp.seq);
    }
    assert_eq!(per_stream.len(), threads * per_thread_streams);
    for (stream, mut seqs) in per_stream {
        seqs.sort_unstable();
        let expect: Vec<u64> = (0..accesses as u64).collect();
        assert_eq!(seqs, expect, "stream {stream} sequence corrupted");
    }

    let stats = Arc::into_inner(runtime).unwrap().shutdown();
    assert_eq!(stats.requests as usize, total);
    assert_eq!(stats.per_shard_requests.iter().sum::<u64>() as usize, total);
    assert!(stats.p99_latency_ns >= stats.p50_latency_ns);
}

/// Regression (memory leak): the per-shard stream map used to grow with
/// every stream id ever routed to the shard, so stream-id churn leaked
/// memory without bound. Churn 10x the cap through one shard and verify
/// (a) residency stays at the cap, (b) the overflow was evicted, and
/// (c) an evicted stream that returns re-warms from scratch — cold
/// responses for its first `seq_len - 1` accesses with `seq` restarting
/// at 0 — instead of predicting on a stale pre-eviction window.
#[test]
fn stream_map_is_bounded_under_churn_and_evictees_rewarm() {
    let (model, pre) = tiny_setup();
    let cap = 32usize;
    let seq_len = pre.seq_len as u64;
    let mut cfg = serve_cfg(1);
    cfg.max_streams_per_shard = cap;
    let runtime = ServeRuntime::start(model, pre, cfg);

    // Phase 1: warm stream 7 fully (it will emit on its last access —
    // threshold 0.0 guarantees emission once warm).
    for i in 0..seq_len {
        runtime.submit(PrefetchRequest { stream_id: 7, pc: 0x400, addr: (100 + i) << 6 });
    }
    runtime.wait_idle();
    let warm = runtime.drain_completed();
    assert_eq!(warm.len(), seq_len as usize);
    assert!(warm.iter().any(|r| !r.prefetch_blocks.is_empty()), "stream 7 must predict once warm");

    // Phase 2: churn 10x the cap in distinct one-shot stream ids through
    // the single shard. Stream 7 must fall out of the LRU.
    let churn = 10 * cap as u64;
    runtime.submit_all((0..churn).map(|s| PrefetchRequest {
        stream_id: 1_000 + s,
        pc: 0x10,
        addr: (50_000 + s) << 6,
    }));
    runtime.wait_idle();
    runtime.drain_completed();

    // Phase 3: stream 7 returns. Re-warm from scratch: its first
    // `seq_len - 1` responses carry no prefetches and seq restarts at 0.
    for i in 0..seq_len {
        runtime.submit(PrefetchRequest { stream_id: 7, pc: 0x400, addr: (100 + i) << 6 });
    }
    runtime.wait_idle();
    let mut readmitted = runtime.drain_completed();
    readmitted.sort_by_key(|r| r.seq);
    assert_eq!(readmitted.len(), seq_len as usize);
    assert_eq!(readmitted[0].seq, 0, "evicted stream's seq must restart, not resume");
    for resp in &readmitted[..(seq_len - 1) as usize] {
        assert!(
            resp.prefetch_blocks.is_empty(),
            "seq {} predicted on a stale pre-eviction window",
            resp.seq
        );
    }
    assert!(
        !readmitted[(seq_len - 1) as usize].prefetch_blocks.is_empty(),
        "re-admitted stream must predict again once re-warmed"
    );

    let stats = runtime.shutdown();
    assert_eq!(stats.per_shard_streams.len(), 1);
    assert!(
        stats.per_shard_streams[0] <= cap,
        "resident streams {} exceed the cap {cap}",
        stats.per_shard_streams[0]
    );
    // 1 (stream 7) + 320 churn ids into a 32-slot map: at least the
    // overflow must have been evicted.
    assert!(
        stats.stream_evictions >= churn + 1 - cap as u64,
        "evictions {} too low for {churn} churned streams",
        stats.stream_evictions
    );
}

/// Dead-connection stream retirement: retiring a conn-id namespace
/// frees its streams from the shard LRU before the next batch is
/// served, and the cleanup is counted separately from cap evictions.
#[test]
fn retire_prefix_frees_dead_connection_streams() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));
    // Two "connections" (stream-id namespaces), a handful of streams each.
    for conn in [5u64, 6u64] {
        for stream in 0..4u64 {
            for access in 0..3u64 {
                runtime.submit(PrefetchRequest {
                    stream_id: conn << 32 | stream,
                    pc: 0x400,
                    addr: (conn * 1000 + stream * 100 + access) << 6,
                });
            }
        }
    }
    runtime.wait_idle();
    runtime.drain_completed();

    // Conn 5 "disconnects". The retirement applies when the worker next
    // wakes — drive it with one more request on the surviving conn.
    runtime.retire_streams_with_prefix(5);
    runtime.submit(PrefetchRequest { stream_id: 6 << 32, pc: 0x400, addr: 9_999 << 6 });
    runtime.wait_idle();
    runtime.drain_completed();

    let stats = runtime.shutdown();
    assert_eq!(stats.stream_retirements, 4, "conn 5's streams must be retired");
    assert_eq!(stats.stream_evictions, 0, "retirement must not count as eviction");
    assert_eq!(stats.per_shard_streams, vec![4], "only conn 6's streams remain resident");
    assert_eq!(stats.failed, 0);
}

/// Regression (emission-rule drift): `DartPrefetcher` clamps
/// `max_degree.max(1)` but serve's emit policy did not, so
/// `max_degree: 0` silently disabled all serving-path prefetching while
/// the sim path emitted 1 per prediction. The floor now lives once, in
/// `decode_bitmap_into`, behind the one `StreamEngine::step` both paths
/// run. (Cross-path agreement with `DartPrefetcher` itself is pinned in
/// `tests/integration_serve.rs`.)
#[test]
fn zero_max_degree_clamps_to_one_instead_of_disabling() {
    let (model, pre) = tiny_setup();
    let mut cfg = serve_cfg(1);
    cfg.max_degree = 0;
    let runtime = ServeRuntime::start(model, pre, cfg);
    for i in 0..10u64 {
        runtime.submit(PrefetchRequest { stream_id: 5, pc: 0x400, addr: (700 + i) << 6 });
    }
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    let emitted: Vec<_> = responses.iter().filter(|r| !r.prefetch_blocks.is_empty()).collect();
    // threshold 0.0: every warm request must emit exactly one prefetch
    // (degree clamped 0 -> 1), same as the sim path.
    assert_eq!(emitted.len(), 10 - (pre.seq_len - 1), "warm requests must emit");
    for resp in &emitted {
        assert_eq!(resp.prefetch_blocks.len(), 1, "clamped degree must cap emissions at 1");
    }
    runtime.shutdown();
}

/// Poll `done` until it holds, failing — never hanging — after 20 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Regression (worker-death accounting): a shard worker that panics
/// used to leak its batch's `in_flight` slots, hanging
/// `wait_idle`/`wait_below` forever and poisoning the sink mutex for every
/// later lock site. Now everything queued behind the death is failed with
/// the panic surfaced, waiters wake, and later submits to the dead shard
/// fail fast. (A panic in the middle of a batch's kernels is the batch
/// guard's unit test in `shard.rs`.)
#[test]
fn worker_panic_mid_batch_fails_requests_and_unblocks_waiters() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));
    let hold = hold_shard(&runtime, 0);

    // Interleaved streams 0..5, all queued behind the parked worker.
    let mut reqs = Vec::new();
    for k in 0..20u64 {
        for s in 0..5u64 {
            reqs.push(PrefetchRequest { stream_id: s, pc: 0x40, addr: (500 + s * 1000 + k) << 6 });
        }
    }
    let total = reqs.len();
    runtime.submit_all(reqs);
    hold.panic("drill: shard worker told to die");

    // The killer assertion: this must return instead of hanging forever.
    runtime.wait_idle();

    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), total, "every submit still gets exactly one response");
    let failed: Vec<_> = responses.iter().filter(|r| r.error.is_some()).collect();
    assert_eq!(failed.len(), total, "the whole backlog dies with the only shard");
    for resp in &responses {
        assert!(resp.prefetch_blocks.is_empty(), "failed responses must not carry prefetches");
        assert_eq!(resp.seq, u64::MAX, "failed responses carry the sentinel seq");
        let err = resp.error.as_deref().unwrap();
        assert!(err.contains("panicked"), "unhelpful error: {err}");
    }

    // The original panic message is surfaced, not a PoisonError.
    let panics = runtime.worker_panics();
    assert_eq!(panics.len(), 1);
    assert_eq!(panics[0].0, 0);
    assert!(panics[0].1.contains("told to die"), "panic message lost: {}", panics[0].1);

    // Submitting to the dead shard answers immediately with the reason.
    runtime.submit(PrefetchRequest { stream_id: 77, pc: 0x44, addr: 900 << 6 });
    runtime.wait_idle();
    let late = runtime.drain_completed();
    assert_eq!(late.len(), 1);
    let err = late[0].error.as_deref().expect("dead-shard submit must fail, not hang");
    assert!(err.contains("told to die"), "panic reason lost on late submit: {err}");

    // Shutdown after a worker death must not panic on the join.
    let stats = runtime.shutdown();
    assert_eq!(stats.failed as usize, total + 1);
    assert_eq!(stats.worker_panics.len(), 1);
    assert_eq!(stats.requests, 1, "only the hold's own request was served");
}

/// A panic on one shard must not take down the others: surviving shards
/// keep serving their streams normally.
#[test]
fn surviving_shards_keep_serving_after_one_dies() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(2));
    let router = *runtime.router();
    let dead_shard = router.shard_of(0);
    // A healthy stream routed to the *other* shard.
    let healthy = (1..100u64).find(|s| router.shard_of(*s) != dead_shard).unwrap();

    let hold = hold_shard(&runtime, dead_shard);
    runtime.submit(PrefetchRequest { stream_id: 0, pc: 0, addr: 64 << 6 });
    hold.panic("drill: shard worker told to die");
    for k in 0..10u64 {
        runtime.submit(PrefetchRequest { stream_id: healthy, pc: 0x4, addr: (200 + k) << 6 });
    }
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), 11);
    let healthy_ok = responses.iter().filter(|r| r.stream_id == healthy && r.error.is_none());
    assert_eq!(healthy_ok.count(), 10, "healthy shard must be unaffected");
    assert!(responses.iter().any(|r| r.stream_id == 0 && r.error.is_some()));

    let stats = runtime.shutdown();
    assert_eq!(stats.requests, 10 + 1, "the healthy stream's, plus the hold's own");
    assert_eq!(stats.failed, 1);
}

/// Regression (shutdown-path audit): requests still queued when
/// `shutdown()` lands must be drained and answered — shutdown joins the
/// workers only after their queues run dry, so `stats.requests` accounts
/// for every submit.
#[test]
fn shutdown_answers_everything_still_queued() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(2));
    let reqs = generate_requests(&LoadGenConfig { streams: 10, accesses_per_stream: 30, seed: 11 });
    let total = reqs.len();
    runtime.submit_all(reqs);
    // No wait_idle: shut down with work still in the queues.
    let stats = runtime.shutdown();
    assert_eq!(stats.requests as usize, total, "queued requests dropped at shutdown");
    assert_eq!(stats.failed, 0);
    assert!(stats.worker_panics.is_empty());
}

/// Statistics served before a panic must survive it: the report is
/// committed per batch, so a worker death loses none of what it served.
#[test]
fn stats_served_before_a_panic_are_not_discarded() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));

    // Healthy traffic first; wait until it is fully served.
    for k in 0..10u64 {
        runtime.submit(PrefetchRequest { stream_id: 1, pc: 0x10, addr: (300 + k) << 6 });
    }
    runtime.wait_idle();
    // Now the worker dies with one request queued behind it.
    let hold = hold_shard(&runtime, 0);
    runtime.submit(PrefetchRequest { stream_id: 3, pc: 0x10, addr: 77 << 6 });
    hold.panic("drill: shard worker told to die");
    runtime.wait_idle();

    let stats = runtime.shutdown();
    assert_eq!(stats.requests, 10 + 1, "pre-panic served requests lost from stats");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.worker_panics.len(), 1);
    assert!(stats.p50_latency_ns > 0, "pre-panic latency samples lost");
}

/// Regression (shutdown join): when the worker's *recovery handler* itself
/// dies, `shutdown` used `join().unwrap_or_default()` — the second panic
/// AND everything the shard had served vanished. Now the join error is
/// recorded into `ServeStats::worker_panics` and the shard's statistics
/// survive (committed per batch into a cell the runtime holds; a poisoned
/// cell is the runtime's unit test).
#[test]
fn recovery_handler_death_is_recorded_not_discarded() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));

    // Healthy traffic first, fully served, so the report cell holds real
    // numbers before the worker dies.
    for k in 0..10u64 {
        runtime.submit(PrefetchRequest { stream_id: 1, pc: 0x10, addr: (300 + k) << 6 });
    }
    runtime.wait_idle();

    // Queued behind the parked worker on a lane whose ready callback
    // panics: the recovery handler fails this request, its delivery fires
    // the callback, and that second panic ends the handler.
    let hold = hold_shard(&runtime, 0);
    let doomed = CompletionLane::new(|| panic!("drill: recovery handler told to die"));
    runtime
        .try_submit_on(&doomed, PrefetchRequest { stream_id: 3, pc: 0x10, addr: 77 << 6 })
        .unwrap();
    hold.panic("drill: shard worker told to die");
    runtime.wait_idle();
    assert_eq!(runtime.drain_completed().len(), 10);
    let failed = take(&doomed);
    assert_eq!(failed.len(), 1);
    assert!(failed[0].error.as_deref().is_some_and(|e| e.contains("shard worker told to die")));

    let stats = runtime.shutdown();
    // The shard's served stats survive the dead handler.
    assert_eq!(stats.requests, 10 + 1, "served requests vanished with the recovery handler");
    assert!(stats.p50_latency_ns > 0, "latency samples vanished with the recovery handler");
    assert_eq!(stats.failed, 1);
    // Both panics are surfaced, attributed to the shard: the worker's, and
    // the handler's as a join error.
    let messages: Vec<&str> = stats.worker_panics.iter().map(|(_, m)| m.as_str()).collect();
    assert!(stats.worker_panics.iter().all(|&(shard, _)| shard == 0));
    assert_eq!(
        messages,
        [
            "drill: shard worker told to die",
            "shard worker died in its panic handler: drill: recovery handler told to die"
        ],
        "recovery-handler panic was discarded"
    );
}

/// Regression: a producer parked in `submit`'s full-queue wait used to
/// sleep forever when the shard's worker died — `poison` drained the
/// queue and notified the worker condvar but never the producers' space
/// condvar, so nothing woke the submitter and nothing ever freed space
/// again. Now `poison` wakes it, the push is rejected with the death
/// reason, and the request comes back as a failure response.
#[test]
fn blocked_submitter_wakes_when_the_worker_dies() {
    let (model, pre) = tiny_setup();
    let runtime = Arc::new(ServeRuntime::start(
        model,
        pre,
        ServeConfig { queue_capacity: 1, max_batch: 1, ..serve_cfg(1) },
    ));
    let hold = hold_shard(&runtime, 0);

    // B: fills the 1-deep queue behind the parked worker.
    runtime.submit(PrefetchRequest { stream_id: 7, pc: 0x10, addr: 2 << 6 });
    // C: must park on the full queue — and must be woken by the death.
    let parked = {
        let runtime = Arc::clone(&runtime);
        thread::spawn(move || {
            runtime.submit(PrefetchRequest { stream_id: 7, pc: 0x10, addr: 3 << 6 });
        })
    };
    // C charges its in-flight slot on the way into the full-queue wait.
    wait_until("C is inside submit", || runtime.outstanding() == 2);
    hold.panic("drill: shard worker told to die");

    // Watchdog: without the poison wake-up this thread never returns.
    wait_until("the parked submitter returns", || parked.is_finished());
    parked.join().unwrap();

    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), 2, "B and C must both be answered");
    for resp in &responses {
        let err = resp.error.as_deref().expect("both die with the worker");
        assert!(err.contains("panicked"), "failure reason must name the cause: {err}");
        // B (poison-drained) and C (woken submitter) carry the actual
        // panic message.
        assert!(err.contains("told to die"), "the worker's panic message is lost: {err}");
    }
    let runtime = Arc::try_unwrap(runtime).ok().expect("parked thread was joined");
    let stats = runtime.shutdown();
    assert_eq!(stats.failed, 2);
}

/// `try_submit` never blocks: a full bounded queue is an immediate
/// `QueueFull` rejection carrying the depth, the rejected request is not
/// accounted (no response ever arrives for it), and accepted requests
/// are served normally once the worker is released.
#[test]
fn try_submit_rejects_on_a_full_queue_without_blocking() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(
        model,
        pre,
        ServeConfig { queue_capacity: 2, max_batch: 1, ..serve_cfg(1) },
    );
    let hold = hold_shard(&runtime, 0);

    // B, C fill the 2-deep queue behind the parked worker; D must bounce
    // with the depth.
    assert!(runtime.try_submit(PrefetchRequest { stream_id: 7, pc: 0x10, addr: 2 << 6 }).is_ok());
    assert!(runtime.try_submit(PrefetchRequest { stream_id: 7, pc: 0x10, addr: 3 << 6 }).is_ok());
    match runtime.try_submit(PrefetchRequest { stream_id: 7, pc: 0x10, addr: 4 << 6 }) {
        Err(dart_serve::SubmitRejected::QueueFull { shard, depth }) => {
            assert_eq!(shard, 0);
            assert_eq!(depth, 2);
        }
        Ok(()) => panic!("a full queue must reject, not accept"),
    }
    hold.release();

    // The rejected request is unaccounted: exactly B and C come back.
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), 2, "the rejected request must not produce a response");
    assert!(responses.iter().all(|r| r.error.is_none()));
    runtime.shutdown();
}

/// Everything a lane has received so far.
fn take(lane: &CompletionLane) -> Vec<PrefetchResponse> {
    let mut out = Vec::new();
    lane.take_into(&mut out);
    out
}

/// Two lanes submit interleaved, disjoint streams that share shards (and
/// therefore batches): each lane must receive exactly its own responses
/// with each stream's `seq` contiguous and in order, and the default lane
/// nothing.
#[test]
fn lanes_receive_exactly_their_own_responses_in_stream_order() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(2));
    let lanes = [CompletionLane::new(|| {}), CompletionLane::new(|| {})];
    let (streams, accesses) = (6u64, 25u64);
    for k in 0..accesses {
        for s in 0..streams {
            // Even streams on lane 0, odd on lane 1.
            let req = PrefetchRequest { stream_id: s, pc: 0x40, addr: (s * 1000 + k) << 6 };
            runtime.try_submit_on(&lanes[(s % 2) as usize], req).unwrap();
        }
    }
    runtime.wait_idle();

    for (parity, lane) in lanes.iter().enumerate() {
        let mut seqs: HashMap<u64, Vec<u64>> = HashMap::new();
        for resp in take(lane) {
            assert!(resp.error.is_none());
            assert_eq!(resp.stream_id % 2, parity as u64, "response on the wrong lane");
            seqs.entry(resp.stream_id).or_default().push(resp.seq);
        }
        assert_eq!(seqs.len() as u64, streams / 2);
        for (stream, seqs) in seqs {
            let expect: Vec<u64> = (0..accesses).collect();
            assert_eq!(seqs, expect, "stream {stream}: seq must arrive contiguous and in order");
        }
    }
    assert!(runtime.drain_completed().is_empty(), "nothing was submitted on the default lane");
    runtime.shutdown();
}

/// Failure responses go back to the lane that submitted the request —
/// the backlog queued behind the worker's death and a later submit to
/// the now-dead shard — and each releases its in-flight slot, so
/// `wait_idle` returns.
#[test]
fn failures_return_to_the_submitting_lane_and_release_in_flight() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));
    let lane = CompletionLane::new(|| {});
    let hold = hold_shard(&runtime, 0);

    // Everything queues behind the parked worker, which then dies.
    // Streams 0..4 alternate between the opened lane and the default one.
    let mut per_lane = [0usize; 2];
    for k in 0..10u64 {
        for s in 0..5u64 {
            let req = PrefetchRequest { stream_id: s, pc: 0x40, addr: (s * 1000 + k) << 6 };
            if s % 2 == 0 {
                runtime.try_submit_on(&lane, req).unwrap();
            } else {
                runtime.try_submit(req).unwrap();
            }
            per_lane[(s % 2) as usize] += 1;
        }
    }
    hold.panic("drill: shard worker told to die");
    runtime.wait_idle();
    assert_eq!(runtime.worker_panics().len(), 1);

    let (mine, default) = (take(&lane), runtime.drain_completed());
    assert_eq!(mine.len(), per_lane[0], "every submit on the lane is answered on the lane");
    assert_eq!(default.len(), per_lane[1], "and every default-lane submit on the default lane");
    assert!(mine.iter().all(|r| r.stream_id % 2 == 0));
    assert!(default.iter().all(|r| r.stream_id % 2 == 1));
    assert!(mine.iter().chain(&default).all(|r| r.error.is_some()), "the backlog was failed");

    // The shard is dead now: a submit is answered at once, on its lane.
    runtime.try_submit_on(&lane, PrefetchRequest { stream_id: 8, pc: 0x44, addr: 9 << 6 }).unwrap();
    runtime.wait_idle();
    let late = take(&lane);
    assert_eq!(late.len(), 1);
    let err = late[0].error.as_deref().expect("dead-shard submit must fail, not hang");
    assert!(err.contains("told to die"), "panic reason lost on late submit: {err}");
    assert!(runtime.drain_completed().is_empty());
    assert_eq!(runtime.outstanding(), 0);
    runtime.shutdown();
}

/// Regression: a lane's ready callback used to run inside the delivery,
/// before the batch's in-flight slots were released — one that panicked
/// killed the worker with the rest of the batch undelivered and its slots
/// held forever, so `wait_idle` hung. Callbacks now run after the
/// release: the panic is an ordinary worker death after a fully answered
/// batch.
#[test]
fn a_panicking_ready_callback_cannot_strand_its_batch() {
    let (model, pre) = tiny_setup();
    let runtime = ServeRuntime::start(model, pre, serve_cfg(1));
    let doomed = CompletionLane::new(|| panic!("drill: ready callback blew up"));
    let plain = CompletionLane::new(|| {});

    // One batch behind the parked worker, the panicking lane first.
    let hold = hold_shard(&runtime, 0);
    runtime
        .try_submit_on(&doomed, PrefetchRequest { stream_id: 1, pc: 0x10, addr: 5 << 6 })
        .unwrap();
    runtime
        .try_submit_on(&plain, PrefetchRequest { stream_id: 2, pc: 0x10, addr: 6 << 6 })
        .unwrap();
    hold.release();

    // A bounded wait, not `wait_idle`: a stranded batch fails here.
    wait_until("the batch is released and the death recorded", || {
        runtime.outstanding() == 0 && !runtime.worker_panics().is_empty()
    });
    let served = take(&plain);
    assert_eq!(served.len(), 1, "the plain lane gets its response");
    assert!(served[0].error.is_none(), "it was served before any callback ran");
    assert_eq!(take(&doomed).len(), 1);
    let panics = runtime.worker_panics();
    assert_eq!(panics.len(), 1);
    assert!(panics[0].1.contains("ready callback blew up"), "{panics:?}");

    let stats = runtime.shutdown();
    assert_eq!((stats.requests, stats.failed), (3, 0), "the hold's request and the batch");
}
