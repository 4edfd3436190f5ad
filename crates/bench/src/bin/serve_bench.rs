//! `serve_bench` — throughput/latency scaling study of the `dart-serve`
//! runtime.
//!
//! Serves an identical synthetic multi-stream workload three ways:
//!
//! 1. **naive** — the pre-`dart-serve` deployment model: one thread, one
//!    stream history map, one `forward_probs` call per access (batch 1),
//! 2. **runtime, S shards** — the sharded, batched runtime at 1/2/4/8
//!    shards with request coalescing,
//! 3. **runtime + NUMA placement** — the max shard count again with
//!    `ShardPlacement::NumaRoundRobin`: workers pinned round-robin across
//!    the detected NUMA nodes, each node serving from its own first-touch
//!    local model replica. Prints the detected topology and the per-shard
//!    node placement. On a single-node host this run is behavior-identical
//!    to the unplaced one (that equivalence is CI-enforced); on
//!    multi-socket hardware it removes the cross-socket arena traffic.
//!
//! Reports predictions/sec, p50/p99 request latency, and mean coalesced
//! batch size. Scale with `DART_SERVE_STREAMS` / `DART_SERVE_ACCESSES`
//! (defaults: 192 streams x 300 accesses); `DART_SERVE_MAX_BATCH`
//! (default 64) caps coalescing per drain, matching `bench_layout`'s
//! flat-arena batch size.
//!
//! ```sh
//! cargo run --release -p dart-bench --bin serve_bench
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dart_bench::{announce_threads, env_usize_strict, print_table, record_json, Table};
use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_numa::{format_cpu_list, NumaTopology};
use dart_serve::{
    generate_requests, run_load, LoadGenConfig, PrefetchRequest, ServeConfig, ServeRuntime,
    ShardPlacement,
};
use dart_trace::{build_dataset, workload_by_name, PreprocessConfig};

/// Fit a small DART table model on a real synthetic trace (no NN training:
/// serving cost does not depend on predictive quality).
fn build_model() -> (Arc<TabularModel>, PreprocessConfig) {
    let pre = PreprocessConfig {
        seq_len: 8,
        addr_segments: 4,
        seg_bits: 6,
        pc_segments: 2,
        delta_range: 16,
        lookforward: 8,
    };
    let cfg = ModelConfig {
        input_dim: pre.input_dim(),
        dim: 16,
        heads: 2,
        layers: 1,
        ffn_dim: 32,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    };
    let student = AccessPredictor::new(cfg, 0x5EED).expect("valid model config");
    let trace = workload_by_name("bwaves").expect("workload").generate(4_000, 7);
    let data = build_dataset(&trace, &pre, 2);
    let tab_cfg = TabularConfig { k: 16, c: 2, fine_tune_epochs: 0, ..Default::default() };
    let (model, _) = tabularize(&student, &data.inputs, &tab_cfg);
    (Arc::new(model), pre)
}

struct RunResult {
    label: String,
    elapsed_s: f64,
    predictions: u64,
    p50_us: f64,
    p99_us: f64,
    mean_batch: f64,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.predictions as f64 / self.elapsed_s
    }
}

/// The pre-serve deployment model: single thread, batch size 1.
fn run_naive(model: &TabularModel, pre: &PreprocessConfig, reqs: &[PrefetchRequest]) -> RunResult {
    let t = pre.seq_len;
    let mut histories: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut feats = Matrix::zeros(t, pre.input_dim());
    let mut predictions = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(reqs.len());

    let started = Instant::now();
    for req in reqs {
        let begun = Instant::now();
        let hist = histories.entry(req.stream_id).or_default();
        hist.push((req.addr >> 6, req.pc));
        if hist.len() >= t {
            let window = &hist[hist.len() - t..];
            for (tok, &(block, pc)) in window.iter().enumerate() {
                pre.write_token_features(block, pc, feats.row_mut(tok));
            }
            let probs = model.forward_probs(&feats);
            std::hint::black_box(probs.row(0));
            predictions += 1;
        }
        latencies.push(begun.elapsed().as_nanos() as u64);
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |q: f64| {
        let rank = ((q * latencies.len() as f64).ceil().max(1.0)) as usize;
        latencies[rank.min(latencies.len()) - 1] as f64 / 1_000.0
    };
    RunResult {
        label: "naive 1-at-a-time".into(),
        elapsed_s,
        predictions,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        mean_batch: 1.0,
    }
}

#[allow(clippy::too_many_arguments)] // bench knobs are explicit on purpose, no config struct
fn run_runtime(
    model: &Arc<TabularModel>,
    pre: &PreprocessConfig,
    reqs: &[PrefetchRequest],
    streams: usize,
    shards: usize,
    max_batch: usize,
    placement: ShardPlacement,
    announce_placement: bool,
) -> RunResult {
    let cfg =
        ServeConfig { shards, max_batch, threshold: 0.5, placement, ..ServeConfig::default() };
    let runtime = ServeRuntime::start(Arc::clone(model), *pre, cfg);
    if announce_placement && placement != ShardPlacement::Disabled {
        let nodes: Vec<String> = runtime
            .per_shard_node()
            .iter()
            .enumerate()
            .map(|(shard, node)| match node {
                Some(id) => format!("shard {shard} -> node {id}"),
                None => format!("shard {shard} -> unplaced"),
            })
            .collect();
        println!("placement: {}", nodes.join(", "));
    }
    // Open-loop load in per-round waves (one access per stream per round,
    // the generator's natural interleave) with back-pressure at a bounded
    // backlog, so reported latency reflects queue + service time instead of
    // an unbounded firehose backlog.
    let high_watermark = (streams * 4).max(1024) as u64;
    let started = Instant::now();
    for round in reqs.chunks(streams) {
        runtime.submit_all(round.iter().copied());
        if runtime.outstanding() > high_watermark {
            runtime.wait_below(high_watermark / 2);
        }
    }
    runtime.wait_idle();
    let elapsed_s = started.elapsed().as_secs_f64();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), reqs.len(), "runtime dropped responses");
    let stats = runtime.shutdown();
    let suffix = match placement {
        ShardPlacement::Disabled => "",
        ShardPlacement::NumaRoundRobin => " numa-rr",
    };
    RunResult {
        label: format!("dart-serve {shards} shard{}{suffix}", if shards == 1 { "" } else { "s" }),
        elapsed_s,
        predictions: stats.predictions,
        p50_us: stats.p50_latency_ns as f64 / 1_000.0,
        p99_us: stats.p99_latency_ns as f64 / 1_000.0,
        mean_batch: stats.mean_batch(),
    }
}

/// Best of two runs: the runtime shares cores with the OS scheduler, so a
/// single short run is noisy (especially on few-core hosts).
#[allow(clippy::too_many_arguments)] // same signature as run_runtime, which it wraps twice
fn run_runtime_best_of2(
    model: &Arc<TabularModel>,
    pre: &PreprocessConfig,
    reqs: &[PrefetchRequest],
    streams: usize,
    shards: usize,
    max_batch: usize,
    placement: ShardPlacement,
) -> RunResult {
    let a = run_runtime(model, pre, reqs, streams, shards, max_batch, placement, true);
    let b = run_runtime(model, pre, reqs, streams, shards, max_batch, placement, false);
    if a.throughput() >= b.throughput() {
        a
    } else {
        b
    }
}

fn main() {
    let streams = env_usize_strict("DART_SERVE_STREAMS", 192);
    let accesses = env_usize_strict("DART_SERVE_ACCESSES", 300);
    // Coalescing cap per drain; 64 matches the flat-arena layout benchmark
    // (`bench_layout`) batch size.
    let max_batch = env_usize_strict("DART_SERVE_MAX_BATCH", 64);
    let pool_threads = announce_threads();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "serve_bench: {streams} streams x {accesses} accesses, max_batch {max_batch} \
         ({cores} CPU core(s), shards share one {pool_threads}-thread kernel pool)"
    );
    let topology = NumaTopology::detect();
    println!("topology: {}", topology.summary());
    println!(
        "affinity syscalls: {}",
        if dart_numa::affinity_supported() { "available" } else { "no-op (unsupported OS/arch)" }
    );
    for node in topology.nodes() {
        println!("  node{}: cpus {}", node.id, format_cpu_list(&node.cpus));
    }
    if cores == 1 {
        println!(
            "note: single-core host — shard workers time-slice one core, so the \
             speedup below comes from batch coalescing alone; shard scaling \
             adds on top on multicore hosts"
        );
    }

    let (model, pre) = build_model();
    println!(
        "model: seq_len {}, D_I {}, D_O {}, storage {} KiB",
        pre.seq_len,
        pre.input_dim(),
        pre.output_dim(),
        model.storage_bytes() / 1024
    );
    let reqs =
        generate_requests(&LoadGenConfig { streams, accesses_per_stream: accesses, seed: 0xBEEF });

    let mut results = vec![run_naive(&model, &pre, &reqs)];
    for shards in [1usize, 2, 4, 8] {
        results.push(run_runtime_best_of2(
            &model,
            &pre,
            &reqs,
            streams,
            shards,
            max_batch,
            ShardPlacement::Disabled,
        ));
    }
    // NUMA-aware placement at the max shard count: node-pinned workers,
    // node-local replicas. Identical behavior on one node; less remote
    // arena traffic on several.
    results.push(run_runtime_best_of2(
        &model,
        &pre,
        &reqs,
        streams,
        8,
        max_batch,
        ShardPlacement::NumaRoundRobin,
    ));

    let mut table =
        Table::new(&["configuration", "pred/s", "speedup", "p50 (us)", "p99 (us)", "mean batch"]);
    let baseline = results[0].throughput();
    for r in &results {
        table.row(vec![
            r.label.clone(),
            format!("{:.0}", r.throughput()),
            format!("{:.2}x", r.throughput() / baseline),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            format!("{:.1}", r.mean_batch),
        ]);
    }
    print_table("Serving throughput & latency (batched + sharded vs naive)", &table);

    let records: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "config": r.label,
                "host_cores": cores,
                "predictions_per_sec": r.throughput(),
                "p50_us": r.p50_us,
                "p99_us": r.p99_us,
                "mean_batch": r.mean_batch,
                "predictions": r.predictions,
            })
        })
        .collect();
    record_json("serve_bench", &serde_json::Value::Array(records));

    // One short instrumented run whose metrics exposition is printed in
    // full — CI archives this block, and it is the quickest way to see
    // the live observability surface (stage histograms, kernel counters,
    // the dispatched SIMD level).
    {
        let cfg = ServeConfig { shards: 2, max_batch, threshold: 0.5, ..ServeConfig::default() };
        let runtime = ServeRuntime::start(Arc::clone(&model), pre, cfg);
        let sample = generate_requests(&LoadGenConfig {
            streams: streams.min(32),
            accesses_per_stream: accesses.min(64),
            seed: 0xBEEF,
        });
        let report = run_load(&runtime, &sample, streams.min(32));
        println!("\n--- metrics exposition (sample run: {}) ---", report.summary());
        print!("{}", runtime.render_metrics());
        println!("--- end exposition ---\n");
        runtime.shutdown();
    }

    // Acceptance gate: sharded+batched serving must beat the naive loop at
    // every shard count >= 2. Degenerate workloads (every stream shorter
    // than the model window) make zero predictions — nothing to compare.
    if results[0].predictions == 0 {
        println!(
            "no predictions made (accesses_per_stream {} < seq_len {}): \
             nothing to compare, skipping acceptance gate",
            accesses, pre.seq_len
        );
        return;
    }
    let mut ok = true;
    for r in &results[2..] {
        let beat = r.throughput() > baseline;
        println!(
            "{}: {:.0} pred/s vs naive {:.0} -> {}",
            r.label,
            r.throughput(),
            baseline,
            if beat { "FASTER" } else { "SLOWER" }
        );
        ok &= beat;
    }
    if !ok {
        eprintln!("WARNING: sharded serving did not beat the naive baseline");
        std::process::exit(1);
    }
}
