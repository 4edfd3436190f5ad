//! `loadgen` — drive the `dart-serve` runtime with synthetic multi-stream
//! load and report a pass/fail verdict.
//!
//! A smoke/soak drill, not a measuring instrument (throughput and latency
//! are `perf/`'s job): it runs one configuration, prints a `LoadReport`
//! (throughput, p50/p99 from the runtime's shared latency histogram,
//! failure counts) plus the full metrics exposition, and **exits
//! non-zero** if any response carried an error or any response was lost —
//! suitable as a CI gate or a quick manual health check.
//!
//! Environment knobs:
//!
//! * `DART_LOADGEN_STREAMS` (default 64) — concurrent client streams,
//! * `DART_LOADGEN_ACCESSES` (default 200) — accesses per stream,
//! * `DART_LOADGEN_SHARDS` (default 4) — shard workers,
//! * `DART_LOADGEN_MAX_BATCH` (default 32) — coalescing cap per drain,
//! * `DART_LOADGEN_PANIC_STREAM` (unset by default) — fault injection:
//!   kill the shard serving this stream id mid-batch, to demonstrate the
//!   non-zero exit path and the failure accounting.
//! * `DART_LOADGEN_SWAP_AT` (unset by default) — hot-swap drill: once
//!   this many requests have been served, swap in a bit-identical
//!   `clone` of the active model mid-run. The verdict then also
//!   requires the swap to have happened and — as always — zero lost or
//!   failed responses: a swap that drops even one request fails the run.
//!
//! TCP mode (the `dart-net` front-end instead of in-process submission):
//!
//! * `DART_LOADGEN_ADDR` (unset by default) — bind a [`dart_net::NetServer`]
//!   here (e.g. `127.0.0.1:0`) and drive it over real sockets with
//!   [`dart_net::run_tcp_load`]; the in-process knobs above still size the
//!   model and runtime,
//! * `DART_LOADGEN_CONNS` (default 8) — client connections; the
//!   `DART_LOADGEN_STREAMS` total is split evenly across them,
//! * `DART_LOADGEN_IO_THREADS` (default 4) — server IO threads,
//! * `DART_LOADGEN_WINDOW` (default 256) — per-connection in-flight cap
//!   on the client side,
//! * `DART_LOADGEN_IDLE_MS` (default 60000) — server-side idle timeout;
//!   generous by default so a loaded-but-slow run is never reaped,
//! * `DART_LOADGEN_TIMEOUT_MS` (default 10000) — client read timeout
//!   before unanswered frames count as lost.
//!
//! Either mode exits non-zero if any request is lost, failed, or
//! unaccounted; TCP mode also cross-checks the scraped `/metrics`
//! counters against the client-side report.
//!
//! ```sh
//! cargo run --release -p dart-bench --bin loadgen
//! DART_LOADGEN_ADDR=127.0.0.1:0 cargo run --release -p dart-bench --bin loadgen
//! ```

use std::sync::Arc;

use dart_bench::{announce_threads, env_usize_strict};
use dart_core::config::TabularConfig;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_serve::{generate_requests, run_load, LoadGenConfig, ServeConfig, ServeRuntime};
use dart_trace::{build_dataset, workload_by_name, PreprocessConfig};

/// Fit a small DART table model on a synthetic trace (no NN training:
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

/// Pull one counter's value out of a rendered exposition document.
fn scraped_counter(doc: &str, name: &str) -> Option<u64> {
    doc.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The mid-run hot-swap drill (`DART_LOADGEN_SWAP_AT`): a watcher thread
/// that waits for the served-request counter to cross the trigger, then
/// swaps in a bit-identical `clone` of the active model. Because the
/// clone is bit-identical, any lost, failed, or changed response after
/// the swap is the swap machinery's fault — which is exactly what this
/// smoke exists to catch.
struct SwapDrill {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<bool>,
}

impl SwapDrill {
    fn spawn(runtime: Arc<ServeRuntime>, trigger: u64) -> SwapDrill {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(std::sync::atomic::Ordering::SeqCst) {
                if runtime.stats_snapshot().requests >= trigger {
                    let (_, active) = runtime.registry().active();
                    let clone = Arc::new(TabularModel::clone(&active));
                    let version = runtime
                        .swap_model(clone, "loadgen mid-run swap")
                        .expect("bit-identical clone must be dimension-compatible");
                    println!("loadgen: hot-swapped to model version {version} mid-run");
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        });
        SwapDrill { stop, handle }
    }

    /// Stop watching and report whether the swap actually fired.
    fn finish(self) -> bool {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("swap watcher panicked")
    }
}

/// Join the swap drill (if one was requested) and fail the verdict when
/// the trigger was never reached — a swap smoke that silently skips the
/// swap would be a green light with no bulb.
fn swap_verdict(drill: Option<SwapDrill>, swaps_counted: u64) -> bool {
    match drill {
        None => true,
        Some(d) => {
            let fired = d.finish();
            if !fired {
                eprintln!("loadgen: DART_LOADGEN_SWAP_AT set but the swap never triggered");
                return false;
            }
            if swaps_counted == 0 {
                eprintln!("loadgen: swap fired but dart_serve_model_swaps_total is 0");
                return false;
            }
            true
        }
    }
}

/// TCP mode: put the runtime behind the `dart-net` front-end and drive
/// it over real sockets, then cross-check the server's own counters
/// against the client-side accounting. Exits the process with a verdict.
fn run_tcp_mode(
    runtime: Arc<ServeRuntime>,
    drill: Option<SwapDrill>,
    bind: &str,
    streams: usize,
    accesses: usize,
) -> ! {
    let conns = env_usize_strict("DART_LOADGEN_CONNS", 8).max(1);
    let io_threads = env_usize_strict("DART_LOADGEN_IO_THREADS", 4);
    let window = env_usize_strict("DART_LOADGEN_WINDOW", 256);
    let idle_ms = env_usize_strict("DART_LOADGEN_IDLE_MS", 60_000);
    let timeout_ms = env_usize_strict("DART_LOADGEN_TIMEOUT_MS", 10_000);
    let streams_per_conn = streams.div_ceil(conns).max(1);

    let server = dart_net::NetServer::start(
        Arc::clone(&runtime),
        dart_net::NetConfig {
            addr: bind.to_string(),
            io_threads,
            idle_timeout_ms: idle_ms as u64,
            ..dart_net::NetConfig::default()
        },
    )
    .expect("bind the load-generator server");
    let addr = server.local_addr();
    println!(
        "loadgen: TCP mode on {addr}: {conns} conn(s) x {streams_per_conn} stream(s) \
         x {accesses} accesses, window {window}, {io_threads} IO thread(s), \
         idle timeout {idle_ms}ms"
    );
    println!("tcp: NetServer runs {} thread(s)", server.thread_count());

    let report = dart_net::run_tcp_load(&dart_net::TcpLoadConfig {
        addr: addr.to_string(),
        connections: conns,
        streams_per_conn: streams_per_conn as u32,
        accesses_per_stream: accesses as u32,
        window: window as u64,
        read_timeout_ms: timeout_ms as u64,
        ..dart_net::TcpLoadConfig::default()
    })
    .expect("load generator IO");
    println!(
        "tcp: {} submitted, {} responses, {} nacks, {} failed, {} lost in {:.2}s \
         ({:.0} req/s)",
        report.submitted,
        report.responses,
        report.nacks,
        report.failed_responses,
        report.lost,
        report.elapsed_s,
        report.submitted as f64 / report.elapsed_s.max(1e-9),
    );

    // The server's own counters must corroborate the client's books.
    let doc = dart_net::fetch_metrics(addr).expect("scrape /metrics");
    println!("\n--- metrics exposition (scraped over HTTP) ---");
    print!("{doc}");
    println!("--- end exposition ---");
    let frames_in = scraped_counter(&doc, "dart_net_frames_in_total").unwrap_or(0);
    let responses_out = scraped_counter(&doc, "dart_net_responses_out_total").unwrap_or(0);
    let batched = scraped_counter(&doc, "dart_net_batched_writes_total").unwrap_or(0);
    let idle_reaped =
        scraped_counter(&doc, "dart_net_disconnects_total{reason=\"idle\"}").unwrap_or(0);
    let model_swaps = scraped_counter(&doc, "dart_serve_model_swaps_total").unwrap_or(0);
    println!("tcp: {batched} multi-frame outbox append(s), {idle_reaped} idle disconnect(s)");
    server.shutdown();

    let mut verdict_ok = report.is_ok();
    // Hot-swap drill: the swap must have fired, the scraped counter must
    // agree, and (via `report.is_ok()` above) not a single response may
    // have been lost or failed across the swap.
    if !swap_verdict(drill, model_swaps) {
        verdict_ok = false;
    }
    if frames_in != report.submitted {
        eprintln!(
            "loadgen: server decoded {frames_in} frames but the client sent {}",
            report.submitted
        );
        verdict_ok = false;
    }
    if responses_out < report.responses {
        eprintln!(
            "loadgen: server claims {responses_out} responses out, client received {}",
            report.responses
        );
        verdict_ok = false;
    }
    // At meaningful scale the batched write path must actually engage:
    // with thousands of in-flight requests, some IO-loop pass MUST
    // coalesce >1 response for some connection.
    if report.submitted >= 10_000 && batched == 0 {
        eprintln!("loadgen: batched write path never engaged at {} requests", report.submitted);
        verdict_ok = false;
    }
    if !verdict_ok {
        eprintln!(
            "loadgen: FAILED ({} lost, {} failed, {}/{} accounted)",
            report.lost,
            report.failed_responses,
            report.responses + report.nacks,
            report.submitted
        );
        std::process::exit(1);
    }
    println!("loadgen: OK");
    std::process::exit(0);
}

fn main() {
    let streams = env_usize_strict("DART_LOADGEN_STREAMS", 64);
    let accesses = env_usize_strict("DART_LOADGEN_ACCESSES", 200);
    let shards = env_usize_strict("DART_LOADGEN_SHARDS", 4);
    let max_batch = env_usize_strict("DART_LOADGEN_MAX_BATCH", 32);
    let panic_stream = std::env::var("DART_LOADGEN_PANIC_STREAM")
        .ok()
        .map(|v| v.parse::<u64>().expect("DART_LOADGEN_PANIC_STREAM must be a stream id"));
    let swap_at = std::env::var("DART_LOADGEN_SWAP_AT")
        .ok()
        .map(|v| v.parse::<u64>().expect("DART_LOADGEN_SWAP_AT must be a request count"));
    announce_threads();
    println!(
        "loadgen: {streams} streams x {accesses} accesses, {shards} shard(s), \
         max_batch {max_batch}{}",
        match panic_stream {
            Some(id) => format!(", fault injection on stream {id}"),
            None => String::new(),
        }
    );

    let (model, pre) = build_model();
    let reqs =
        generate_requests(&LoadGenConfig { streams, accesses_per_stream: accesses, seed: 0xBEEF });

    let cfg = ServeConfig {
        shards,
        max_batch,
        threshold: 0.5,
        panic_on_stream: panic_stream,
        ..ServeConfig::default()
    };
    let runtime = Arc::new(ServeRuntime::start(model, pre, cfg));
    let drill = swap_at.map(|n| {
        println!("loadgen: hot-swap drill armed at {n} served request(s)");
        SwapDrill::spawn(Arc::clone(&runtime), n)
    });
    if let Ok(bind) = std::env::var("DART_LOADGEN_ADDR") {
        run_tcp_mode(runtime, drill, &bind, streams, accesses);
    }
    let report = run_load(&runtime, &reqs, streams);

    println!("{}", report.summary());
    println!("\n--- metrics exposition ---");
    print!("{}", runtime.render_metrics());
    println!("--- end exposition ---");
    let swap_ok = swap_verdict(drill, runtime.stats_snapshot().model_swaps);
    // The drill thread has been joined above, so this Arc is unique again.
    if let Ok(runtime) = Arc::try_unwrap(runtime) {
        runtime.shutdown();
    }

    if !report.is_ok() || !swap_ok {
        eprintln!(
            "loadgen: FAILED ({} failure(s), {}/{} responses)",
            report.failures, report.responses, report.submitted
        );
        std::process::exit(1);
    }
    println!("loadgen: OK");
}
