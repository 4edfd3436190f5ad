//! `loadgen` — the serving drill: one run of the drill kit
//! (`dart_serve::loadgen`: SPEC-like request streams against the tiny
//! drill model), in process or over TCP, with a pass/fail verdict.
//!
//! A smoke/soak drill, not a measuring instrument (throughput and latency
//! are `perf/`'s job): it prints the `LoadReport`, the latency and batch
//! shape of the runtime's stats snapshot and the full metrics exposition,
//! and **exits 1** if any request was lost, failed or unaccounted, if an
//! armed hot-swap never happened, or — over TCP — if the server's scraped
//! `/metrics` counters disagree with the client's books. Bad usage exits 2
//! before anything starts. Everything not on the command line is a
//! `ServeConfig` / `NetConfig` default or a constant here.
//!
//! ```sh
//! cargo run --release -p dart-bench --bin loadgen
//! cargo run --release -p dart-bench --bin loadgen -- --tcp 127.0.0.1:0 --streams 1024 --conns 8
//! ```

use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dart_bench::announce_threads;
use dart_core::TabularModel;
use dart_net::{fetch_metrics, run_tcp_load, NetConfig, NetServer};
use dart_serve::{
    drill_model, drill_pre, generate_requests, run_load, LoadGenConfig, LoadReport, ServeConfig,
    ServeRuntime,
};

const USAGE: &str = "\
usage: loadgen [--streams N] [--accesses N] [--shards N] [--swap-at N]
               [--tcp ADDR [--conns N]]

  --streams N    concurrent client streams (default 64)
  --accesses N   requests per stream (default 200)
  --shards N     shard workers (default 4)
  --swap-at N    once N requests are served, hot-swap a bit-identical clone
                 of the model mid-run; the run fails if that never happens
  --tcp ADDR     bind a NetServer at ADDR (e.g. 127.0.0.1:0) and drive it
                 over sockets instead of submitting in process
  --conns N      client connections the streams are dealt to (default 8)

Every N is an integer >= 1.";

/// Unanswered frames a client connection keeps in flight: well under
/// `NetConfig::default().max_inflight_per_conn`, so the drill sees no
/// admission NACKs.
const WINDOW: u64 = 256;

const FLAGS: [&str; 6] = ["--streams", "--accesses", "--shards", "--swap-at", "--tcp", "--conns"];

struct Args {
    streams: usize,
    accesses: usize,
    shards: usize,
    swap_at: Option<u64>,
    tcp: Option<SocketAddr>,
    conns: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { streams: 64, accesses: 200, shards: 4, swap_at: None, tcp: None, conns: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let count = || match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} {value}: expected an integer >= 1")),
        };
        match flag.as_str() {
            "--streams" => parsed.streams = count()?,
            "--accesses" => parsed.accesses = count()?,
            "--shards" => parsed.shards = count()?,
            "--swap-at" => parsed.swap_at = Some(count()? as u64),
            "--conns" => parsed.conns = Some(count()?),
            "--tcp" => {
                let addr = value.parse().map_err(|_| format!("--tcp {value}: expected ip:port"))?;
                parsed.tcp = Some(addr);
            }
            _ => unreachable!("{flag} is in FLAGS"),
        }
    }
    if parsed.conns.is_some() && parsed.tcp.is_none() {
        return Err("--conns needs --tcp".into());
    }
    Ok(parsed)
}

/// The mid-run hot-swap drill (`--swap-at`): a watcher thread that waits
/// for the served-request counter to cross the trigger, then swaps in a
/// bit-identical `clone` of the active model. Because the clone is
/// bit-identical, any lost, failed, or changed response after the swap is
/// the swap machinery's fault — which is what this smoke exists to catch.
///
/// The counter is checked before every 1 ms wait and once more when the
/// run is over, so a trigger the run reaches is never missed, however
/// short the run; the printed line says whether the swap fired mid-run or
/// at the end.
struct SwapDrill {
    stop: mpsc::Sender<()>,
    watcher: JoinHandle<bool>,
}

impl SwapDrill {
    fn arm(runtime: Arc<ServeRuntime>, trigger: u64) -> SwapDrill {
        let (stop, stopped) = mpsc::channel::<()>();
        let watcher = std::thread::spawn(move || {
            let swap_if_due = |when: &str| {
                if runtime.stats_snapshot().requests < trigger {
                    return false;
                }
                let (_, active) = runtime.registry().active();
                let version = runtime
                    .swap_model(Arc::new(TabularModel::clone(&active)), "loadgen mid-run swap")
                    .expect("bit-identical clone must be dimension-compatible");
                println!("loadgen: hot-swapped to model version {version} {when}");
                true
            };
            // Poll once a millisecond until the sender is dropped.
            loop {
                if swap_if_due("mid-run") {
                    return true;
                }
                if stopped.recv_timeout(Duration::from_millis(1)) != Err(RecvTimeoutError::Timeout)
                {
                    return swap_if_due("at the end of the run");
                }
            }
        });
        SwapDrill { stop, watcher }
    }

    /// Stop watching and say whether the swap happened.
    fn fired(self) -> bool {
        drop(self.stop);
        self.watcher.join().expect("swap watcher panicked")
    }
}

/// `None` when the exposition `doc` holds `series` with a value `holds`
/// accepts. `series` is the whole `name` or `name{labels}`: a longer series
/// sharing the prefix does not answer for it, and a missing one is a
/// problem, not a zero.
fn violated(doc: &str, series: &str, holds: impl Fn(u64) -> bool, hint: &str) -> Option<String> {
    let value = doc.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok());
    match value {
        Some(v) if holds(v) => None,
        Some(v) => Some(format!("{series} is {v}: {hint}")),
        None => Some(format!("no `{series}` sample in the exposition")),
    }
}

/// Everything wrong with the run; empty means OK. Over TCP the server's
/// own counters (in `doc`) must corroborate the client's books.
fn problems(report: &LoadReport, doc: &str, swap_fired: Option<bool>, tcp: bool) -> Vec<String> {
    let mut found = Vec::new();
    // A swap smoke that silently skips the swap would be a green light
    // with no bulb.
    match swap_fired {
        Some(true) => {
            found.extend(violated(doc, "dart_serve_model_swaps_total", |v| v >= 1, "a swap fired"))
        }
        Some(false) => found.push("--swap-at set but the swap never triggered".into()),
        None => {}
    }
    if tcp {
        let sent = format!("the client sent {} frames", report.submitted);
        found.extend(violated(doc, "dart_net_frames_in_total", |v| v == report.submitted, &sent));
        let got = format!("the client received {} responses", report.responses);
        found.extend(violated(
            doc,
            "dart_net_responses_out_total",
            |v| v >= report.responses,
            &got,
        ));
        // At meaningful scale some IO-loop pass must coalesce more than
        // one response for some connection.
        if report.submitted >= 10_000 {
            let never = "the batched write path never engaged";
            found.extend(violated(doc, "dart_net_batched_writes_total", |v| v >= 1, never));
        }
    }
    if !report.is_ok() {
        found.push(format!(
            "{} lost, {} failed, {}/{} accounted",
            report.lost,
            report.failures,
            report.responses + report.nacks,
            report.submitted
        ));
    }
    found
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n\n{USAGE}");
        std::process::exit(2);
    });
    announce_threads();
    println!(
        "loadgen: {} streams x {} accesses, {} shard(s)",
        args.streams, args.accesses, args.shards
    );

    let pre = drill_pre();
    let runtime = Arc::new(ServeRuntime::start(
        drill_model(&pre, 0x5EED),
        pre,
        ServeConfig { shards: args.shards, ..ServeConfig::default() },
    ));
    let reqs = generate_requests(&LoadGenConfig {
        streams: args.streams,
        accesses_per_stream: args.accesses,
        seed: 0xBEEF,
    });
    let conns = args.conns.unwrap_or(8);
    let server = args.tcp.map(|bind| {
        let cfg = NetConfig { addr: bind.to_string(), ..NetConfig::default() };
        let server = NetServer::start(Arc::clone(&runtime), cfg).expect("bind the drill server");
        println!(
            "loadgen: TCP mode on {}: {conns} conn(s), window {WINDOW}, {} server thread(s)",
            server.local_addr(),
            server.thread_count()
        );
        server
    });
    let drill = args.swap_at.map(|n| {
        println!("loadgen: hot-swap drill armed at {n} served request(s)");
        SwapDrill::arm(Arc::clone(&runtime), n)
    });

    let report = match &server {
        Some(server) => {
            let addr = server.local_addr().to_string();
            run_tcp_load(&addr, &reqs, conns, WINDOW).expect("drill client IO")
        }
        None => run_load(&runtime, &reqs, args.streams),
    };
    let swap_fired = drill.map(SwapDrill::fired);
    let doc = match &server {
        Some(server) => fetch_metrics(server.local_addr()).expect("scrape /metrics"),
        None => runtime.render_metrics(),
    };
    let stats = runtime.stats_snapshot();
    let tcp = server.is_some();
    if let Some(server) = server {
        server.shutdown();
    }
    // The drill thread and the server are gone, so this Arc is unique again.
    if let Ok(runtime) = Arc::try_unwrap(runtime) {
        runtime.shutdown();
    }

    println!("{}", report.summary());
    println!(
        "{} predictions, p50 {:.1}us p99 {:.1}us, mean batch {:.1}",
        stats.predictions,
        stats.p50_latency_ns as f64 / 1_000.0,
        stats.p99_latency_ns as f64 / 1_000.0,
        stats.mean_batch(),
    );
    println!("\n--- metrics exposition ---");
    print!("{doc}");
    println!("--- end exposition ---");

    let found = problems(&report, &doc, swap_fired, tcp);
    if !found.is_empty() {
        for problem in &found {
            eprintln!("loadgen: {problem}");
        }
        eprintln!("loadgen: FAILED");
        std::process::exit(1);
    }
    println!("loadgen: OK");
}
