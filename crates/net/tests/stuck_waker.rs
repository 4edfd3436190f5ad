//! Regression: an idle connection's round trip must not degrade to
//! poll-timeout polling after a burst. In its own test binary because it
//! measures latency, which concurrent servers in a shared binary smear.
//!
//! The old response path woke an IO thread through a loopback-TCP
//! `Waker` deduplicated by an `armed` flag. `drain` cleared the flag
//! *before* reading the wake bytes, so a `wake()` landing in between set
//! the flag, wrote a byte, and had that byte eaten by the drain — leaving
//! `armed == true` with nothing in the pipe. Every later wake was then
//! suppressed forever and completions were only flushed when the poll
//! timed out. That race needs a wake to land inside a ~microsecond
//! window, so it takes a long pipelined burst to fire: **on the parent
//! of this change this test fails whenever the race fires** (3 of 3 runs
//! of this 200 k-frame test; the issue reports 2 of 5 after 10 k
//! frames), with every idle round trip afterwards costing one
//! `poll_timeout_ms`: p50 ~30-90 us before the burst, 250 ms after. The
//! response
//! path now has no such flag: the lane wakes on the mailbox's
//! empty→non-empty edge and the poller's eventfd counter holds the wake
//! until `wait` consumes it.
//!
//! `poll_timeout_ms` is raised to 250 so that "waited out the poll
//! timeout" (≥ 250 ms) and "was woken" (well under a millisecond) are
//! far apart on any machine.

mod common;

use std::time::{Duration, Instant};

use dart_net::{run_tcp_load, ClientEvent, NetClient, NetConfig, NetServer};
use dart_serve::{generate_requests, LoadGenConfig, ServeConfig};

const ROUND_TRIPS: usize = 20;

/// `ROUND_TRIPS` serial window-1 round trips on a fresh connection,
/// sorted ascending.
fn idle_round_trips(addr: std::net::SocketAddr) -> Vec<Duration> {
    let mut client = NetClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut rtts: Vec<Duration> = (0..ROUND_TRIPS as u64)
        .map(|i| {
            let sent = Instant::now();
            client.send_request(0, 0x400, 0x1000 + i * 64);
            match client.recv_event().expect("an idle round trip is answered") {
                ClientEvent::Response(r) => assert!(!r.failed),
                ClientEvent::Nack(n) => panic!("unexpected NACK {n:?}"),
            }
            sent.elapsed()
        })
        .collect();
    rtts.sort_unstable();
    rtts
}

/// Names of this process's live `dart-net-*` threads, as the kernel
/// reports them (this binary runs exactly one server).
#[cfg(target_os = "linux")]
fn net_thread_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("dart-net-"))
        .collect();
    names.sort();
    names
}

#[test]
fn idle_round_trip_stays_event_driven_after_a_pipelined_burst() {
    let runtime = common::start_runtime(ServeConfig {
        shards: 2,
        max_batch: 16,
        threshold: 0.0,
        ..ServeConfig::default()
    });
    let server = NetServer::start(
        runtime,
        NetConfig { io_threads: 1, poll_timeout_ms: 250, ..NetConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let before = idle_round_trips(addr);
    // Checked after the round trips, not right after `start`: a thread
    // only shows its name in /proc once it has begun running.
    #[cfg(target_os = "linux")]
    assert_eq!(net_thread_names(), ["dart-net-io-0"], "one IO thread and nothing else");

    // 2 connections x 100 streams x 1024 accesses = 204,800 frames, 512
    // in flight per connection: two shard workers completing batches
    // into the IO thread as fast as it can route them.
    let burst =
        generate_requests(&LoadGenConfig { streams: 200, accesses_per_stream: 1024, seed: 1 });
    let report = run_tcp_load(&addr.to_string(), &burst, 2, 512).unwrap();
    assert!(report.submitted >= 200_000);
    assert!(report.is_ok(), "the burst itself must be answered exactly once: {report:?}");

    let after = idle_round_trips(addr);
    let (p50_before, p50_after) = (before[ROUND_TRIPS / 2], after[ROUND_TRIPS / 2]);
    println!(
        "idle RTT p50 {p50_before:?} (max {:?}) before the burst, {p50_after:?} (max {:?}) after",
        before[ROUND_TRIPS - 1],
        after[ROUND_TRIPS - 1]
    );
    let slowest = after[ROUND_TRIPS - 1];
    assert!(
        slowest < Duration::from_millis(50),
        "an idle round trip took {slowest:?} after the burst: completions are waiting out \
         the poll timeout instead of waking the IO thread"
    );
    // The ratio is taken against at least 250 us, so scheduler noise on a
    // ~100 us quantity cannot fail it; a stuck waker is off by >500x.
    let allowed = 4 * p50_before.max(Duration::from_micros(250));
    assert!(
        p50_after <= allowed,
        "idle RTT p50 went from {p50_before:?} to {p50_after:?} across the burst (allowed \
         {allowed:?})"
    );
    server.shutdown();
}
