//! End-to-end tests of the TCP front-end against a real (tiny) serving
//! runtime: round-trips, exactly-once accounting under load,
//! backpressure NACKs with a live (unblocked) IO loop, admission
//! control, slow-reader disconnects, and protocol-error teardown.
//!
//! The net counters live in the process-global telemetry registry, so
//! assertions on them are `>=` (other tests in this binary may run
//! concurrently); the strict exposition-equality test has its own test
//! binary (`metrics_http.rs`).

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dart_net::tcp_load::split_by_connection;
use dart_net::{fetch_metrics, run_tcp_load, ClientEvent, NetClient, NetConfig, NetServer};
use dart_serve::{generate_requests, LoadGenConfig, PrefetchRequest, ServeConfig};

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig { shards, max_batch: 16, threshold: 0.0, ..ServeConfig::default() }
}

/// `streams` drill streams of `accesses` requests each, interleaved.
fn drill_requests(streams: usize, accesses: usize) -> Vec<PrefetchRequest> {
    generate_requests(&LoadGenConfig { streams, accesses_per_stream: accesses, seed: 1 })
}

/// The stream id the runtime sees for wire stream `stream` on the n-th
/// accepted connection (connection ids start at 1).
fn global_id(conn: u32, stream: u32) -> u64 {
    ((conn as u64) << 32) | stream as u64
}

#[test]
fn binary_roundtrip_answers_in_stream_order() {
    let runtime = common::start_runtime(serve_cfg(2));
    let server = NetServer::start(runtime, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (streams, accesses) = (4u32, 12u32);
    for access in 0..accesses {
        for stream in 0..streams {
            client.send_request(
                stream,
                0x400 + stream as u64,
                (stream as u64) << 20 | (access as u64) << 6,
            );
        }
    }
    let mut seqs = vec![Vec::new(); streams as usize];
    for _ in 0..streams * accesses {
        match client.recv_event().unwrap() {
            ClientEvent::Response(r) => {
                assert!(!r.failed, "no faults injected");
                seqs[r.stream as usize].push(r.seq);
            }
            ClientEvent::Nack(n) => panic!("unexpected NACK: {n:?}"),
        }
    }
    for per_stream in &seqs {
        let expect: Vec<u64> = (0..accesses as u64).collect();
        assert_eq!(per_stream, &expect, "per-stream seqs must be contiguous and in order");
    }
    server.shutdown();
}

#[test]
fn queue_full_nacks_while_the_io_thread_stays_live() {
    // One shard, queue of 1, and the very first wire stream stalls its
    // worker for 600 ms: everything submitted behind it must come back
    // as a queue-full NACK immediately — and the metrics route must keep
    // answering while the shard is wedged, proving no IO thread ever
    // blocked on the full queue.
    let runtime = common::start_runtime(ServeConfig {
        queue_capacity: 1,
        stall_on_stream: Some(global_id(1, 0)),
        stall_ms: 600,
        ..serve_cfg(1)
    });
    let server = NetServer::start(runtime, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    client.send_request(0, 0x400, 0x1000);
    client.flush().unwrap();
    // Let the worker pop the stalling request so the queue is empty...
    std::thread::sleep(Duration::from_millis(200));
    // ...then flood: 1 fills the queue, the rest must be NACKed.
    let flood = 10u32;
    for i in 0..flood {
        client.send_request(0, 0x400, 0x2000 + i as u64 * 64);
    }
    client.flush().unwrap();

    // While the only shard is stalled, a metrics scrape still answers.
    let body = fetch_metrics(addr).expect("metrics must stay reachable during the stall");
    assert!(body.contains("dart_net_connections_active"), "{body}");

    let (mut responses, mut nacks) = (0u64, 0u64);
    for _ in 0..=flood {
        match client.recv_event().unwrap() {
            ClientEvent::Response(r) => {
                assert!(!r.failed);
                responses += 1;
            }
            ClientEvent::Nack(n) => {
                assert_eq!(n.stream, 0);
                nacks += 1;
            }
        }
    }
    assert_eq!(responses + nacks, 1 + flood as u64, "every request accounted exactly once");
    assert!(nacks >= 1, "a 1-deep queue behind a stalled worker must NACK");
    assert!(responses >= 2, "the stalling request and the queued one are served");
    server.shutdown();
}

#[test]
fn admission_cap_nacks_over_inflight_connections() {
    // Unbounded shard queue, but the connection may only have 4 frames
    // in flight; a stalled worker keeps them unanswered, so a burst of
    // 30 must see admission NACKs.
    let runtime = common::start_runtime(ServeConfig {
        stall_on_stream: Some(global_id(1, 0)),
        stall_ms: 500,
        ..serve_cfg(1)
    });
    let server =
        NetServer::start(runtime, NetConfig { max_inflight_per_conn: 4, ..NetConfig::default() })
            .unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let burst = 30u32;
    for i in 0..burst {
        client.send_request(0, 0x400, 0x1000 + i as u64 * 64);
    }
    client.flush().unwrap();

    let (mut responses, mut nacks) = (0u64, 0u64);
    for _ in 0..burst {
        match client.recv_event().unwrap() {
            ClientEvent::Response(_) => responses += 1,
            ClientEvent::Nack(_) => nacks += 1,
        }
    }
    assert_eq!(responses + nacks, burst as u64);
    assert!(nacks >= 1, "30 frames against a 4-deep admission cap must NACK");
    server.shutdown();
}

#[test]
fn worker_panic_surfaces_as_failed_responses_over_the_wire() {
    let runtime = common::start_runtime(ServeConfig {
        panic_on_stream: Some(global_id(1, 1)),
        ..serve_cfg(1)
    });
    let server = NetServer::start(runtime, NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    for i in 0..4u64 {
        client.send_request(1, 0x404, 0x4000 + i * 64);
    }
    let mut failed = 0;
    for _ in 0..4 {
        match client.recv_event().unwrap() {
            ClientEvent::Response(r) => {
                if r.failed {
                    assert_eq!(r.seq, u64::MAX, "failure responses carry the sentinel seq");
                    assert!(r.blocks.is_empty());
                    failed += 1;
                }
            }
            ClientEvent::Nack(n) => panic!("unexpected NACK {n:?}"),
        }
    }
    assert!(failed >= 1, "the poisoned shard must fail its requests, not drop them");
    server.shutdown();
}

#[test]
fn slow_reader_is_disconnected_not_buffered_forever() {
    let runtime = common::start_runtime(serve_cfg(2));
    let server =
        NetServer::start(runtime, NetConfig { write_buf_cap: 1024, ..NetConfig::default() })
            .unwrap();

    // Flood requests and never read: responses overflow the 1 KiB
    // outbox cap (the kernel socket buffers absorb only so much) and
    // the server must cut us off instead of buffering without bound.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut send_err = None;
    for i in 0..200_000u64 {
        client.send_request((i % 64) as u32, 0x400, i * 64);
        if let Err(e) = client.flush() {
            send_err = Some(e);
            break;
        }
    }
    match send_err {
        Some(_) => {} // write side already saw the reset
        None => {
            // Drain until the disconnect surfaces as EOF/reset.
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while client.recv_event().is_ok() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server never disconnected the slow reader"
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn protocol_garbage_gets_the_connection_dropped() {
    let runtime = common::start_runtime(serve_cfg(1));
    let server = NetServer::start(runtime, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // Starts with the binary magic but a bogus version: torn down.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    bad.write_all(&[0xDA, 0x7A, 42, 1, 0, 0, 0, 0]).unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(bad.read(&mut buf).unwrap_or(0), 0, "bad version must close the connection");

    // Not the magic byte: parsed as HTTP, unknown method answered 405.
    let mut odd = TcpStream::connect(addr).unwrap();
    odd.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    odd.write_all(b"BREW /coffee HTCPCP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    odd.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 405"), "{text}");

    // Unknown path is a 404, and the route list is stable.
    let mut lost = TcpStream::connect(addr).unwrap();
    lost.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    lost.write_all(b"GET /metric HTTP/1.1\r\n\r\n").unwrap();
    let mut text = String::new();
    lost.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 404"), "{text}");

    server.shutdown();
}

/// Pull one metric's value out of an exposition document (first sample
/// whose line starts with `name`, labels included).
fn scraped(doc: &str, name: &str) -> Option<u64> {
    doc.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn idle_connections_are_reaped_but_not_while_a_request_is_in_flight() {
    // Idle timeout 100 ms, but the first request stalls its worker for
    // 400 ms. The stalled connection has a frame in flight the whole
    // time, so it must NOT be reaped out from under the pending
    // response; once answered and quiet, it must be reaped as `idle`.
    let runtime = common::start_runtime(ServeConfig {
        stall_on_stream: Some(global_id(1, 0)),
        stall_ms: 400,
        ..serve_cfg(1)
    });
    let server =
        NetServer::start(runtime, NetConfig { idle_timeout_ms: 100, ..NetConfig::default() })
            .unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    client.send_request(0, 0x400, 0x1000);
    match client.recv_event().expect("in-flight request survives 4x the idle window") {
        ClientEvent::Response(r) => assert!(!r.failed),
        ClientEvent::Nack(n) => panic!("unexpected NACK {n:?}"),
    }

    // Now go quiet: the server must close us (reason `idle`), seen as
    // EOF on the next read.
    let err = match client.recv_event() {
        Ok(event) => panic!("unsolicited event from an idle connection: {event:?}"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    let doc = fetch_metrics(addr).unwrap();
    assert!(
        scraped(&doc, "dart_net_disconnects_total{reason=\"idle\"}").unwrap_or(0) >= 1,
        "idle reap must be counted under its own reason:\n{doc}"
    );
    server.shutdown();
}

#[test]
fn batched_response_path_answers_every_request_exactly_once() {
    // Deep windows make the IO threads coalesce many responses per conn
    // per pass. The wire contract (exactly one answer per request,
    // per-stream accounting) must hold regardless: batching is a
    // transport optimization, not a semantic.
    let runtime = common::start_runtime(serve_cfg(2));
    let server = NetServer::start(runtime, NetConfig::default()).unwrap();
    assert_eq!(server.thread_count(), NetConfig::default().io_threads, "IO threads, no others");
    let reqs = drill_requests(4 * 64, 8);
    let report = run_tcp_load(&server.local_addr().to_string(), &reqs, 4, 256).unwrap();
    assert_eq!(report.submitted, 4 * 64 * 8);
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.failures, 0, "{report:?}");
    assert_eq!(report.responses + report.nacks, report.submitted);
    server.shutdown();
}

#[test]
fn dead_connection_streams_are_retired_from_the_shards() {
    let runtime = common::start_runtime(serve_cfg(1));
    let server = NetServer::start(runtime, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // Conn 1 warms 8 streams, then disappears.
    {
        let mut doomed = NetClient::connect(addr).unwrap();
        doomed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for stream in 0..8u32 {
            doomed.send_request(stream, 0x400, (stream as u64) << 20);
        }
        for _ in 0..8 {
            doomed.recv_event().unwrap();
        }
    } // dropped: the server sees EOF and reaps conn 1

    // Retirement is lazy (shard workers drain the retire cell when new
    // traffic wakes them), so poke the shard from a second connection
    // until the 8 dead streams are gone and only this conn's remains.
    let mut live = NetClient::connect(addr).unwrap();
    live.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let resident = loop {
        live.send_request(0, 0x400, 0xAB00_0000);
        live.recv_event().unwrap();
        let doc = fetch_metrics(addr).unwrap();
        let resident = scraped(&doc, "dart_serve_resident_streams{shard=\"0\"}").unwrap();
        if resident <= 1 || std::time::Instant::now() > deadline {
            assert!(
                scraped(&doc, "dart_serve_stream_retirements_total").unwrap() >= 8,
                "all 8 dead streams retired:\n{doc}"
            );
            break resident;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(resident, 1, "only the live connection's stream may stay resident");
    server.shutdown();
}

#[test]
fn tcp_load_accounts_every_request_across_many_streams() {
    let runtime = common::start_runtime(serve_cfg(4));
    let server =
        NetServer::start(runtime, NetConfig { io_threads: 4, ..NetConfig::default() }).unwrap();

    // 8 connections × 128 streams = 1024 concurrent streams (the CI
    // smoke run scales this to 12k+ in release).
    let reqs = drill_requests(8 * 128, 8);
    let report = run_tcp_load(&server.local_addr().to_string(), &reqs, 8, 256).unwrap();
    assert_eq!(report.submitted, 8 * 128 * 8);
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.failures, 0, "{report:?}");
    assert_eq!(report.responses + report.nacks, report.submitted, "{report:?}");
    assert!(report.is_ok(), "{report:?}");
    server.shutdown();
}

#[test]
fn a_window_above_the_admission_cap_is_nacked_and_still_fully_accounted() {
    // One shard stalled on its first request and a 4-deep admission cap:
    // a client window of 64 must see admission NACKs, and every request
    // is still answered exactly once, by a response or by a NACK.
    let runtime = common::start_runtime(ServeConfig {
        stall_on_stream: Some(global_id(1, 0)),
        stall_ms: 100,
        ..serve_cfg(1)
    });
    let server =
        NetServer::start(runtime, NetConfig { max_inflight_per_conn: 4, ..NetConfig::default() })
            .unwrap();
    let reqs = drill_requests(8, 16);
    let report = run_tcp_load(&server.local_addr().to_string(), &reqs, 1, 64).unwrap();
    assert_eq!(report.submitted, 8 * 16);
    assert!(report.nacks > 0, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.responses + report.nacks, report.submitted, "{report:?}");
    assert!(report.is_ok(), "a NACK is an answer, not a loss: {report:?}");
    server.shutdown();
}

#[test]
fn the_per_connection_split_keeps_every_stream_whole_and_in_order() {
    let (streams, accesses, conns) = (10usize, 7usize, 4usize);
    let reqs = drill_requests(streams, accesses);
    let per_conn = split_by_connection(&reqs, conns);
    assert_eq!(per_conn.len(), conns);
    assert_eq!(per_conn.iter().map(Vec::len).sum::<usize>(), reqs.len());
    for id in 0..streams as u64 {
        let asked: Vec<(u64, u64)> =
            reqs.iter().filter(|r| r.stream_id == id).map(|r| (r.pc, r.addr)).collect();
        let wire = (id / conns as u64) as u32;
        let sent: Vec<(u64, u64)> = per_conn[id as usize % conns]
            .iter()
            .filter(|f| f.stream == wire)
            .map(|f| (f.pc, f.addr))
            .collect();
        assert_eq!(asked.len(), accesses);
        assert_eq!(
            sent,
            asked,
            "stream {id} on connection {} as wire stream {wire}",
            id as usize % conns
        );
    }
}
