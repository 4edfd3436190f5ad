//! The TCP drill driver: a request list from
//! [`dart_serve::generate_requests`] sent over many connections, each
//! multiplexing many streams, verifying **exactly one answer per request**
//! end to end.
//!
//! Requests are dealt to connections by stream id ([`split_by_connection`]).
//! Each connection runs on its own thread with a bounded in-flight window:
//! it sends frames until `window` are unanswered, then reads answers before
//! sending more. Every sent request must come back as exactly one response
//! *or* one NACK; anything still unanswered after [`READ_TIMEOUT`] without
//! progress is counted as `lost` (and fails [`LoadReport::is_ok`]).

use std::io;
use std::time::{Duration, Instant};

use dart_serve::{LoadReport, PrefetchRequest};

use crate::client::{ClientEvent, NetClient};
use crate::wire::RequestFrame;

/// How long a connection waits for its next answer before it gives up and
/// books everything still unanswered as lost.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Deal `requests` to `connections` (clamped ≥ 1) connections: stream `id`
/// travels on connection `id % connections` as wire stream
/// `id / connections`, so a stream stays on one connection, no two streams
/// share a wire id, and each connection's list keeps the order `requests`
/// had — per-stream order included.
pub fn split_by_connection(
    requests: &[PrefetchRequest],
    connections: usize,
) -> Vec<Vec<RequestFrame>> {
    let connections = connections.max(1) as u64;
    let mut per_conn = vec![Vec::new(); connections as usize];
    for r in requests {
        let stream = u32::try_from(r.stream_id / connections).expect("wire stream ids are 32-bit");
        per_conn[(r.stream_id % connections) as usize].push(RequestFrame {
            stream,
            pc: r.pc,
            addr: r.addr,
        });
    }
    per_conn
}

/// One connection's books: the running report plus per-stream counts, so
/// the exactly-once contract is pinned per stream — aggregate totals can
/// mask a duplicate on one stream paired with a drop on another.
struct Books {
    report: LoadReport,
    sent: Vec<u64>,
    answered: Vec<u64>,
    inflight: u64,
}

impl Books {
    /// Read and book answers until at most `keep` frames are unanswered.
    /// `false` when a read timed out: what was in flight is booked as lost.
    fn drain_to(&mut self, client: &mut NetClient, keep: u64) -> io::Result<bool> {
        while self.inflight > keep {
            let stream = match client.recv_event() {
                Ok(ClientEvent::Response(r)) => {
                    self.report.responses += 1;
                    if r.failed {
                        self.report.failures += 1;
                        self.report.note("response carried the failure flag");
                    }
                    r.stream
                }
                Ok(ClientEvent::Nack(n)) => {
                    self.report.nacks += 1;
                    n.stream
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    self.report.lost += self.inflight;
                    self.report.note("no answer within the read timeout");
                    return Ok(false);
                }
                Err(e) => return Err(e),
            };
            self.inflight -= 1;
            match self.answered.get_mut(stream as usize) {
                Some(count) => *count += 1,
                None => {
                    self.report.lost += 1;
                    self.report.note("answer for a stream this connection never sent on");
                }
            }
        }
        Ok(true)
    }
}

/// Send one connection's frames in order, never more than `window`
/// unanswered, then read the rest and compare every stream's two counts.
fn run_connection(addr: &str, frames: &[RequestFrame], window: u64) -> io::Result<LoadReport> {
    let mut client = NetClient::connect(addr)?;
    client.set_read_timeout(Some(READ_TIMEOUT))?;
    let streams = frames.iter().map(|f| f.stream as usize + 1).max().unwrap_or(0);
    let mut books = Books {
        report: LoadReport::default(),
        sent: vec![0; streams],
        answered: vec![0; streams],
        inflight: 0,
    };
    for frame in frames {
        client.send_request(frame.stream, frame.pc, frame.addr);
        books.sent[frame.stream as usize] += 1;
        books.report.submitted += 1;
        books.inflight += 1;
        if !books.drain_to(&mut client, window.max(1) - 1)? {
            return Ok(books.report);
        }
    }
    if books.drain_to(&mut client, 0)? {
        for (sent, answered) in books.sent.iter().zip(&books.answered) {
            if sent != answered {
                books.report.lost += sent.abs_diff(*answered);
                books.report.note("a stream's answers do not match its requests");
            }
        }
    }
    Ok(books.report)
}

/// Drive the server at `addr` with `requests` over `connections` sockets
/// (one thread each), at most `window` unanswered frames per connection —
/// keep it at or below the server's `max_inflight_per_conn` to avoid
/// admission NACKs, above it to provoke them. Returns the first connection
/// IO error, else the aggregate verdict.
pub fn run_tcp_load(
    addr: &str,
    requests: &[PrefetchRequest],
    connections: usize,
    window: u64,
) -> io::Result<LoadReport> {
    let start = Instant::now();
    let per_conn = split_by_connection(requests, connections);
    let results: Vec<io::Result<LoadReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|frames| scope.spawn(move || run_connection(addr, frames, window)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("load connection thread panicked")).collect()
    });
    let mut report = LoadReport::default();
    for conn in results {
        let conn = conn?;
        report.submitted += conn.submitted;
        report.responses += conn.responses;
        report.nacks += conn.nacks;
        report.failures += conn.failures;
        report.lost += conn.lost;
        conn.failure_reasons.iter().for_each(|r| report.note(r));
    }
    report.elapsed_s = start.elapsed().as_secs_f64();
    Ok(report)
}
