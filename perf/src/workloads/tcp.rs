//! `tcp_closed` / `tcp_open`: a `NetServer` on loopback in front of a
//! runtime holding the 30 KB DART-S tables — the hand-off-heavy service
//! loop (wire decode, IO thread, shard queues, sink, dispatcher, outbox,
//! waker; the kernels are small). The clients here are the benchmark's
//! own, built on `dart_net::wire`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use dart_core::config::PredictorConfig;
use dart_core::TabularModel;
use dart_net::wire::{encode_request, Frame, FrameDecoder, RequestFrame};
use dart_net::{fetch_metrics, NetConfig, NetServer};
use dart_serve::ServeRuntime;
use dart_trace::PreprocessConfig;

use crate::inputs::{untrained_tables, Streams};
use crate::metrics::{OPEN_RATES_RPS, OPEN_SLO_P99_US};
use crate::probes::service_layers;
use crate::report::{timed, timed_setups, Outcome, RunArgs};
use crate::schedule::{Lateness, Schedule};
use crate::spans::SpanLog;
use crate::stats::{best, per_rep_quantile_us, Fnv};
use crate::workloads::serve_inproc::{
    calibrate, combine, direct_replay, fold_answer, per_stream_for, serve_config, service_stats,
    SmallModel,
};
use crate::workloads::REPS;

/// Client connections (one generator thread each; ≤ nproc).
const CONNS: usize = 2;
/// Streams multiplexed on each connection.
const STREAMS_PER_CONN: usize = 128;
/// Unanswered requests a closed-loop connection keeps in flight.
const WINDOW: u64 = 64;
/// Give up on a connection after this long without an answer.
const STALL: Duration = Duration::from_secs(10);
/// Streams replayed directly through `predict_batch` per run.
const REPLAYED_STREAMS: usize = 16;

struct Server {
    streams: Streams,
    model: Arc<TabularModel>,
    rt: Arc<ServeRuntime>,
    net: NetServer,
    addr: SocketAddr,
    tabularize_s: f64,
}

impl Server {
    fn start(seed: u64, pre: &PreprocessConfig) -> Server {
        let streams = Streams::new(seed, CONNS * STREAMS_PER_CONN);
        let (model, tabularize_s) =
            timed(|| Arc::new(untrained_tables(&PredictorConfig::dart_s(), pre, &streams, seed)));
        let rt = Arc::new(ServeRuntime::start(Arc::clone(&model), *pre, serve_config()));
        // Admission and outbox caps far above what the schedules send, so a
        // host stall shows as open-loop latency instead of NACKs or a
        // slow-reader disconnect.
        let cfg = NetConfig {
            io_threads: 1,
            max_inflight_per_conn: 1 << 16,
            write_buf_cap: 16 << 20,
            ..NetConfig::default()
        };
        let net = NetServer::start(Arc::clone(&rt), cfg).expect("bind a loopback port");
        let addr = net.local_addr();
        Server { streams, model, rt, net, addr, tabularize_s }
    }

    /// Untimed requests a connection sends first: `seq_len - 1` per stream,
    /// so that every timed request finds a full history and predicts.
    fn cold(&self) -> u64 {
        (self.rt.preprocess().seq_len as u64 - 1) * STREAMS_PER_CONN as u64
    }

    /// Stop the front-end, then the runtime; returns the final statistics.
    fn stop(self) -> dart_serve::ServeStats {
        self.net.shutdown();
        let rt = Arc::try_unwrap(self.rt)
            .unwrap_or_else(|_| panic!("the front-end released the runtime at shutdown"));
        rt.shutdown()
    }
}

/// One client connection and the bookkeeping that proves every request
/// is answered exactly once, in per-stream order.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    send_buf: Vec<u8>,
    /// Index of this connection (its streams are `lane * 128 ..`).
    lane: usize,
    next_seq: Vec<u64>,
    sums: Vec<Fnv>,
    /// Responses that were failed, out of order or for an unknown stream.
    bad: u64,
    nacks: u64,
}

/// Request `index` of connection `lane`: access `index / 128` of its
/// stream `index % 128`.
fn frame(streams: &Streams, lane: usize, index: u64) -> RequestFrame {
    let local = index % STREAMS_PER_CONN as u64;
    let global = lane * STREAMS_PER_CONN + local as usize;
    let (pc, addr) = streams.access(global, index / STREAMS_PER_CONN as u64);
    RequestFrame { stream: local as u32, pc, addr }
}

impl Conn {
    fn open(addr: SocketAddr, lane: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STALL))?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            send_buf: Vec::with_capacity(64 * 1024),
            lane,
            next_seq: vec![0; STREAMS_PER_CONN],
            sums: vec![Fnv::default(); STREAMS_PER_CONN],
            bad: 0,
            nacks: 0,
        })
    }

    /// Connect as `lane`, send the cold requests, then wait at `gate` for
    /// the other connections — also when this one failed, so that nobody
    /// waits for it forever.
    fn open_warm(server: &Server, lane: usize, gate: &Barrier) -> io::Result<Conn> {
        let conn = Conn::open(server.addr, lane).and_then(|mut conn| {
            conn.windowed(&server.streams, 0..server.cold(), 512, |_, _, _| {})?;
            Ok(conn)
        });
        gate.wait();
        conn
    }

    /// Encode requests `range` and write them in one call.
    fn send(&mut self, streams: &Streams, range: std::ops::Range<u64>) -> io::Result<()> {
        self.send_buf.clear();
        for index in range {
            encode_request(&frame(streams, self.lane, index), &mut self.send_buf);
        }
        self.stream.write_all(&self.send_buf)
    }

    /// Block for one read and decode what arrived, calling `on_answer`
    /// with the request index of every in-order response. Returns the
    /// frames decoded.
    fn receive(&mut self, mut on_answer: impl FnMut(u64)) -> io::Result<u64> {
        let n = self.stream.read(&mut self.read_buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.decoder.extend(&self.read_buf[..n]);
        let mut frames = 0;
        loop {
            match self.decoder.next() {
                Ok(Some(Frame::Response(r))) => {
                    frames += 1;
                    let s = r.stream as usize;
                    if r.failed || s >= STREAMS_PER_CONN || r.seq != self.next_seq[s] {
                        self.bad += 1;
                        continue;
                    }
                    self.next_seq[s] += 1;
                    fold_answer(&mut self.sums[s], r.seq, &r.blocks);
                    on_answer(r.seq * STREAMS_PER_CONN as u64 + s as u64);
                }
                Ok(Some(Frame::Nack(_))) => {
                    frames += 1;
                    self.nacks += 1;
                }
                Ok(Some(Frame::Request(_))) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "server sent a request",
                    ));
                }
                Ok(None) => return Ok(frames),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
        }
    }

    /// Send requests `range` keeping at most `window` unanswered; `on`
    /// sees every send (`true`) and every in-order answer (`false`) with
    /// the request's index and the time of the write or the read.
    fn windowed(
        &mut self,
        streams: &Streams,
        range: std::ops::Range<u64>,
        window: u64,
        mut on: impl FnMut(bool, u64, Instant),
    ) -> io::Result<()> {
        let (mut next, mut seen) = (range.start, range.start);
        while seen < range.end {
            let room = (window - (next - seen)).min(range.end - next);
            if room > 0 {
                let now = Instant::now();
                (next..next + room).for_each(|i| on(true, i, now));
                self.send(streams, next..next + room)?;
                next += room;
            }
            let mut answered = Vec::new();
            seen += self.receive(|index| answered.push(index))?;
            let now = Instant::now();
            answered.into_iter().for_each(|i| on(false, i, now));
        }
        Ok(())
    }
}

/// What one connection measured in one repetition.
struct ConnRep {
    sent: u64,
    answered: u64,
    latency_ns: Vec<u64>,
    sums: Vec<Fnv>,
    first_send: Instant,
    last_answer: Instant,
    lateness: Lateness,
    /// The later half of the answers waited more than twice as long (and
    /// a millisecond more) than the earlier half: a backlog was growing.
    growing: bool,
    error: Option<String>,
    log: Option<SpanLog>,
}

impl ConnRep {
    fn new(
        sent: u64,
        latency_ns: Vec<u64>,
        result: io::Result<Conn>,
        first_send: Instant,
        last_answer: Instant,
        lateness: Lateness,
        log: Option<SpanLog>,
    ) -> ConnRep {
        let (sums, error) = match result {
            Ok(conn) => {
                let clean = conn.bad + conn.nacks == 0;
                let error = format!("{} bad responses, {} NACKs", conn.bad, conn.nacks);
                (conn.sums, (!clean).then_some(error))
            }
            Err(e) => (vec![Fnv::default(); STREAMS_PER_CONN], Some(e.to_string())),
        };
        let (early, late) = latency_ns.split_at(latency_ns.len() / 2);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        ConnRep {
            sent,
            answered: latency_ns.len() as u64,
            growing: mean(late) > 2.0 * mean(early) + 1e6,
            latency_ns,
            sums,
            first_send,
            last_answer,
            lateness,
            error,
            log,
        }
    }
}

/// One closed-loop connection: warm its streams (untimed), meet the other
/// connection at `gate`, then `per_stream` timed accesses per stream.
fn closed_conn(
    server: &Server,
    lane: usize,
    per_stream: u64,
    gate: &Barrier,
    epoch: Option<Instant>,
) -> ConnRep {
    let cold = server.cold();
    let total = per_stream * STREAMS_PER_CONN as u64;
    let mut sent_at: Vec<Option<Instant>> = vec![None; total as usize];
    let mut latency_ns = Vec::with_capacity(total as usize);
    let (mut first_send, mut last_answer) = (Instant::now(), Instant::now());
    let mut log = epoch.map(SpanLog::new);
    let request_name = log.as_mut().map(|l| l.name("request"));
    let mut run = || -> io::Result<Conn> {
        let mut conn = Conn::open_warm(server, lane, gate)?;
        first_send = Instant::now();
        conn.windowed(&server.streams, cold..cold + total, WINDOW, |is_send, index, now| {
            let slot = &mut sent_at[(index - cold) as usize];
            if is_send {
                *slot = Some(now);
            } else if let Some(at) = slot.take() {
                latency_ns.push(now.duration_since(at).as_nanos() as u64);
                last_answer = now;
                if let (Some(l), Some(name)) = (log.as_mut(), request_name) {
                    l.record(name, index, at, now);
                }
            }
        })?;
        Ok(conn)
    };
    let result = run();
    ConnRep::new(total, latency_ns, result, first_send, last_answer, Lateness::default(), log)
}

/// One open-loop connection: warm its streams, meet the other at `gate`,
/// then this thread writes each request when it is due while a reader
/// thread timestamps the answers; latency counts from the due time.
fn open_conn(
    server: &Server,
    lane: usize,
    per_stream: u64,
    rate_rps: u64,
    gate: &Barrier,
    start: &OnceLock<Instant>,
) -> ConnRep {
    let cold = server.cold();
    let count = per_stream * STREAMS_PER_CONN as u64;
    let mut lateness = Lateness::default();
    let mut latency_ns = Vec::with_capacity(count as usize);
    let (mut first_send, mut last_answer) = (Instant::now(), Instant::now());
    let mut run = || -> io::Result<Conn> {
        let mut conn = Conn::open_warm(server, lane, gate)?;
        // Both lanes share one start, a little ahead so neither begins late.
        let t0 = *start.get_or_init(|| Instant::now() + Duration::from_millis(5));
        let schedule = Schedule::new(t0, rate_rps, CONNS as u64, lane as u64);
        first_send = schedule.due(0);
        let mut writer = conn.stream.try_clone()?;
        std::thread::scope(|scope| {
            // A read that times out (no answer for `STALL`) ends the
            // reader with an error: the missing answers are lost.
            let reader = scope.spawn(|| {
                let mut seen = 0u64;
                while seen < count {
                    seen += conn.receive(|index| {
                        let now = Instant::now();
                        let waited = now.saturating_duration_since(schedule.due(index - cold));
                        latency_ns.push(waited.as_nanos() as u64);
                        last_answer = now;
                    })?;
                }
                Ok(conn)
            });
            let mut buf = Vec::with_capacity(4096);
            let mut next = 0u64;
            let mut sent = Ok(());
            while next < count && sent.is_ok() {
                let now = Instant::now();
                let due = schedule.due_by(now).min(count);
                if due == next {
                    std::thread::sleep(schedule.due(next).saturating_duration_since(now));
                    continue;
                }
                buf.clear();
                for i in next..due {
                    lateness.record(schedule.due(i), now);
                    encode_request(&frame(&server.streams, lane, cold + i), &mut buf);
                }
                sent = writer.write_all(&buf);
                next = due;
            }
            let read = reader.join().expect("reader thread does not panic");
            sent.and(read)
        })
    };
    let result = run();
    ConnRep::new(count, latency_ns, result, first_send, last_answer, lateness, None)
}

/// One repetition over both connections.
struct Rep {
    sent: u64,
    answered: u64,
    rps: f64,
    latency_ns: Vec<u64>,
    /// Per-stream checksums, connection 0's streams first.
    sums: Vec<Fnv>,
    lateness: Lateness,
    growing: bool,
    errors: Vec<String>,
    logs: Vec<SpanLog>,
}

fn merge(conns: Vec<ConnRep>) -> Rep {
    let first = conns.iter().map(|c| c.first_send).min().expect("two connections");
    let last = conns.iter().map(|c| c.last_answer).max().expect("two connections");
    let answered: u64 = conns.iter().map(|c| c.answered).sum();
    let mut rep = Rep {
        sent: conns.iter().map(|c| c.sent).sum(),
        answered,
        rps: answered as f64 / last.saturating_duration_since(first).as_secs_f64().max(1e-9),
        latency_ns: Vec::new(),
        sums: Vec::new(),
        lateness: Lateness::default(),
        growing: conns.iter().any(|c| c.growing),
        errors: Vec::new(),
        logs: Vec::new(),
    };
    for c in conns {
        rep.latency_ns.extend(c.latency_ns);
        rep.sums.extend(c.sums);
        rep.lateness.merge(c.lateness);
        rep.errors.extend(c.error);
        rep.logs.extend(c.log);
    }
    rep
}

/// Run `conn` once per lane on its own thread, all meeting at one gate
/// after their warm-up, and merge what they measured.
fn on_every_lane(conn: impl Fn(usize, &Barrier) -> ConnRep + Sync) -> Rep {
    let gate = Barrier::new(CONNS);
    let (conn, gate) = (&conn, &gate);
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..CONNS).map(|lane| scope.spawn(move || conn(lane, gate))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    merge(conns)
}

fn closed_rep(server: &Server, per_stream: u64, epoch: Option<Instant>) -> Rep {
    on_every_lane(|lane, gate| closed_conn(server, lane, per_stream, gate, epoch))
}

/// Timed accesses per stream that an open-loop repetition of `seconds`
/// at `rate_rps` sends.
fn open_per_stream(seconds: f64, rate_rps: u64) -> u64 {
    ((rate_rps as f64 * seconds / (CONNS * STREAMS_PER_CONN) as f64).round() as u64).max(1)
}

fn open_rep(server: &Server, per_stream: u64, rate_rps: u64) -> Rep {
    let start = OnceLock::new();
    on_every_lane(|lane, gate| open_conn(server, lane, per_stream, rate_rps, gate, &start))
}

/// Counters of the server's `/metrics` page, summed over label sets.
fn scrape(addr: SocketAddr) -> impl Fn(&str) -> f64 {
    let text = fetch_metrics(addr).unwrap_or_default();
    move |name: &str| {
        text.lines()
            .filter(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(['{', ' '])))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    }
}

/// Record a repetition's phase and any connection errors.
fn account(label: String, rep: &Rep, timed: bool, out: &mut Outcome) {
    out.phase(label.clone(), rep.sent, rep.answered, timed);
    for e in &rep.errors {
        out.check(&format!("{label}.connection"), false, e.clone());
    }
}

/// Checksums equal across repetitions and equal to the direct replay.
fn gates(
    pre: &PreprocessConfig,
    server: &Server,
    accesses: u64,
    sums: &[Vec<Fnv>],
    out: &mut Outcome,
) {
    let first = combine(&sums[0]);
    out.check(
        "checksum_equal_across_repetitions",
        sums.iter().all(|rep| combine(rep) == first),
        format!("{:016x} over {} streams", first.0, sums[0].len()),
    );
    out.note("output_checksum", format!("{:016x}", first.0));
    let cfg = serve_config();
    let step = sums[0].len() / REPLAYED_STREAMS;
    let agree = (0..REPLAYED_STREAMS)
        .map(|k| k * step)
        .filter(|&st| {
            direct_replay(&server.model, pre, &cfg, &server.streams, st, accesses) == sums[0][st]
        })
        .count();
    out.check(
        "served_equals_direct_predict_batch",
        agree == REPLAYED_STREAMS,
        format!("{agree} of {REPLAYED_STREAMS} streams, {accesses} accesses each"),
    );
}

fn common_setup(args: &RunArgs, pre: &PreprocessConfig, out: &mut Outcome) -> Server {
    let (server, setup_s) = timed_setups(
        || Server::start(args.seed, pre),
        |old| {
            old.stop();
        },
    );
    out.set_reps("setup_s", &setup_s);
    out.set("table_bytes", server.model.storage_bytes() as f64);
    out.note("model", "DART-S (1,16,2,16,1), untrained seeded student, no fine-tuning");
    out.note(
        "sizing",
        "2 shards, max_batch 64, pool_threads Some(1), 1 IO thread, 2 connections x 128 streams",
    );
    server
}

fn finish(server: Server, out: &mut Outcome) {
    let stats = server.stop();
    out.check(
        "no_worker_panics",
        stats.worker_panics.is_empty() && stats.failed == 0,
        format!("{} panics, {} failed responses", stats.worker_panics.len(), stats.failed),
    );
}

/// Run `tcp_closed`.
pub fn run_closed(args: &RunArgs) -> Outcome {
    let pre = PreprocessConfig::default();
    let mut out = Outcome::default();
    let server = common_setup(args, &pre, &mut out);
    out.note(
        "latency",
        "closed loop: latency is window / throughput by Little's law, not independent evidence",
    );
    let mut warm_errors = Vec::new();
    let rate = calibrate(args.seconds, CONNS * STREAMS_PER_CONN, &mut out, |per_stream, _| {
        let rep = closed_rep(&server, per_stream, None);
        warm_errors.extend(rep.errors);
        (rep.sent, rep.answered, rep.rps)
    });
    out.check("warmup.connections", warm_errors.is_empty(), format!("{warm_errors:?}"));

    if args.trace {
        traced_closed(args, &pre, &server, rate, &mut out);
    } else {
        let per_stream = per_stream_for(rate, args.seconds / REPS as f64, CONNS * STREAMS_PER_CONN);
        let (mut rps, mut sums) = (Vec::new(), Vec::new());
        for r in 0..REPS {
            let rep = closed_rep(&server, per_stream, None);
            account(format!("rep{r}"), &rep, true, &mut out);
            rps.push(rep.rps);
            sums.push(rep.sums);
        }
        out.set_reps("throughput_rps", &rps);
        gates(&pre, &server, pre.seq_len as u64 - 1 + per_stream, &sums, &mut out);
    }
    finish(server, &mut out);
    out
}

/// Run `tcp_open`.
pub fn run_open(args: &RunArgs) -> Outcome {
    let pre = PreprocessConfig::default();
    let mut out = Outcome::default();
    let server = common_setup(args, &pre, &mut out);
    out.note("rates_rps", format!("{OPEN_RATES_RPS:?}; end-to-end metrics are read at r2"));
    out.note("latency", "timed from each request's due time, not from its send");
    let warm = open_rep(
        &server,
        open_per_stream(args.seconds * 0.03, OPEN_RATES_RPS[1]),
        OPEN_RATES_RPS[1],
    );
    account("warmup".into(), &warm, false, &mut out);

    if args.trace {
        traced_open(args, &pre, &server, &mut out);
    } else {
        let per_stream = open_per_stream(args.seconds / REPS as f64, OPEN_RATES_RPS[1]);
        let (mut rps, mut sums) = (Vec::new(), Vec::new());
        let mut lateness = Lateness::default();
        for r in 0..REPS {
            let rep = open_rep(&server, per_stream, OPEN_RATES_RPS[1]);
            account(format!("r2.rep{r}"), &rep, true, &mut out);
            rps.push(rep.rps);
            lateness.merge(rep.lateness);
            sums.push(rep.sums);
        }
        out.set_reps("throughput_rps", &rps);
        out.note(
            "generator",
            format!(
                "{:.4} of sends more than 1 ms late, worst {} us",
                lateness.late_share(),
                lateness.max_ns / 1000
            ),
        );
        gates(&pre, &server, pre.seq_len as u64 - 1 + per_stream, &sums, &mut out);
    }
    finish(server, &mut out);
    out
}

fn net_counters(before: &dyn Fn(&str) -> f64, after: &dyn Fn(&str) -> f64, out: &mut Outcome) {
    let delta = |name: &str| after(name) - before(name);
    let responses = delta("dart_net_responses_out_total").max(1.0);
    // Appends that carried more than one frame, over frames routed: with
    // perfect coalescing into batches of k this tends to 1/k.
    out.set("net.batched_writes_share", delta("dart_net_batched_writes_total") / responses);
    out.set("net.writable_registrations", delta("dart_net_writable_registrations_total"));
    out.set(
        "net.nack_share",
        delta("dart_net_nacks_total") / delta("dart_net_frames_in_total").max(1.0),
    );
}

fn traced_closed(
    args: &RunArgs,
    pre: &PreprocessConfig,
    server: &Server,
    rate: f64,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    out.set("core.tabularize.s", server.tabularize_s);
    let per_stream = per_stream_for(rate, args.seconds * 0.1, CONNS * STREAMS_PER_CONN);
    let counters_before = scrape(server.addr);
    let stats_before = server.rt.stats_snapshot();

    // Untraced, traced and socket-free repetitions alternate, so a burst
    // of interference cannot land on one kind only.
    let mut small = SmallModel::start(args, pre, &server.streams);
    let (mut plain_rps, mut plain_lat, mut traced_rps) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..2 {
        let rep = closed_rep(server, per_stream, None);
        account(format!("untraced{r}"), &rep, true, out);
        plain_rps.push(rep.rps);
        plain_lat.push(rep.latency_ns);
        let rep = closed_rep(server, per_stream, Some(epoch));
        account(format!("traced{r}"), &rep, true, out);
        traced_rps.push(rep.rps);
        rep.logs.into_iter().for_each(|l| log.absorb(l));
        small.rep(&server.streams, out);
    }
    out.set_latencies(plain_lat);
    let tcp_rps = best(&plain_rps, true);
    out.set("perf.trace_overhead_share", 1.0 - best(&traced_rps, true) / tcp_rps);
    out.set("perf.samples", log.len() as f64);
    service_stats(&stats_before, &server.rt.stats_snapshot(), out);
    net_counters(&counters_before, &scrape(server.addr), out);

    // Unloaded round trip: one connection, one request in flight.
    let mut rtt = Vec::new();
    let mut idle = || -> io::Result<()> {
        let mut conn = Conn::open_warm(server, 0, &Barrier::new(1))?;
        let cold = server.cold();
        let mut sent = Instant::now();
        conn.windowed(&server.streams, cold..cold + 2000, 1, |is_send, _, now| {
            if is_send {
                sent = now;
            } else {
                rtt.push(now.duration_since(sent).as_nanos() as u64);
            }
        })
    };
    let idle_result = idle();
    out.check("rtt_idle.connection", idle_result.is_ok(), format!("{idle_result:?}"));
    if let Some(p50) = per_rep_quantile_us(&mut [rtt], 0.50) {
        out.set("net.rtt_idle.p50_us", p50[0]);
    }

    // Same model without the socket: the difference is the front-end.
    let small_rps = small.finish(args, pre, &server.streams, out);
    out.set("net.handoff.ns_per_req", (1e9 / tcp_rps - 1e9 / small_rps).max(0.0));
    out.set("net.overhead_share", (1.0 - tcp_rps / small_rps).max(0.0));
    out.note(
        "net.handoff.derivation",
        format!(
            "tcp_closed {tcp_rps:.0} req/s vs in-process {small_rps:.0} req/s, same DART-S tables"
        ),
    );
    let variant = PredictorConfig::dart_s();
    service_layers(
        &server.model,
        &variant,
        pre,
        &server.streams,
        args.seconds * 0.1,
        &mut log,
        out,
    );
    out.spans = Some(log);
}

fn traced_open(args: &RunArgs, pre: &PreprocessConfig, server: &Server, out: &mut Outcome) {
    let mut log = SpanLog::new(Instant::now());
    out.set("core.tabularize.s", server.tabularize_s);
    let counters_before = scrape(server.addr);
    let stats_before = server.rt.stats_snapshot();
    let mut lateness = Lateness::default();
    let mut slo_rate = 0.0;
    for (rung, &rate) in OPEN_RATES_RPS.iter().enumerate() {
        let mut lat = Vec::new();
        let mut clean = true;
        for r in 0..2 {
            let rep = open_rep(server, open_per_stream(args.seconds * 0.12, rate), rate);
            account(format!("r{}.rep{r}", rung + 1), &rep, true, out);
            clean &= rep.errors.is_empty() && rep.answered == rep.sent && !rep.growing;
            lateness.merge(rep.lateness);
            lat.push(rep.latency_ns);
        }
        let p50 = per_rep_quantile_us(&mut lat, 0.50).map(|v| best(&v, false));
        let p95 = per_rep_quantile_us(&mut lat, 0.95).map(|v| best(&v, false));
        let p99 = per_rep_quantile_us(&mut lat, 0.99).map(|v| best(&v, false));
        match rung {
            0 => {
                out.set("net.open.r1.p50_us", p50.unwrap_or(0.0));
                out.set("net.open.r1.p99_us", p99.unwrap_or(0.0));
            }
            1 => {
                out.set("latency_p50_us", p50.unwrap_or(0.0));
                out.set("latency_p95_us", p95.unwrap_or(0.0));
                out.set("latency_p99_us", p99.unwrap_or(0.0));
            }
            _ => {
                out.set("net.open.r3.p50_us", p50.unwrap_or(0.0));
                out.set("net.open.r3.p99_us", p99.unwrap_or(0.0));
            }
        }
        if clean && p99.is_some_and(|t| t <= OPEN_SLO_P99_US) {
            slo_rate = rate as f64;
        }
    }
    out.set("net.open.slo_rate_rps", slo_rate);
    out.set("perf.gen.late_share", lateness.late_share());
    out.set("perf.gen.max_late_us", lateness.max_ns as f64 / 1e3);
    service_stats(&stats_before, &server.rt.stats_snapshot(), out);
    net_counters(&counters_before, &scrape(server.addr), out);
    let variant = PredictorConfig::dart_s();
    service_layers(
        &server.model,
        &variant,
        pre,
        &server.streams,
        args.seconds * 0.1,
        &mut log,
        out,
    );
    out.set("perf.samples", log.len() as f64);
    out.spans = Some(log);
}
