//! `serve_inproc`: a `ServeRuntime` holding the DART tables, driven in
//! process by one closed-loop driver — the kernel-heavy service loop.
//! `dart-net` is bypassed; whatever the kernels do not account for is
//! `dart-serve` (route, queue, coalesce, features, sink).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dart_core::config::PredictorConfig;
use dart_core::TabularModel;
use dart_nn::matrix::Matrix;
use dart_serve::{PrefetchRequest, PrefetchResponse, ServeConfig, ServeRuntime, StreamState};
use dart_trace::PreprocessConfig;

use crate::inputs::{untrained_tables, Streams};
use crate::probes::{mean_ns, request_layers, service_layers};
use crate::report::{timed, timed_setups, Outcome, RunArgs};
use crate::spans::SpanLog;
use crate::stats::{best, Fnv};
use crate::workloads::REPS;

/// Client streams.
pub const STREAMS: usize = 256;
/// Requests the driver keeps outstanding.
const WINDOW: u64 = 512;
/// Streams whose served answers are replayed directly through
/// `predict_batch` (a sixteenth of them keeps the check under a second).
const REPLAYED_STREAMS: usize = 16;
/// Give up on a repetition after this long without an answer.
const STALL: Duration = Duration::from_secs(10);

/// The fixed service sizing: 2 shards, batches of up to 64, kernels inline
/// on the shard threads.
pub fn serve_config() -> ServeConfig {
    ServeConfig { shards: 2, max_batch: 64, pool_threads: Some(1), ..ServeConfig::default() }
}

/// Fold one answer into a stream's checksum.
pub fn fold_answer(sum: &mut Fnv, seq: u64, blocks: &[u64]) {
    sum.push(seq);
    sum.push(blocks.len() as u64);
    blocks.iter().for_each(|&b| sum.push(b));
}

/// One checksum over per-stream checksums, in stream order.
pub fn combine(per_stream: &[Fnv]) -> Fnv {
    let mut all = Fnv::default();
    per_stream.iter().for_each(|s| all.push(s.0));
    all
}

/// What the runtime must answer for the first `count` accesses of
/// `stream`, computed without it: a private `StreamState`, one
/// `predict_batch` call per warm access, the shared emission rule.
pub fn direct_replay(
    model: &TabularModel,
    pre: &PreprocessConfig,
    cfg: &ServeConfig,
    streams: &Streams,
    stream: usize,
    count: u64,
) -> Fnv {
    let mut state = StreamState::new(pre.seq_len);
    let mut feats = Matrix::zeros(pre.seq_len, pre.input_dim());
    let mut candidates = Vec::new();
    let mut sum = Fnv::default();
    for index in 0..count {
        let req = streams.request(stream, index, 0);
        let seq = state.push(req.block(), req.pc);
        let blocks = if state.warm() {
            state.write_features_into(pre, &mut feats, 0);
            let probs = model.predict_batch(&feats);
            pre.decode_bitmap_into(
                probs.row(0),
                req.block(),
                cfg.threshold,
                cfg.max_degree,
                &mut candidates,
            )
        } else {
            Vec::new()
        };
        fold_answer(&mut sum, seq, &blocks);
    }
    sum
}

/// Span names of the traced driver loop.
pub struct DriverNames {
    submit: u16,
    take: u16,
    request: u16,
}

impl DriverNames {
    /// Intern the driver span names in `log`.
    pub fn new(log: &mut SpanLog) -> DriverNames {
        DriverNames {
            submit: log.name("serve.submit"),
            take: log.name("serve.take"),
            request: log.name("request"),
        }
    }
}

/// One closed-loop repetition's result.
pub struct Rep {
    /// Timed requests submitted.
    pub sent: u64,
    /// Timed requests answered exactly once, in order, without error.
    pub answered: u64,
    /// From the first timed submit to the last timed answer.
    pub wall_s: f64,
    /// Submit-to-take latency of each answered timed request.
    pub latency_ns: Vec<u64>,
    /// Per-stream checksum over every answer (warm-up accesses included).
    pub per_stream: Vec<Fnv>,
    /// Largest `queue_depth` seen in sampled statistics snapshots.
    pub max_queue_depth: u64,
}

impl Rep {
    /// Answered requests per second of the timed part.
    pub fn rps(&self) -> f64 {
        self.answered as f64 / self.wall_s
    }
}

/// Drive `rt` through one repetition under stream namespace `namespace`:
/// first `seq_len - 1` untimed accesses per stream (cold, no prediction),
/// then `per_stream` timed accesses per stream with [`WINDOW`] requests
/// outstanding. Every answer is matched to its request by `(stream, seq)`.
pub fn closed_loop(
    rt: &ServeRuntime,
    streams: &Streams,
    namespace: u32,
    per_stream: u64,
    mut trace: Option<(&mut SpanLog, &DriverNames)>,
) -> Rep {
    let n = streams.len() as u64;
    let cold = rt.preprocess().seq_len as u64 - 1;
    let id_of = |stream: u64| (namespace as u64) << 32 | stream;
    let request =
        |i: u64| -> PrefetchRequest { streams.request((i % n) as usize, i / n, id_of(i % n)) };
    let mut sums = vec![Fnv::default(); n as usize];
    let mut next_seq = vec![0u64; n as usize];
    let mut taken: Vec<PrefetchResponse> = Vec::new();

    // Untimed: warm every stream's history.
    rt.submit_all((0..cold * n).map(request));
    let mut got = 0u64;
    let warm_start = Instant::now();
    while got < cold * n && warm_start.elapsed() < STALL {
        rt.take_completed_timeout_into(Duration::from_millis(100), &mut taken);
        for resp in &taken {
            let s = (resp.stream_id & 0xffff_ffff) as usize;
            if resp.error.is_none() && resp.seq == next_seq[s] {
                fold_answer(&mut sums[s], resp.seq, &resp.prefetch_blocks);
                next_seq[s] += 1;
            }
            got += 1;
        }
    }

    // Timed: request `i` is access `cold + i / n` of stream `i % n`.
    let total = per_stream * n;
    let first = cold * n;
    let mut sent_at: Vec<Option<Instant>> = vec![None; total as usize];
    let mut latency_ns = Vec::with_capacity(total as usize);
    let (mut sent, mut seen, mut answered, mut batch_id) = (0u64, 0u64, 0u64, 0u64);
    let mut max_queue_depth = 0u64;
    let mut last_sample = Instant::now();
    let start = Instant::now();
    let mut last_answer = start;
    while seen < total {
        let room = (WINDOW - (sent - seen)).min(total - sent);
        if room > 0 {
            let now = Instant::now();
            sent_at[sent as usize..(sent + room) as usize].fill(Some(now));
            let batch = (sent..sent + room).map(|i| request(first + i));
            match trace.as_mut() {
                Some((log, names)) => log.span(names.submit, batch_id, || rt.submit_all(batch)),
                None => rt.submit_all(batch),
            }
            sent += room;
            batch_id += 1;
        }
        match trace.as_mut() {
            Some((log, names)) => log.span(names.take, batch_id, || {
                rt.take_completed_timeout_into(Duration::from_millis(100), &mut taken)
            }),
            None => rt.take_completed_timeout_into(Duration::from_millis(100), &mut taken),
        }
        let now = Instant::now();
        if taken.is_empty() {
            if now.duration_since(last_answer) > STALL {
                break;
            }
            continue;
        }
        last_answer = now;
        for resp in &taken {
            seen += 1;
            let s = (resp.stream_id & 0xffff_ffff) as usize;
            let in_order = resp.stream_id >> 32 == namespace as u64
                && resp.error.is_none()
                && s < n as usize
                && resp.seq == next_seq[s]
                && resp.seq >= cold;
            if !in_order {
                continue;
            }
            next_seq[s] += 1;
            fold_answer(&mut sums[s], resp.seq, &resp.prefetch_blocks);
            let index = (resp.seq - cold) * n + s as u64;
            if let Some(at) = sent_at[index as usize].take() {
                latency_ns.push(now.duration_since(at).as_nanos() as u64);
                answered += 1;
                if let Some((log, names)) = trace.as_mut() {
                    log.record(names.request, index, at, now);
                }
            }
        }
        if trace.is_some() && now.duration_since(last_sample) > Duration::from_millis(20) {
            max_queue_depth = max_queue_depth.max(rt.stats_snapshot().queue_depth);
            last_sample = now;
        }
    }
    let wall_s = last_answer.duration_since(start).as_secs_f64();
    rt.retire_streams_with_prefix(namespace);
    Rep { sent, answered, wall_s, latency_ns, per_stream: sums, max_queue_depth }
}

/// Warm the system up and estimate its closed-loop rate, which sizes the
/// timed repetitions: a short probe, then a pass of about a twentieth of
/// the run at the probe's rate (the probe alone overestimates). `rep`
/// runs one repetition of the given accesses per stream under the given
/// namespace and returns `(sent, answered, rps)`.
pub fn calibrate(
    seconds: f64,
    streams: usize,
    out: &mut Outcome,
    mut rep: impl FnMut(u64, u32) -> (u64, u64, f64),
) -> f64 {
    let (_, _, probe_rps) = rep(8, 1);
    let (sent, answered, rps) = rep(per_stream_for(probe_rps, seconds * 0.05, streams), 2);
    out.phase("warmup".into(), sent, answered, false);
    rps
}

/// Timed accesses per stream that fill about `seconds` at `rps`.
pub fn per_stream_for(rps: f64, seconds: f64, streams: usize) -> u64 {
    ((rps * seconds / streams as f64).round() as u64).max(4)
}

struct Setup {
    streams: Streams,
    model: Arc<TabularModel>,
    rt: ServeRuntime,
    tabularize_s: f64,
}

fn setup(seed: u64, pre: &PreprocessConfig) -> Setup {
    let streams = Streams::new(seed, STREAMS);
    let (model, tabularize_s) =
        timed(|| Arc::new(untrained_tables(&PredictorConfig::dart(), pre, &streams, seed)));
    let rt = ServeRuntime::start(Arc::clone(&model), *pre, serve_config());
    Setup { streams, model, rt, tabularize_s }
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let pre = PreprocessConfig::default();
    let cfg = serve_config();
    let mut out = Outcome::default();
    // A runtime's threads outlive a plain drop: shut discarded ones down.
    let (s, setup_s) = timed_setups(
        || setup(args.seed, &pre),
        |old| {
            old.rt.shutdown();
        },
    );
    out.set_reps("setup_s", &setup_s);
    out.set("table_bytes", s.model.storage_bytes() as f64);
    out.note("model", "DART (1,32,2,128,2), untrained seeded student, no fine-tuning");
    out.note("sizing", "2 shards, max_batch 64, pool_threads Some(1), 256 streams, window 512");
    out.note(
        "latency",
        "closed loop: latency is window / throughput by Little's law, not independent evidence",
    );

    let rate = calibrate(args.seconds, STREAMS, &mut out, |per_stream, namespace| {
        let rep = closed_loop(&s.rt, &s.streams, namespace, per_stream, None);
        (rep.sent, rep.answered, rep.rps())
    });

    if args.trace {
        traced(args, &pre, &s, rate, &mut out);
    } else {
        let per_stream = per_stream_for(rate, args.seconds / REPS as f64, STREAMS);
        let (mut rps, mut sums) = (Vec::new(), Vec::new());
        for r in 0..REPS {
            let rep = closed_loop(&s.rt, &s.streams, 10 + r as u32, per_stream, None);
            out.phase(format!("rep{r}"), rep.sent, rep.answered, true);
            rps.push(rep.rps());
            sums.push(rep.per_stream);
        }
        out.set_reps("throughput_rps", &rps);
        gates(&pre, &cfg, &s, per_stream, &sums, &mut out);
    }
    let stats = s.rt.shutdown();
    out.check(
        "no_worker_panics",
        stats.worker_panics.is_empty() && stats.failed == 0,
        format!("{} panics, {} failed responses", stats.worker_panics.len(), stats.failed),
    );
    out
}

/// Checksums equal across repetitions and equal to the direct replay.
fn gates(
    pre: &PreprocessConfig,
    cfg: &ServeConfig,
    s: &Setup,
    per_stream: u64,
    sums: &[Vec<Fnv>],
    out: &mut Outcome,
) {
    let first = combine(&sums[0]);
    out.check(
        "checksum_equal_across_repetitions",
        sums.iter().all(|rep| combine(rep) == first),
        format!("{:016x} over {} streams", first.0, STREAMS),
    );
    out.note("output_checksum", format!("{:016x}", first.0));
    let count = pre.seq_len as u64 - 1 + per_stream;
    let agree = (0..REPLAYED_STREAMS)
        .filter(|&st| direct_replay(&s.model, pre, cfg, &s.streams, st, count) == sums[0][st])
        .count();
    out.check(
        "served_equals_direct_predict_batch",
        agree == REPLAYED_STREAMS,
        format!("{agree} of {REPLAYED_STREAMS} streams, {count} accesses each"),
    );
}

fn traced(args: &RunArgs, pre: &PreprocessConfig, s: &Setup, rate: f64, out: &mut Outcome) {
    let mut log = SpanLog::new(Instant::now());
    let names = DriverNames::new(&mut log);
    out.set("core.tabularize.s", s.tabularize_s);
    let per_stream = per_stream_for(rate, args.seconds * 0.1, STREAMS);
    let before = s.rt.stats_snapshot();

    // Untraced and traced repetitions alternate, so a burst of
    // interference cannot land on one kind only.
    let (mut plain_rps, mut plain_lat, mut traced_rps) = (Vec::new(), Vec::new(), Vec::new());
    let mut depth = 0;
    for r in 0..2u32 {
        let rep = closed_loop(&s.rt, &s.streams, 100 + r, per_stream, None);
        out.phase(format!("untraced{r}"), rep.sent, rep.answered, true);
        plain_rps.push(rep.rps());
        plain_lat.push(rep.latency_ns);
        let rep = closed_loop(&s.rt, &s.streams, 200 + r, per_stream, Some((&mut log, &names)));
        out.phase(format!("traced{r}"), rep.sent, rep.answered, true);
        traced_rps.push(rep.rps());
        depth = depth.max(rep.max_queue_depth);
    }
    out.set_latencies(plain_lat);
    out.set("perf.trace_overhead_share", 1.0 - best(&traced_rps, true) / best(&plain_rps, true));
    out.set("perf.samples", log.len() as f64);

    let totals = log.totals();
    let requests = totals.get("request").map_or(0, |t| t.count).max(1) as f64;
    out.set(
        "serve.submit.ns_per_req",
        totals.get("serve.submit").map_or(0, |t| t.total_ns) as f64 / requests,
    );
    // Includes the driver's wait for the next batch, not only the sink lock.
    out.set(
        "serve.take.ns_per_resp",
        totals.get("serve.take").map_or(0, |t| t.total_ns) as f64 / requests,
    );
    let after = s.rt.stats_snapshot();
    service_stats(&before, &after, out);
    out.set("serve.queue_depth.max", depth as f64);

    let mut small = SmallModel::start(args, pre, &s.streams);
    small.rep(&s.streams, out);
    small.rep(&s.streams, out);
    small.finish(args, pre, &s.streams, out);

    let variant = PredictorConfig::dart();
    service_layers(&s.model, &variant, pre, &s.streams, args.seconds * 0.2, &mut log, out);
    out.spans = Some(log);
}

/// Batch shape between two statistics snapshots.
pub fn service_stats(
    before: &dart_serve::ServeStats,
    after: &dart_serve::ServeStats,
    out: &mut Outcome,
) {
    let batches = (after.batches - before.batches).max(1) as f64;
    let requests = (after.requests - before.requests).max(1) as f64;
    out.set("serve.batches", batches);
    out.set("serve.batch.mean", requests / batches);
    out.set("serve.warm_share", (after.predictions - before.predictions) as f64 / requests);
}

/// The same driver loop against a runtime holding the 27 KB DART-S
/// tables: with the kernels nearly free, what remains per request is the
/// hand-off chain (queue mutex, condvar, sink), derived by subtracting the
/// stages that can be replayed on their own. Repetitions are run one at a
/// time so a caller can alternate them with what it compares them to.
pub struct SmallModel {
    model: Arc<TabularModel>,
    rt: ServeRuntime,
    per_stream: u64,
    rps: Vec<f64>,
}

impl SmallModel {
    /// Tabularize DART-S, start its runtime, warm it up and size a
    /// repetition to about a twentieth of the run.
    pub fn start(args: &RunArgs, pre: &PreprocessConfig, streams: &Streams) -> SmallModel {
        let variant = PredictorConfig::dart_s();
        let model = Arc::new(untrained_tables(&variant, pre, streams, args.seed));
        let rt = ServeRuntime::start(Arc::clone(&model), *pre, serve_config());
        let mut unused = Outcome::default();
        let rate = calibrate(args.seconds * 0.5, streams.len(), &mut unused, |per_stream, ns| {
            let rep = closed_loop(&rt, streams, ns, per_stream, None);
            (rep.sent, rep.answered, rep.rps())
        });
        let per_stream = per_stream_for(rate, args.seconds * 0.05, streams.len());
        SmallModel { model, rt, per_stream, rps: Vec::new() }
    }

    /// One closed-loop repetition.
    pub fn rep(&mut self, streams: &Streams, out: &mut Outcome) {
        let namespace = 10 + self.rps.len() as u32;
        let rep = closed_loop(&self.rt, streams, namespace, self.per_stream, None);
        out.phase(format!("small{}", self.rps.len()), rep.sent, rep.answered, true);
        self.rps.push(rep.rps());
    }

    /// Stop the runtime, fill `serve.small_model.rps` and
    /// `serve.handoff.ns_per_req`, and return the best repetition's rate.
    pub fn finish(
        self,
        args: &RunArgs,
        pre: &PreprocessConfig,
        streams: &Streams,
        out: &mut Outcome,
    ) -> f64 {
        let stats = self.rt.shutdown();
        let small_rps = best(&self.rps, true);
        out.set("serve.small_model.rps", small_rps);

        let x = streams.windows(pre, 64);
        let kernel_ns = mean_ns(args.seconds * 0.02, 4, || {
            black_box(self.model.predict_batch(black_box(&x)));
        }) / 64.0;
        let probs = self.model.forward_probs(&x.slice_rows(0, pre.seq_len));
        let mut stages = Outcome::default();
        request_layers(pre, &streams.sample_requests(1024), probs.row(0), &mut stages);
        let stage = |name: &str| stages.metrics.get(name).map_or(0.0, |r| r.value);
        let replayed = stage("serve.router.ns_per_req")
            + stage("serve.features.ns_per_req")
            + stage("trace.decode_bitmap.ns_per_call")
            + kernel_ns;
        // Derived by subtraction: time one busy shard spends per request,
        // minus the stages replayed stand-alone.
        let per_shard_ns = serve_config().shards as f64 * 1e9 / small_rps;
        out.set("serve.handoff.ns_per_req", (per_shard_ns - replayed).max(0.0));
        out.note(
            "serve.handoff.derivation",
            format!(
                "{per_shard_ns:.0} ns per request per busy shard - {replayed:.0} ns replayed \
                 stages (kernel {kernel_ns:.0}); small-model mean batch {:.1}",
                stats.mean_batch()
            ),
        );
        small_rps
    }
}
