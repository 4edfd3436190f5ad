//! The serving runtime: shard lifecycle, submission, and statistics.

use dart_telemetry::lockcheck::{named_mutex, Mutex};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dart_core::{EmitPolicy, StreamEngine, TabularModel};
use dart_telemetry::{Histogram, SpanRecord, SpanRing};
use dart_trace::PreprocessConfig;

use crate::registry::{check_candidate, ModelRegistry};
use crate::request::{PrefetchRequest, PrefetchResponse};
use crate::router::StreamRouter;
use crate::shadow::ReplaySampler;
use crate::shard::{
    CompletionLane, CompletionSink, Envelope, RetireCell, ShardQueue, ShardReport, ShardTelemetry,
    ShardWorker, TryPushError,
};
use crate::slot::ModelSlot;

/// Why [`ServeRuntime::try_submit`] did **not** accept a request. This is
/// the only rejection that produces no response on the submitting lane —
/// the caller still holds the request and must answer for it
/// (the network front-end answers with a protocol NACK carrying `depth`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitRejected {
    /// The target shard's bounded queue is at capacity.
    QueueFull {
        /// Shard whose queue was full.
        shard: usize,
        /// Queue depth at rejection time (goes out in the NACK frame).
        depth: u64,
    },
}

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Maximum requests coalesced into one batched prediction.
    pub max_batch: usize,
    /// Bitmap probability threshold for emitting a prefetch.
    pub threshold: f32,
    /// Maximum prefetches emitted per prediction (variable degree cap).
    /// At least 1 is emitted even at 0: the serving path and
    /// `DartPrefetcher` (the sim path) run one step and one emission rule.
    pub max_degree: usize,
    /// Resident-stream cap **per shard**: each shard's stream-state map
    /// holds at most this many streams, evicting the least-recently-seen
    /// beyond it (clamped to at least 1). Bounds shard memory under
    /// stream-id churn. An evicted stream that returns re-warms from
    /// scratch (cold responses for its first `seq_len - 1` accesses, seq
    /// restarting at 0) rather than predicting on a stale window.
    pub max_streams_per_shard: usize,
    /// Kernel thread-pool size. `Some(n)` builds one `n`-thread
    /// work-stealing pool shared by **all** shard workers — the shards ×
    /// pool-threads knob: `n` bounds the *extra* kernel threads, instead
    /// of each shard spawning its own pool. Note that a shard thread also
    /// executes kernel tiles itself while draining (`install` does not
    /// migrate the caller; waiting threads help), so concurrently-draining
    /// shards contribute their own thread each on top of the `n` workers —
    /// and with `Some(1)` kernels run entirely inline on each shard
    /// thread. `None` shares the process-global pool sized by
    /// `DART_NUM_THREADS`.
    pub pool_threads: Option<usize>,
    /// Bounded capacity of each shard's request queue (clamped to at
    /// least 1; `usize::MAX` — the default — is the unbounded sentinel).
    /// When a queue is full, [`ServeRuntime::submit`]/`submit_all`
    /// **block** the producer until space frees (in-process
    /// back-pressure), while [`ServeRuntime::try_submit`] fails fast with
    /// the queue depth — the network front-end turns that into a protocol
    /// NACK instead of blocking an IO thread.
    pub queue_capacity: usize,
    /// Capacity of the recent-request span ring
    /// ([`ServeRuntime::recent_spans`]): the last N served requests keep
    /// their per-stage lifecycle breakdown for debugging (one ring lock
    /// per served batch). `0` disables the ring entirely.
    pub span_capacity: usize,
    /// Capacity of the live-traffic replay buffer feeding the shadow
    /// retrainer ([`ServeRuntime::replay`]): shard workers append each
    /// served batch's accesses (one bulk push per batch, after responses
    /// are delivered), oldest samples falling off beyond the cap. `0` —
    /// the default — disables sampling entirely (no buffer, no per-batch
    /// cost).
    pub replay_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
        ServeConfig {
            shards,
            max_batch: 64,
            threshold: 0.5,
            max_degree: 4,
            max_streams_per_shard: 4096,
            pool_threads: None,
            queue_capacity: usize::MAX,
            span_capacity: 256,
            replay_capacity: 0,
        }
    }
}

/// Aggregate serving statistics, live or final.
///
/// Both [`ServeRuntime::stats_snapshot`] (while serving) and
/// [`ServeRuntime::shutdown`] (final) produce this through the **same**
/// aggregation path, so the two can never drift: a snapshot is simply the
/// aggregation run before the workers have stopped. Counters come from
/// per-shard report cells committed whole-batch, so every snapshot is
/// internally consistent (`latency.count() == requests`,
/// `predictions <= requests`) and counters are monotone across snapshots.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests answered by shard workers. Every submit produces exactly
    /// one response; responses not counted here were **failure** responses
    /// (see [`Self::failed`]).
    pub requests: u64,
    /// Failure responses delivered (worker panicked mid-batch, request
    /// queued behind a panic, or submitted to a dead/shut-down shard).
    pub failed: u64,
    /// `(shard_id, panic message)` of every shard worker that died.
    pub worker_panics: Vec<(usize, String)>,
    /// Model predictions made (requests whose stream history was warm).
    pub predictions: u64,
    /// Batches served (one `encode_tokens` call each) across all shards.
    pub batches: u64,
    /// Largest coalesced batch observed on any shard.
    pub max_batch: usize,
    /// Requests handled per shard (routing balance diagnostic).
    pub per_shard_requests: Vec<u64>,
    /// Streams resident in each shard's bounded LRU map at shutdown
    /// (each entry `<= ServeConfig::max_streams_per_shard`).
    pub per_shard_streams: Vec<usize>,
    /// Streams evicted by the per-shard LRU cap, across all shards.
    pub stream_evictions: u64,
    /// Streams explicitly retired by dead-connection cleanup
    /// ([`ServeRuntime::retire_streams_with_prefix`]), across all shards.
    pub stream_retirements: u64,
    /// Token rows each shard encoded (`encode_tokens`): one per request,
    /// plus a stream's whole history on its first request after a hot
    /// swap. Against [`Self::per_shard_token_rows_reused`], warm traffic
    /// reads about `1 : seq_len - 1`; a swap shows as a burst here.
    pub per_shard_token_rows_computed: Vec<u64>,
    /// Token rows of served windows each shard took from a stream's ring
    /// instead of encoding them again.
    pub per_shard_token_rows_reused: Vec<u64>,
    /// The active model version (the [`crate::ModelSlot`] epoch; starts
    /// at 1, bumps on every hot-swap including rollbacks). Scrapes can
    /// correlate latency shifts with promotions through this.
    pub model_version: u64,
    /// Successful model hot-swaps since startup (promotions + rollbacks).
    pub model_swaps: u64,
    /// Explicit model rollbacks since startup (each also counts in
    /// [`Self::model_swaps`]).
    pub model_rollbacks: u64,
    /// Model version each shard most recently adopted (at startup, then
    /// re-checked every batch boundary). `0` means the shard's worker has
    /// not finished its initial adoption yet; after a swap, a lagging
    /// entry identifies a shard that may still serve one more batch on
    /// the older version.
    pub per_shard_model_version: Vec<u64>,
    /// Median request latency (queue + inference), nanoseconds.
    /// Percentiles come from a log2-bucketed histogram (O(1) memory per
    /// shard), so they are exact to within ~1.5x.
    pub p50_latency_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// Mean request latency, nanoseconds.
    pub mean_latency_ns: u64,
    /// Requests submitted but not yet answered at aggregation time
    /// (always 0 after `shutdown`, which drains every queue).
    pub in_flight: u64,
    /// Requests sitting in shard queues at aggregation time.
    pub queue_depth: u64,
    /// Nanoseconds since `ServeRuntime::start`.
    pub uptime_ns: u64,
    /// The full request-latency histogram the percentiles above are read
    /// from (merged across shards) — callers can take their own quantiles.
    pub latency: Histogram,
    /// Coalesced batch-size distribution (one sample per served batch).
    pub batch_sizes: Histogram,
    /// Lifecycle stage: enqueue → drained by the worker, per request
    /// (`count() == requests`).
    pub stage_queue_wait: Histogram,
    /// Lifecycle stage: drain → feature matrix formed, per batch
    /// (`count() == batches`, like the two stages below).
    pub stage_coalesce: Histogram,
    /// Lifecycle stage: features → predictions decoded, per batch.
    pub stage_kernel: Histogram,
    /// Lifecycle stage: predictions → responses in their lanes, per batch.
    pub stage_sink: Histogram,
}

impl ServeStats {
    /// Mean requests per batched prediction call.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// The sharded, batched serving runtime (see the crate docs for the
/// architecture diagram).
pub struct ServeRuntime {
    router: StreamRouter,
    queues: Vec<Arc<ShardQueue>>,
    sink: Arc<CompletionSink>,
    /// The built-in lane behind `submit`/`try_submit`/`submit_all` and
    /// `drain_completed`/`take_completed_timeout_into`.
    default_lane: Arc<CompletionLane>,
    /// The versioned model slot every shard worker serves through, and
    /// its registry front (version metadata, publish/rollback, swap and
    /// rejection counters). The runtime's hot-swap surface.
    registry: Arc<ModelRegistry>,
    /// Live-traffic replay buffer feeding the shadow retrainer
    /// (`None` when `ServeConfig::replay_capacity` is 0).
    replay: Option<Arc<ReplaySampler>>,
    /// Preprocessing the runtime was started with — the dimension
    /// contract every hot-swapped candidate is validated against.
    pre: PreprocessConfig,
    workers: Vec<JoinHandle<()>>,
    /// Per-shard statistics cells. Workers commit into these once per
    /// served batch; shutdown reads them directly, so a shard's served
    /// numbers survive even a worker thread that dies outside its own
    /// panic handler (the cell may be poisoned — its data is still
    /// consistent, committed whole batches only).
    reports: Vec<Arc<Mutex<ShardReport>>>,
    /// Per-shard lock-free lifecycle cells (stage histograms, batch-size
    /// distribution), snapshot live without stopping the workers.
    telemetry: Vec<Arc<ShardTelemetry>>,
    /// Per-shard dead-stream retirement cells
    /// (see [`ServeRuntime::retire_streams_with_prefix`]).
    retire: Vec<Arc<RetireCell>>,
    /// Bounded ring of the most recently served requests' lifecycle spans.
    spans: Arc<SpanRing>,
    /// Dedicated kernel pool when `cfg.pool_threads` was set; `None` means
    /// the shard workers use the process-global pool. Kept here so the pool
    /// outlives every worker thread that installed it.
    pool: Option<Arc<rayon::ThreadPool>>,
    started: Instant,
}

impl ServeRuntime {
    /// Spawn `cfg.shards` worker threads, each holding a handle to the
    /// model and its own bounded per-stream state.
    ///
    /// Panics if the model is inconsistent ([`TabularModel::validate`]) or
    /// it and the preprocessing dimensions disagree (same contract as
    /// `DartPrefetcher`), or — here, on the caller's thread, before any
    /// worker exists — if `DART_SIMD` or `DART_NUM_THREADS` is malformed.
    pub fn start(
        model: Arc<TabularModel>,
        pre: PreprocessConfig,
        cfg: ServeConfig,
    ) -> ServeRuntime {
        assert!(cfg.shards >= 1, "need at least one shard");
        if let Err(e) = model.validate() {
            panic!("inconsistent model: {e}");
        }
        let emit = EmitPolicy { threshold: cfg.threshold, max_degree: cfg.max_degree };
        let engine = StreamEngine::new(&model, pre, emit);

        // Versioned model state: the slot holds the authoritative
        // (epoch, model) pair every worker reads through a per-shard
        // handle; the registry fronts it with version metadata and the
        // publish/rollback API. Startup is version 1.
        let slot = Arc::new(ModelSlot::new(model, cfg.shards));
        let registry = Arc::new(ModelRegistry::new(Arc::clone(&slot)));
        let replay =
            (cfg.replay_capacity > 0).then(|| Arc::new(ReplaySampler::new(cfg.replay_capacity)));

        // Resolve the kernel dispatch NOW, on the caller thread, for the
        // same reason the global pool is forced below: a malformed
        // `DART_SIMD` must fail start-up where the operator sees it, not
        // panic each shard worker on its first batch.
        let _ = dart_pq::simd::active_level();

        let sink = Arc::new(CompletionSink::new());
        // One kernel pool for the whole runtime: every shard's batched
        // kernels (`encode_tokens` / `predict_tokens` tiles) run on the same
        // work-stealing pool instead of each shard spawning its own.
        let pool = cfg.pool_threads.map(|n| Arc::new(rayon::ThreadPool::new(n)));
        if pool.is_none() {
            // Force the global pool NOW, on the caller thread: a malformed
            // `DART_NUM_THREADS` must panic here at startup, not lazily
            // inside each shard worker's first kernel call (which would
            // kill the shards without completing requests and leave
            // `wait_idle` callers hung).
            let _ = rayon::global_pool();
        }
        let spans = Arc::new(SpanRing::new(cfg.span_capacity));
        let mut queues = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        let mut reports = Vec::with_capacity(cfg.shards);
        let mut telemetry = Vec::with_capacity(cfg.shards);
        let mut retire = Vec::with_capacity(cfg.shards);
        for shard_id in 0..cfg.shards {
            let queue = Arc::new(ShardQueue::new(cfg.queue_capacity));
            let shard_telemetry = Arc::new(ShardTelemetry::default());
            telemetry.push(Arc::clone(&shard_telemetry));
            let retire_cell = Arc::new(RetireCell::default());
            retire.push(Arc::clone(&retire_cell));
            // The worker commits statistics into this shared cell once per
            // served batch; the runtime holds the other reference, so what
            // a shard served survives any way its thread can die.
            let report_cell = Arc::new(named_mutex("serve.shard_report", ShardReport::default()));
            reports.push(Arc::clone(&report_cell));
            let worker_slot = Arc::clone(&slot);
            let worker_replay = replay.clone();
            let worker_engine = engine.clone();
            let max_batch = cfg.max_batch;
            let max_streams = cfg.max_streams_per_shard;
            let q = Arc::clone(&queue);
            let s = Arc::clone(&sink);
            let p = pool.clone();
            let span_ring = Arc::clone(&spans);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dart-serve-shard-{shard_id}"))
                    .spawn(move || {
                        // Initial adoption happens here, on the worker
                        // thread, and publishes this shard's adopted epoch.
                        let model = worker_slot.handle(shard_id);
                        let worker = ShardWorker {
                            shard_id,
                            model,
                            engine: worker_engine,
                            max_batch,
                            max_streams,
                            retire: retire_cell,
                            telemetry: shard_telemetry,
                            spans: span_ring,
                            replay: worker_replay,
                        };
                        // A panicking worker must not strand its queue: a
                        // batch in progress was already failed by the
                        // worker's batch guard; here the panic is caught,
                        // everything still queued is failed, the queue is
                        // poisoned so later submits fail fast, and the
                        // original panic message is surfaced instead of a
                        // later `PoisonError` at some unrelated lock site.
                        let run_q = Arc::clone(&q);
                        let run_s = Arc::clone(&s);
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match p {
                                Some(pool) => {
                                    pool.install(|| worker.run(run_q, run_s, report_cell))
                                }
                                None => worker.run(run_q, run_s, report_cell),
                            }));
                        if let Err(payload) = result {
                            let msg = panic_message(payload.as_ref());
                            let reason = format!("shard {shard_id} worker panicked: {msg}");
                            // Recorded before the queue is poisoned, so every
                            // failure carrying `reason` — drained below or
                            // rejected at a later submit — is answered after
                            // `worker_panics()` names the cause. (A batch
                            // the guard failed mid-unwind precedes this
                            // handler.) A ready callback that panics in
                            // this last delivery ends the thread: shutdown
                            // records that as a join error.
                            s.record_worker_panic(shard_id, msg);
                            let leaked = q.poison(&reason);
                            s.fail_requests(shard_id, &leaked, &reason);
                        }
                    })
                    .expect("spawn shard worker"),
            );
            queues.push(queue);
        }
        ServeRuntime {
            router: StreamRouter::new(cfg.shards),
            queues,
            sink,
            default_lane: CompletionLane::new(|| {}),
            registry,
            replay,
            pre,
            workers,
            reports,
            telemetry,
            retire,
            spans,
            pool,
            started: Instant::now(),
        }
    }

    /// Worker-thread count of the kernel pool the shard workers share (the
    /// dedicated pool if `pool_threads` was set, else the global pool).
    pub fn pool_threads(&self) -> usize {
        // Deliberately NOT `current_num_threads()`: that reports the
        // *caller's* installed pool, which is not the pool the shard
        // worker threads run kernels on.
        self.pool.as_ref().map_or_else(|| rayon::global_pool().num_threads(), |p| p.num_threads())
    }

    /// The stream-to-shard router in use.
    pub fn router(&self) -> &StreamRouter {
        &self.router
    }

    /// The model registry fronting this runtime's versioned model slot:
    /// version metadata, publish/rollback, and the swap counters. The
    /// shadow retrainer promotes through this; operators can too.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The active model version (slot epoch; starts at 1, bumps on every
    /// hot-swap including rollbacks).
    pub fn model_version(&self) -> u64 {
        self.registry.active_version()
    }

    /// Hot-swap the serving model with **zero downtime**: validates the
    /// candidate against the runtime's preprocessing dimensions, then
    /// publishes it as a new version. Every shard worker adopts it at its
    /// next batch boundary — in-flight batches finish on the version they
    /// adopted, and no request is dropped or answered by a torn model.
    /// Returns the new version id, or an error (and no state change at
    /// all) on an inconsistent candidate or a dimension mismatch.
    pub fn swap_model(&self, model: Arc<TabularModel>, provenance: &str) -> Result<u64, String> {
        // Same contract `start` asserts — but a hot-swap comes from a
        // live retraining loop, so refuse instead of panicking.
        let pre = &self.pre;
        check_candidate(&model, (pre.seq_len, pre.input_dim(), pre.output_dim()))?;
        Ok(self.registry.publish(model, provenance, None, None))
    }

    /// The live-traffic replay buffer feeding the shadow retrainer
    /// (`None` unless [`ServeConfig::replay_capacity`] > 0).
    pub fn replay(&self) -> Option<&Arc<ReplaySampler>> {
        self.replay.as_ref()
    }

    /// The dedicated kernel pool, when `pool_threads` was set — hand this
    /// to [`crate::ShadowTrainer::spawn`] so background retraining steals
    /// work alongside the serving kernels instead of spawning its own
    /// threads. `None` means the process-global pool is in use.
    pub fn kernel_pool(&self) -> Option<Arc<rayon::ThreadPool>> {
        self.pool.clone()
    }

    /// The preprocessing configuration the runtime serves with (the
    /// dimension contract for hot-swap candidates and the config a
    /// shadow trainer must be built with).
    pub fn preprocess(&self) -> &PreprocessConfig {
        &self.pre
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// Submit one access; the response arrives via [`Self::drain_completed`].
    ///
    /// If the target shard's worker has died, the request is answered
    /// immediately with a failure response carrying the worker's panic
    /// message — it is never silently dropped or left hanging.
    pub fn submit(&self, req: PrefetchRequest) {
        self.sink.lock().in_flight += 1;
        let shard = self.router.shard_of(req.stream_id);
        let lane = Arc::clone(&self.default_lane);
        if let Err((rejected, reason)) =
            self.queues[shard].push(Envelope { req, enqueued: Instant::now(), lane })
        {
            self.sink.fail_requests(shard, &rejected, &reason);
        }
    }

    /// [`Self::try_submit_on`] the runtime's default lane: the response
    /// arrives via [`Self::drain_completed`].
    pub fn try_submit(&self, req: PrefetchRequest) -> Result<(), SubmitRejected> {
        self.try_submit_on(&self.default_lane, req)
    }

    /// Submit one access **without ever blocking**, to be answered on
    /// `lane` (see [`CompletionLane`]): a full bounded shard queue comes
    /// back as [`SubmitRejected::QueueFull`] with the queue depth, and
    /// the request is *not* accounted — no response will be delivered for
    /// it, the caller still owns it (the network front-end answers the
    /// client with a NACK frame carrying the depth).
    ///
    /// Every other path behaves like [`Self::submit`]: an accepted
    /// request gets exactly one response on `lane`, and a submit to a
    /// dead/shut-down shard is answered immediately with a failure
    /// response (also `Ok` here — a response IS coming).
    pub fn try_submit_on(
        &self,
        lane: &Arc<CompletionLane>,
        req: PrefetchRequest,
    ) -> Result<(), SubmitRejected> {
        self.sink.lock().in_flight += 1;
        let shard = self.router.shard_of(req.stream_id);
        let env = Envelope { req, enqueued: Instant::now(), lane: Arc::clone(lane) };
        match self.queues[shard].try_push(env) {
            Ok(()) => Ok(()),
            Err((_env, TryPushError::Full { depth })) => {
                // The request never entered the system: release the
                // in-flight slot it was pre-charged (and wake waiters —
                // this may have been the last outstanding slot).
                self.sink.release(1, false);
                Err(SubmitRejected::QueueFull { shard, depth })
            }
            Err((env, TryPushError::Closed(reason))) => {
                // Dead/shut-down shard: same contract as `submit` — the
                // request is answered right now with a failure response.
                self.sink.fail_requests(shard, &[env], &reason);
                Ok(())
            }
        }
    }

    /// Submit many accesses in one go.
    ///
    /// Routes the whole batch first, then takes each shard queue's lock
    /// once — roughly an order of magnitude cheaper per request than
    /// [`Self::submit`] in a tight producer loop. Per-stream order is
    /// preserved (grouping by shard keeps each stream's requests in
    /// submission order, since a stream maps to exactly one shard).
    pub fn submit_all(&self, reqs: impl IntoIterator<Item = PrefetchRequest>) {
        let now = Instant::now();
        let mut per_shard: Vec<Vec<Envelope>> =
            (0..self.queues.len()).map(|_| Vec::new()).collect();
        let mut total = 0u64;
        for req in reqs {
            let lane = Arc::clone(&self.default_lane);
            per_shard[self.router.shard_of(req.stream_id)].push(Envelope {
                req,
                enqueued: now,
                lane,
            });
            total += 1;
        }
        if total == 0 {
            return;
        }
        self.sink.lock().in_flight += total;
        for (shard, (queue, batch)) in self.queues.iter().zip(per_shard).enumerate() {
            if !batch.is_empty() {
                if let Err((rejected, reason)) = queue.push_all(batch) {
                    self.sink.fail_requests(shard, &rejected, &reason);
                }
            }
        }
    }

    /// Requests submitted but not yet answered.
    pub fn outstanding(&self) -> u64 {
        self.sink.lock().in_flight
    }

    /// Worker panics observed so far, as `(shard_id, panic message)`.
    /// Non-empty means one or more shards are dead: their streams receive
    /// immediate failure responses until the runtime is restarted.
    pub fn worker_panics(&self) -> Vec<(usize, String)> {
        self.sink.lock().worker_panics.clone()
    }

    /// Block until fewer than `limit` requests are outstanding (producer
    /// back-pressure for open-loop load generators). Never hangs on a
    /// dead shard: panicked workers fail their requests, which releases
    /// the in-flight slots this waits on.
    pub fn wait_below(&self, limit: u64) {
        let mut state = self.sink.lock();
        while state.in_flight >= limit.max(1) {
            state = self.sink.cv.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Take every response completed so far on the default lane (normal
    /// and failure responses; see [`PrefetchResponse::error`]).
    pub fn drain_completed(&self) -> Vec<PrefetchResponse> {
        let mut out = Vec::new();
        self.default_lane.take_into(&mut out);
        out
    }

    /// Block until at least one response is available on the default lane
    /// (or `timeout` elapses), then take everything completed so far into
    /// a caller-owned buffer (cleared first), so a consumer pumping this in
    /// a loop reuses one allocation. It wakes on every completed batch and
    /// on failure deliveries, without spinning on
    /// [`Self::drain_completed`]. On timeout `out` is left empty.
    pub fn take_completed_timeout_into(
        &self,
        timeout: std::time::Duration,
        out: &mut Vec<PrefetchResponse>,
    ) {
        self.default_lane.take_timeout_into(timeout, out);
    }

    /// Retire every resident stream namespaced under `prefix` (upper 32
    /// bits of the stream id) from all shards' stream maps — the
    /// dead-connection cleanup hook for front-ends that namespace wire
    /// stream ids as `conn_id << 32 | stream`. Without it, a dead
    /// connection's streams stay resident until LRU cap churn evicts
    /// them, displacing live streams in the meantime.
    ///
    /// Asynchronous and non-blocking: each shard's worker applies the
    /// retirement just before it serves its next batch, so the freed
    /// residency is visible to the traffic that would have displaced it.
    /// In-flight requests for retired streams are unaffected (they were
    /// drained before the retirement applies, or they re-enter cold —
    /// the same contract as an LRU eviction).
    pub fn retire_streams_with_prefix(&self, prefix: u32) {
        for cell in &self.retire {
            cell.push(prefix);
        }
    }

    /// Block until every submitted request has been answered. Never hangs
    /// on a dead shard (see [`Self::wait_below`]).
    pub fn wait_idle(&self) {
        let mut state = self.sink.lock();
        while state.in_flight > 0 {
            state = self.sink.cv.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A consistent statistics snapshot of the **running** runtime — no
    /// shutdown required. This is the same aggregation that backs
    /// [`Self::shutdown`] (one function, two call sites), so live and
    /// final numbers can never drift apart.
    ///
    /// Consistency guarantees, even under full submission load and across
    /// worker deaths:
    /// * counters (`requests`, `predictions`, `batches`, `failed`,
    ///   `stream_evictions`) are monotone from one snapshot to the next;
    /// * `predictions <= requests` and `latency.count() == requests` hold
    ///   in every snapshot — per-shard numbers are committed whole-batch
    ///   under the report cell's lock, never mid-batch.
    pub fn stats_snapshot(&self) -> ServeStats {
        self.collect_stats()
    }

    /// The most recently served requests' per-stage lifecycle spans,
    /// oldest first (bounded by [`ServeConfig::span_capacity`]).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.spans.recent()
    }

    /// Render the live Prometheus-style plaintext exposition: the
    /// runtime's own metrics ([`crate::metrics::render_exposition`] over
    /// [`Self::stats_snapshot`]) followed by the process-global registry
    /// (the `dart-pq` kernel counters and `dart_pq_simd_level`).
    pub fn render_metrics(&self) -> String {
        let mut out = crate::metrics::render_exposition(&self.stats_snapshot());
        out.push_str(&dart_telemetry::global().render());
        out
    }

    /// The single aggregation path behind both [`Self::stats_snapshot`]
    /// and [`Self::shutdown`]: fold every shard's report cell (committed
    /// whole-batch, so each clone is internally consistent — a poisoned
    /// cell still holds consistent data), the lock-free lifecycle cells,
    /// and the sink state into one [`ServeStats`].
    fn collect_stats(&self) -> ServeStats {
        let mut stats = ServeStats::default();
        let mut latency = Histogram::new();
        for (cell, telem) in self.reports.iter().zip(&self.telemetry) {
            let report = cell.lock().unwrap_or_else(PoisonError::into_inner).clone();
            stats.requests += report.requests;
            stats.predictions += report.step.predictions;
            stats.batches += report.batches;
            stats.max_batch = stats.max_batch.max(report.max_batch);
            stats.per_shard_requests.push(report.requests);
            stats.per_shard_streams.push(report.resident_streams);
            stats.stream_evictions += report.stream_evictions;
            stats.stream_retirements += report.stream_retirements;
            stats.per_shard_token_rows_computed.push(report.step.token_rows_computed);
            stats.per_shard_token_rows_reused.push(report.step.token_rows_reused);
            latency.merge(&report.latency);
            stats.batch_sizes.merge(&telem.batch_size.snapshot());
            stats.stage_queue_wait.merge(&telem.queue_wait.snapshot());
            stats.stage_coalesce.merge(&telem.coalesce.snapshot());
            stats.stage_kernel.merge(&telem.kernel.snapshot());
            stats.stage_sink.merge(&telem.sink.snapshot());
        }
        for q in &self.queues {
            stats.queue_depth += q.depth();
        }
        let sink_state = self.sink.lock();
        stats.failed = sink_state.failed;
        stats.in_flight = sink_state.in_flight;
        stats.worker_panics = sink_state.worker_panics.clone();
        drop(sink_state);
        // Versioned-model observability: the active version, the swap /
        // rollback counters, and how far each shard's worker has adopted.
        stats.model_version = self.registry.active_version();
        let counters = self.registry.counters();
        stats.model_swaps = counters.swaps;
        stats.model_rollbacks = counters.rollbacks;
        stats.per_shard_model_version = self.registry.slot().adopted_epochs();
        stats.p50_latency_ns = latency.percentile(0.50);
        stats.p99_latency_ns = latency.percentile(0.99);
        stats.mean_latency_ns = latency.mean();
        stats.latency = latency;
        stats.uptime_ns = self.started.elapsed().as_nanos() as u64;
        stats
    }

    /// Stop the workers (after finishing all queued work) and return
    /// aggregate statistics — the same aggregation `stats_snapshot`
    /// serves live. Safe to call after a worker panic: the panic was
    /// already caught and converted into failure responses, and the
    /// message is surfaced in [`ServeStats::worker_panics`]. Even a join
    /// error — the recovery handler *itself* died — is recorded there
    /// instead of being discarded, and the shard's served statistics still
    /// come through: workers commit them per batch into a cell the runtime
    /// holds, so neither the second panic nor the (possibly poisoned) cell
    /// lock loses them.
    pub fn shutdown(mut self) -> ServeStats {
        for q in &self.queues {
            q.shutdown();
        }
        let mut join_panics: Vec<(usize, String)> = Vec::new();
        for (shard_id, handle) in std::mem::take(&mut self.workers).into_iter().enumerate() {
            if let Err(payload) = handle.join() {
                // The worker's own panic handler died (its panic was
                // caught; this one escaped). The shard's stats below are
                // intact — committed per batch — but the panic itself must
                // not vanish with the thread.
                let msg = panic_message(payload.as_ref());
                join_panics
                    .push((shard_id, format!("shard worker died in its panic handler: {msg}")));
            }
        }
        let mut stats = self.collect_stats();
        stats.worker_panics.extend(join_panics);
        stats
    }
}

/// Best-effort extraction of a panic payload's message (the two payload
/// types `panic!` produces, with a fallback for exotic ones).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.shards >= 1);
        assert!(cfg.max_batch >= 1);
        assert!((0.0..=1.0).contains(&cfg.threshold));
        assert!(cfg.span_capacity > 0, "span ring should be on by default (cheap, bounded)");
    }

    /// A poisoned report cell still holds whole committed batches: both
    /// the live snapshot and the final statistics read through the poison,
    /// and the worker keeps committing into it.
    #[test]
    fn a_poisoned_report_cell_keeps_its_shards_numbers() {
        let pre = crate::loadgen::drill_pre();
        let cfg = ServeConfig { shards: 1, ..ServeConfig::default() };
        let runtime = ServeRuntime::start(crate::loadgen::drill_model(&pre, 3), pre, cfg);
        let serve = |from: u64| {
            for k in from..from + 10 {
                runtime.submit(PrefetchRequest { stream_id: 1, pc: 0x10, addr: (300 + k) << 6 });
            }
            runtime.wait_idle();
        };
        serve(0);

        let cell = Arc::clone(&runtime.reports[0]);
        let poisoner = std::thread::spawn(move || {
            let _held = cell.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the report cell");
        });
        assert!(poisoner.join().is_err());
        assert!(runtime.reports[0].lock().is_err(), "the cell must be poisoned");

        let live = runtime.stats_snapshot();
        assert_eq!(live.requests, 10);
        assert_eq!(live.latency.count(), 10);
        serve(10);
        let stats = runtime.shutdown();
        assert_eq!(stats.requests, 20, "the worker commits through the poison too");
        assert_eq!(stats.latency.count(), 20);
        assert!(stats.worker_panics.is_empty());
    }

    #[test]
    fn default_stats_are_empty_and_consistent() {
        let stats = ServeStats::default();
        assert_eq!(stats.mean_batch(), 0.0);
        assert_eq!(stats.latency.count(), stats.requests);
        assert_eq!(stats.batch_sizes.count(), stats.batches);
        assert_eq!(stats.stage_queue_wait.count(), 0);
    }
}
