//! Shard worker: queue, batch coalescing, and batched prediction.

use dart_telemetry::lockcheck::{named_mutex, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use dart_core::{StepCounters, StreamEngine};
use dart_telemetry::{AtomicHistogram, Gauge, Histogram, SpanRecord, SpanRing};

use crate::lru::StreamLru;
use crate::request::PrefetchResponse;
use crate::shadow::{ReplaySample, ReplaySampler};
use crate::slot::ModelHandle;

/// A request plus its enqueue timestamp (for latency accounting) and the
/// lane its response — served or failed — goes back to.
pub(crate) struct Envelope {
    pub req: crate::request::PrefetchRequest,
    pub enqueued: Instant,
    pub lane: Arc<CompletionLane>,
}

/// The mutex+condvar request queue feeding one shard worker.
///
/// Capacity is bounded by `ServeConfig::queue_capacity`. Producers have
/// two ways in: [`Self::push`]/[`Self::push_all`] **block** while the
/// queue is full (in-process submitters), while [`Self::try_push`] fails
/// fast with the current depth (the network front-end turns that into a
/// protocol NACK instead of ever blocking an IO thread).
pub(crate) struct ShardQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    /// Producer-side condvar: blocked `push`/`push_all` callers wait here
    /// for space. Woken by `pop_batch` (space freed) AND by
    /// `shutdown`/`poison` — a producer parked on a full queue whose
    /// worker dies must wake and fail fast with the worker's panic
    /// message, never sleep forever.
    space: Condvar,
    /// Maximum queued envelopes (`usize::MAX` = unbounded).
    capacity: usize,
    /// Live queue depth, mirrored from `pending.len()` on every
    /// push/drain. A lock-free cell so `stats_snapshot` reads it without
    /// contending for the hot-path queue mutex.
    depth: Gauge,
}

/// Why [`ShardQueue::try_push`] bounced an envelope.
pub(crate) enum TryPushError {
    /// The queue is at capacity; `depth` is its length at rejection time
    /// (what a protocol NACK carries back to the client).
    Full { depth: u64 },
    /// The queue is shut down or its worker died; the caller must fail
    /// the envelope with this reason.
    Closed(Arc<str>),
}

struct QueueInner {
    pending: VecDeque<Envelope>,
    shutdown: bool,
    /// Set when the shard worker died (panicked): the queue will never be
    /// drained again, so pushes must be rejected back to the caller.
    dead: Option<Arc<str>>,
}

impl QueueInner {
    /// Why a push must be rejected right now, if it must be.
    fn reject_reason(&self) -> Option<Arc<str>> {
        if let Some(reason) = &self.dead {
            return Some(Arc::clone(reason));
        }
        if self.shutdown {
            return Some(Arc::from("shard queue already shut down"));
        }
        None
    }
}

impl ShardQueue {
    pub fn new(capacity: usize) -> ShardQueue {
        ShardQueue {
            inner: named_mutex(
                "serve.shard_queue",
                QueueInner { pending: VecDeque::new(), shutdown: false, dead: None },
            ),
            cv: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            depth: Gauge::new(),
        }
    }

    /// Requests currently queued (not yet drained by the worker).
    /// Lock-free read of the mirrored depth gauge; clamped at 0 against
    /// transient push/drain interleavings.
    pub fn depth(&self) -> u64 {
        self.depth.get().max(0) as u64
    }

    /// Lock the queue, recovering from mutex poisoning: a panicking worker
    /// must not turn every later producer into a confusing `PoisonError`
    /// unwrap — the queue state is a plain FIFO and stays consistent.
    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue one request, **blocking while the queue is full**. After
    /// [`Self::shutdown`] or [`Self::poison`] the envelope is handed back
    /// with the reason instead: a request pushed into a queue no worker
    /// will drain again must be failed by the caller, never silently
    /// dropped. A producer parked here when the worker dies is woken by
    /// `poison`'s `space` notification and gets the rejection, so it can
    /// never hang on a dead shard.
    pub fn push(&self, env: Envelope) -> Result<(), (Vec<Envelope>, Arc<str>)> {
        let mut inner = self.lock();
        loop {
            if let Some(reason) = inner.reject_reason() {
                return Err((vec![env], reason));
            }
            if inner.pending.len() < self.capacity {
                break;
            }
            inner = self.space.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        let was_empty = inner.pending.is_empty();
        inner.pending.push_back(env);
        self.depth.add(1);
        drop(inner);
        if was_empty {
            self.cv.notify_one();
        }
        Ok(())
    }

    /// Enqueue one request **without ever blocking**: a full queue comes
    /// back as [`TryPushError::Full`] with the depth at rejection time.
    /// This is the network front-end's entry point — a full bounded shard
    /// queue becomes a protocol NACK carrying that depth, instead of a
    /// blocked socket thread.
    pub fn try_push(&self, env: Envelope) -> Result<(), (Envelope, TryPushError)> {
        let mut inner = self.lock();
        if let Some(reason) = inner.reject_reason() {
            return Err((env, TryPushError::Closed(reason)));
        }
        if inner.pending.len() >= self.capacity {
            let depth = inner.pending.len() as u64;
            return Err((env, TryPushError::Full { depth }));
        }
        let was_empty = inner.pending.is_empty();
        inner.pending.push_back(env);
        self.depth.add(1);
        drop(inner);
        if was_empty {
            self.cv.notify_one();
        }
        Ok(())
    }

    /// Enqueue many requests, blocking in chunks while the queue is full;
    /// same rejection contract as [`Self::push`]. If the queue dies while
    /// a chunk is parked, the **not-yet-queued tail** is handed back
    /// (envelopes already queued are drained and failed by the poisoner),
    /// so every envelope is accounted exactly once either way.
    pub fn push_all(&self, envs: Vec<Envelope>) -> Result<(), (Vec<Envelope>, Arc<str>)> {
        let mut envs: VecDeque<Envelope> = envs.into();
        let mut inner = self.lock();
        while !envs.is_empty() {
            if let Some(reason) = inner.reject_reason() {
                return Err((envs.into_iter().collect(), reason));
            }
            let room = self.capacity.saturating_sub(inner.pending.len());
            if room == 0 {
                inner = self.space.wait(inner).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let take = room.min(envs.len());
            let was_empty = inner.pending.is_empty();
            inner.pending.extend(envs.drain(..take));
            self.depth.add(take as i64);
            if was_empty {
                self.cv.notify_one();
            }
        }
        Ok(())
    }

    /// Block until work or shutdown; drain up to `max_batch` requests.
    /// Returns `None` when shut down with an empty queue — envelopes that
    /// were already queued when `shutdown()` landed keep draining until
    /// the queue is empty, so they are always answered.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<Envelope>> {
        let mut inner = self.lock();
        while inner.pending.is_empty() && !inner.shutdown {
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        if inner.pending.is_empty() {
            return None; // shutdown
        }
        let n = inner.pending.len().min(max_batch.max(1));
        self.depth.sub(n as i64);
        let batch = inner.pending.drain(..n).collect();
        drop(inner);
        // Space was freed: wake every producer parked on the full queue
        // (notify_all — several may fit into the drained room).
        self.space.notify_all();
        Some(batch)
    }

    /// Mark the queue shut down and wake the worker **and** any producers
    /// parked on a full queue (they get the shutdown rejection).
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
        self.space.notify_all();
    }

    /// Mark the queue dead (its worker panicked): refuse all future
    /// pushes with `reason` and hand back everything still queued so the
    /// caller can fail those envelopes.
    ///
    /// Wakes producers parked on the full queue too: a dead worker never
    /// frees space again, so a submitter blocked in
    /// `ServeRuntime::submit`'s full-queue wait must wake, see the death
    /// reason, and fail fast with the worker's panic message.
    pub fn poison(&self, reason: &str) -> Vec<Envelope> {
        let mut inner = self.lock();
        inner.shutdown = true;
        inner.dead = Some(Arc::from(reason));
        let drained: Vec<Envelope> = inner.pending.drain(..).collect();
        self.depth.sub(drained.len() as i64);
        drop(inner);
        self.cv.notify_all();
        self.space.notify_all();
        drained
    }
}

/// Cross-thread stream-retirement requests for one shard.
///
/// A shard worker owns its [`StreamLru`] locally, so other threads
/// cannot evict dead streams directly. Instead they push
/// the doomed namespace here; the worker drains the cell at the top of
/// each batch iteration, **before** serving, so a batch's new streams
/// see the freed residency. Draining is lazy by design: retired streams
/// can only displace live ones when new traffic arrives, and new
/// traffic is exactly what wakes the worker.
pub(crate) struct RetireCell {
    /// Fast-path flag so the worker loop pays one relaxed load per batch
    /// when nothing is pending (the common case — disconnects are rare).
    flagged: std::sync::atomic::AtomicBool,
    prefixes: Mutex<Vec<u32>>,
}

impl Default for RetireCell {
    fn default() -> RetireCell {
        RetireCell {
            flagged: std::sync::atomic::AtomicBool::new(false),
            prefixes: named_mutex("serve.retire", Vec::new()),
        }
    }
}

impl RetireCell {
    /// Ask the owning worker to retire every stream namespaced under
    /// `prefix` (upper 32 bits of the stream id).
    pub fn push(&self, prefix: u32) {
        self.prefixes.lock().unwrap_or_else(PoisonError::into_inner).push(prefix);
        // Release pairs with the worker's acquire load: the prefix push
        // above must be visible once the flag is.
        self.flagged.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Drain pending retirements into the worker's LRU. Returns how many
    /// streams were actually removed.
    fn drain_into(&self, streams: &mut StreamLru) -> usize {
        if !self.flagged.load(std::sync::atomic::Ordering::Acquire) {
            return 0;
        }
        let prefixes: Vec<u32> = {
            let mut list = self.prefixes.lock().unwrap_or_else(PoisonError::into_inner);
            self.flagged.store(false, std::sync::atomic::Ordering::Relaxed);
            list.drain(..).collect()
        };
        prefixes.into_iter().map(|p| streams.retire_prefix(p)).sum()
    }
}

/// A mailbox of finished responses with exactly one consumer: whoever
/// opened the lane submits through it
/// ([`crate::ServeRuntime::try_submit_on`]) and is the only one who takes
/// from it. Shard workers deliver each served batch with one lock per
/// lane, and every failure path (worker panic, poisoned queue, dead-shard
/// submit) answers on the lane the request came in on. The runtime's own
/// `submit`/`drain_completed` family is simply its built-in default lane.
pub struct CompletionLane {
    mailbox: Mutex<Vec<PrefetchResponse>>,
    /// Wakes blocked [`Self::take_timeout_into`] callers.
    nonempty: Condvar,
    /// Owed each time a delivery takes the mailbox empty → non-empty, and
    /// run by the delivering thread outside every lock, after the
    /// delivery's in-flight slots are released ([`Wakeups`]). The edge is
    /// read under the mailbox lock — the `was_empty` idiom of
    /// [`ShardQueue::push`] — so there is no dedupe flag to go stale.
    on_ready: Box<dyn Fn() + Send + Sync>,
}

impl CompletionLane {
    /// Open a lane whose consumer is notified through `on_ready` each
    /// time the mailbox becomes non-empty (pass `|| {}` to poll or block
    /// on [`Self::take_timeout_into`] instead) — the network front-end
    /// pokes its poller from it.
    ///
    /// `on_ready` runs on the delivering thread — the shard worker, or
    /// whoever failed the request — after the batch's responses are in
    /// their mailboxes and its in-flight slots are released. It must not
    /// block: a blocked callback parks the shard worker
    /// ([`crate::loadgen::hold_shard`] does exactly that, on purpose). A
    /// panic in it counts as a worker panic — the shard dies, its queue is
    /// failed and the panic is recorded — and every response is still
    /// delivered exactly once.
    pub fn new(on_ready: impl Fn() + Send + Sync + 'static) -> Arc<CompletionLane> {
        Arc::new(CompletionLane {
            mailbox: named_mutex("serve.lane", Vec::new()),
            nonempty: Condvar::new(),
            on_ready: Box::new(on_ready),
        })
    }

    /// Lock the mailbox, recovering from poisoning (a plain response
    /// list stays consistent whatever panicked while holding it).
    fn lock(&self) -> MutexGuard<'_, Vec<PrefetchResponse>> {
        self.mailbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `responses` under one lock and wake blocked takers. Returns
    /// whether the mailbox went empty → non-empty, i.e. whether the ready
    /// callback is now owed.
    fn append(&self, mut responses: Vec<PrefetchResponse>) -> bool {
        let mut mailbox = self.lock();
        let was_empty = mailbox.is_empty();
        mailbox.append(&mut responses);
        drop(mailbox);
        if was_empty {
            self.nonempty.notify_all();
        }
        was_empty
    }

    /// Take everything delivered so far into `out` (cleared first) by
    /// swapping buffers: the lane keeps an allocation to refill, and a
    /// consumer pumping this in a loop reuses one too.
    pub fn take_into(&self, out: &mut Vec<PrefetchResponse>) {
        out.clear();
        std::mem::swap(&mut *self.lock(), out);
    }

    /// [`Self::take_into`], but first blocking until at least one
    /// response is available or `timeout` elapses (`out` left empty).
    pub fn take_timeout_into(&self, timeout: std::time::Duration, out: &mut Vec<PrefetchResponse>) {
        out.clear();
        let deadline = Instant::now() + timeout;
        let mut mailbox = self.lock();
        while mailbox.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _timed_out) = self
                .nonempty
                .wait_timeout(mailbox, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            mailbox = guard;
        }
        std::mem::swap(&mut *mailbox, out);
    }
}

/// The ready callbacks one delivery owes: the lanes whose mailbox it took
/// from empty to non-empty. Run only after the delivery's in-flight slots
/// are released, so a callback that blocks or panics can strand neither a
/// response nor a slot.
#[must_use = "owed ready callbacks must be run"]
struct Wakeups<'a>(Vec<&'a CompletionLane>);

impl Wakeups<'_> {
    /// Run every owed callback, each under `catch_unwind` so a panicking
    /// one cannot skip the rest; the first panic comes back to the caller.
    fn run(self) -> std::thread::Result<()> {
        let mut first = Ok(());
        for lane in self.0 {
            first = first.and(catch_unwind(AssertUnwindSafe(|| (lane.on_ready)())));
        }
        first
    }
}

/// Hand `responses` (one per envelope of `batch`, same order) to the
/// lanes that submitted them: one lock per (batch, lane), each lane's
/// responses in batch order. The ready callbacks this owes come back
/// unrun.
fn deliver(batch: &[Envelope], responses: Vec<PrefetchResponse>) -> Wakeups<'_> {
    debug_assert_eq!(batch.len(), responses.len());
    let mut groups: Vec<(&Arc<CompletionLane>, Vec<PrefetchResponse>)> = Vec::new();
    for (env, resp) in batch.iter().zip(responses) {
        match groups.iter_mut().find(|(lane, _)| Arc::ptr_eq(lane, &env.lane)) {
            Some((_, group)) => group.push(resp),
            None => {
                // Sized for the common case: the whole batch is one lane's.
                let mut group = Vec::with_capacity(batch.len());
                group.push(resp);
                groups.push((&env.lane, group));
            }
        }
    }
    let mut ready = Vec::new();
    for (lane, group) in groups {
        if lane.append(group) {
            ready.push(&**lane);
        }
    }
    Wakeups(ready)
}

/// The runtime-wide completion accounting: the in-flight counter that
/// [`crate::ServeRuntime::wait_idle`] blocks on, and the failure record.
/// Responses themselves land in the submitter's [`CompletionLane`],
/// always **before** their in-flight slots are released here — so a
/// `wait_idle` that returns has every response already takeable — and the
/// lanes' ready callbacks run only after that release.
pub(crate) struct CompletionSink {
    pub state: Mutex<SinkState>,
    pub cv: Condvar,
}

pub(crate) struct SinkState {
    pub in_flight: u64,
    /// Failure responses delivered so far (worker panics, dead-shard
    /// submissions).
    pub failed: u64,
    /// `(shard_id, panic message)` of every shard worker that died.
    pub worker_panics: Vec<(usize, String)>,
}

impl CompletionSink {
    pub fn new() -> CompletionSink {
        CompletionSink {
            state: named_mutex(
                "serve.sink",
                SinkState { in_flight: 0, failed: 0, worker_panics: Vec::new() },
            ),
            cv: Condvar::new(),
        }
    }

    /// Lock the sink state, recovering from mutex poisoning. A shard
    /// worker that panics while holding this lock must not cascade into
    /// `PoisonError` panics at every later lock site — the state is plain
    /// counters and stays consistent.
    pub fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Release the in-flight slots of `n` requests whose responses are
    /// already in their lanes (`failed`: they were failure responses),
    /// and wake `wait_idle`/`wait_below` callers.
    pub fn release(&self, n: u64, failed: bool) {
        let mut state = self.lock();
        debug_assert!(state.in_flight >= n, "in-flight accounting underflow");
        state.in_flight -= n;
        if failed {
            state.failed += n;
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Deliver a **failure** response for each envelope to the lane that
    /// submitted it and release its in-flight slot, so
    /// `wait_idle`/`wait_below` callers can never hang on a request no
    /// worker will ever serve. The lanes' ready callbacks run last; the
    /// first one to panic is re-raised once all of them have run.
    pub fn fail_requests(&self, shard: usize, envs: &[Envelope], reason: &str) {
        if let Err(payload) = self.fail_requests_caught(shard, envs, reason) {
            std::panic::resume_unwind(payload);
        }
    }

    /// [`Self::fail_requests`], handing a ready callback's panic back
    /// instead of raising it.
    fn fail_requests_caught(
        &self,
        shard: usize,
        envs: &[Envelope],
        reason: &str,
    ) -> std::thread::Result<()> {
        if envs.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        let responses = envs
            .iter()
            .map(|env| PrefetchResponse {
                stream_id: env.req.stream_id,
                seq: u64::MAX,
                shard,
                prefetch_blocks: Vec::new(),
                latency_ns: now.duration_since(env.enqueued).as_nanos() as u64,
                error: Some(reason.to_string()),
            })
            .collect();
        let wakeups = deliver(envs, responses);
        self.release(envs.len() as u64, true);
        wakeups.run()
    }

    /// Record a dead worker's panic message (surfaced by
    /// `ServeRuntime::worker_panics` and `ServeStats::worker_panics`).
    pub fn record_worker_panic(&self, shard: usize, message: String) {
        self.lock().worker_panics.push((shard, message));
        self.cv.notify_all();
    }
}

/// Unwind guard armed around one popped batch: if the worker panics
/// before delivering the batch's responses, the guard fails every
/// envelope of the batch (error response + in-flight release) instead of
/// leaking its `in_flight` slots and hanging `wait_idle` forever.
struct BatchGuard<'a> {
    sink: &'a CompletionSink,
    shard: usize,
    batch: &'a [Envelope],
    armed: bool,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // An armed guard only drops while the worker unwinds: a ready
            // callback's panic is swallowed here — raising it would abort
            // the process, and the panic already unwinding is the one the
            // recovery handler records.
            let _ = self.sink.fail_requests_caught(
                self.shard,
                self.batch,
                "shard worker panicked while serving this batch",
            );
        }
    }
}

/// Per-shard serving statistics, committed whole-batch under the report
/// cell's lock so any clone of the cell is internally consistent
/// (`latency.count() == requests`, `step.predictions <= requests`). Backs both
/// `ServeRuntime::stats_snapshot` (live) and `shutdown` (final) through
/// the same aggregation path.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardReport {
    pub requests: u64,
    pub batches: u64,
    pub max_batch: usize,
    /// Streams resident in the shard's LRU map as of the last served
    /// batch (always `<= ServeConfig::max_streams_per_shard`).
    pub resident_streams: usize,
    /// Streams evicted by the LRU cap so far.
    pub stream_evictions: u64,
    /// Streams explicitly retired (dead-connection cleanup via
    /// [`RetireCell`]) so far.
    pub stream_retirements: u64,
    /// Predictions and token rows computed / reused by this shard's steps.
    pub step: StepCounters,
    /// Request latency (queue + inference), log2-bucketed
    /// ([`dart_telemetry::Histogram`], promoted out of this module).
    pub latency: Histogram,
}

/// Lock-free per-shard lifecycle metric cells, recorded by the worker
/// without taking any lock and snapshot by `stats_snapshot` at any time.
///
/// Four `Instant` stamps per batch feed the stage histograms; `queue_wait`
/// takes one relaxed atomic add per request, every other cell one per
/// coalesced batch.
#[derive(Debug, Default)]
pub(crate) struct ShardTelemetry {
    /// Enqueue → drained by the worker, per request, nanoseconds.
    pub queue_wait: AtomicHistogram,
    /// Drain → the batch's step begins (batch guard, model adoption), per
    /// batch, nanoseconds.
    pub coalesce: AtomicHistogram,
    /// The step: feature rows, `encode_tokens`, stream updates,
    /// `predict_tokens` and emission, per batch, nanoseconds.
    pub kernel: AtomicHistogram,
    /// Predictions → responses delivered to their completion lanes, per
    /// batch, nanoseconds.
    pub sink: AtomicHistogram,
    /// Coalesced batch-size distribution (per batch, in requests).
    pub batch_size: AtomicHistogram,
}

/// One shard: owns its streams' history state and a versioned handle
/// into the shared [`crate::ModelSlot`].
pub(crate) struct ShardWorker {
    pub shard_id: usize,
    /// Versioned model view: re-checked once per batch boundary (one
    /// atomic load when nothing changed), so hot-swapped versions are
    /// adopted between batches and a batch never observes a torn model.
    pub model: ModelHandle,
    /// The step every drained batch runs, and its scratch.
    pub engine: StreamEngine,
    pub max_batch: usize,
    /// Resident-stream cap of this shard's LRU state map
    /// (`ServeConfig::max_streams_per_shard`).
    pub max_streams: usize,
    /// Dead-stream retirement requests from other threads (the runtime
    /// holds the other reference); drained before each served batch.
    pub retire: Arc<RetireCell>,
    /// This shard's lock-free lifecycle metric cells (the runtime holds
    /// the other reference and snapshots them live).
    pub telemetry: Arc<ShardTelemetry>,
    /// Shared ring of recent request spans (capacity 0 = disabled), pushed
    /// to once per served batch.
    pub spans: Arc<SpanRing>,
    /// Live-traffic replay sampler feeding the shadow retrainer
    /// (`ServeConfig::replay_capacity > 0`); one bulk push per served
    /// batch. `None` disables sampling entirely.
    pub replay: Option<Arc<ReplaySampler>>,
}

impl ShardWorker {
    /// Worker loop, until the queue shuts down: drain a batch, run it as
    /// one [`StreamEngine::step`] over the shard's streams, respond.
    ///
    /// Statistics land in the shared `report` cell once per batch (after
    /// that batch's responses are final), so a worker that panics later
    /// loses at most the dying batch's numbers — everything it served
    /// before the panic stays counted in `ServeStats`.
    pub fn run(
        mut self,
        queue: Arc<ShardQueue>,
        sink: Arc<CompletionSink>,
        report: Arc<Mutex<ShardReport>>,
    ) {
        // Bounded per-stream state: at most `max_streams` resident, LRU
        // eviction beyond that (see `crate::lru` for why an evicted stream
        // re-warms from scratch).
        let mut streams = StreamLru::new(self.max_streams);

        while let Some(batch) = queue.pop_batch(self.max_batch) {
            // Dead-connection cleanup first, so this batch's new streams
            // see the freed residency instead of evicting live ones.
            self.retire.drain_into(&mut streams);
            // Lifecycle tracing stamp 1 of 4 (drained, stepping,
            // predicted, delivered).
            let t_drained = Instant::now();
            // If anything below unwinds, the guard converts this batch
            // into failure responses so its in-flight slots are released.
            let mut batch_guard =
                BatchGuard { sink: &sink, shard: self.shard_id, batch: &batch, armed: true };
            // Batch-boundary model adoption, deliberately AFTER arming the
            // guard: if adopting a hot-swapped version panics, the batch
            // fails cleanly — its in-flight slots are released — instead
            // of leaking. The adopted `Arc` serves this whole batch: a
            // swap landing mid-batch is picked up at the next boundary,
            // never torn.
            let model = Arc::clone(self.model.current());
            let epoch = self.model.epoch();

            let t_stepping = Instant::now();
            let accesses = batch.iter().map(|env| (env.req.stream_id, env.req.block(), env.req.pc));
            let answers = self.engine.step(&model, epoch, &mut streams, accesses);
            let t_predicted = Instant::now();

            // Assemble the responses, then deliver. All fallible work is
            // done; disarm before taking any lock so the guard's Drop can
            // never re-lock the sink from this thread. Commit this batch's
            // statistics only now that its responses are final: a panic
            // earlier in the batch loses at most the dying batch's numbers.
            let responses: Vec<PrefetchResponse> = answers
                .zip(&batch)
                .map(|((seq, prefetch_blocks), env)| PrefetchResponse {
                    stream_id: env.req.stream_id,
                    seq,
                    shard: self.shard_id,
                    prefetch_blocks,
                    latency_ns: t_predicted.duration_since(env.enqueued).as_nanos() as u64,
                    error: None,
                })
                .collect();
            batch_guard.armed = false;
            {
                let mut r = report.lock().unwrap_or_else(PoisonError::into_inner);
                r.batches += 1;
                r.max_batch = r.max_batch.max(batch.len());
                r.requests += batch.len() as u64;
                r.resident_streams = streams.len();
                r.stream_evictions = streams.evictions();
                r.stream_retirements = streams.retirements();
                r.step = self.engine.counters();
                for resp in &responses {
                    r.latency.record(resp.latency_ns);
                }
            }
            // Span identities must be captured before the responses move
            // into the sink (only needed when the ring records anything).
            let span_ids: Option<Vec<(u64, u64)>> = (self.spans.capacity() > 0)
                .then(|| responses.iter().map(|r| (r.stream_id, r.seq)).collect());
            let wakeups = deliver(&batch, responses);

            // Lifecycle telemetry — lock-free cells, then one span-ring
            // lock for the whole batch — recorded between delivery and
            // the in-flight release: the responses are already in their
            // mailboxes, and a `wait_idle` that returns sees every served
            // batch's samples (as it does the report cell's counters).
            let t_delivered = Instant::now();
            let queue_wait_ns =
                |env: &Envelope| t_drained.duration_since(env.enqueued).as_nanos() as u64;
            let coalesce_ns = t_stepping.duration_since(t_drained).as_nanos() as u64;
            let kernel_ns = t_predicted.duration_since(t_stepping).as_nanos() as u64;
            let sink_ns = t_delivered.duration_since(t_predicted).as_nanos() as u64;
            self.telemetry.batch_size.record(batch.len() as u64);
            self.telemetry.coalesce.record(coalesce_ns);
            self.telemetry.kernel.record(kernel_ns);
            self.telemetry.sink.record(sink_ns);
            for env in &batch {
                self.telemetry.queue_wait.record(queue_wait_ns(env));
            }
            if let Some(ids) = span_ids {
                self.spans.push_batch(batch.iter().zip(ids).map(|(env, (stream_id, seq))| {
                    SpanRecord {
                        stream_id,
                        seq,
                        shard: self.shard_id,
                        batch_size: batch.len(),
                        queue_wait_ns: queue_wait_ns(env),
                        coalesce_ns,
                        kernel_ns,
                        sink_ns,
                    }
                }));
            }
            sink.release(batch.len() as u64, false);
            // Ready callbacks last: one that panics finds this batch
            // answered and released, so re-raising it is an ordinary
            // worker death between batches.
            if let Err(payload) = wakeups.run() {
                std::panic::resume_unwind(payload);
            }

            // Feed the shadow retrainer's replay window (one bulk push per
            // batch, after the responses are already delivered — sampling
            // adds nothing to request latency). Arrival order within the
            // batch is preserved, which is what keeps per-stream replay
            // traces meaningful.
            if let Some(sampler) = &self.replay {
                sampler.push_batch(batch.iter().map(|env| ReplaySample {
                    stream_id: env.req.stream_id,
                    pc: env.req.pc,
                    addr: env.req.addr,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_trace::PreprocessConfig;

    fn env_on(lane: &Arc<CompletionLane>, stream_id: u64) -> Envelope {
        Envelope {
            req: crate::request::PrefetchRequest { stream_id, pc: 0, addr: stream_id << 6 },
            enqueued: Instant::now(),
            lane: Arc::clone(lane),
        }
    }

    fn env_for(stream_id: u64) -> Envelope {
        env_on(&CompletionLane::new(|| {}), stream_id)
    }

    #[test]
    fn queue_drains_in_order_and_respects_max_batch() {
        let q = ShardQueue::new(usize::MAX);
        for i in 0..5u64 {
            assert!(q.push(env_for(i)).is_ok());
        }
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].req.stream_id, 0);
        assert_eq!(batch[2].req.stream_id, 2);
        let rest = q.pop_batch(16).unwrap();
        assert_eq!(rest.len(), 2);
        q.shutdown();
        assert!(q.pop_batch(16).is_none());
    }

    #[test]
    fn envelopes_queued_at_shutdown_still_drain() {
        // Requests already queued when `shutdown()` lands keep draining:
        // the worker answers them before `pop_batch` reports `None`.
        let q = ShardQueue::new(usize::MAX);
        for i in 0..7u64 {
            assert!(q.push(env_for(i)).is_ok());
        }
        q.shutdown();
        let first = q.pop_batch(4).expect("queued work must survive shutdown");
        assert_eq!(first.len(), 4);
        let rest = q.pop_batch(4).expect("tail must survive shutdown too");
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[2].req.stream_id, 6, "drain order broken across shutdown");
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn push_after_shutdown_is_rejected_not_dropped() {
        // No worker will ever drain a push that lands after shutdown, so
        // it must come back to the caller: an envelope (and its in-flight
        // slot) may never just vanish.
        let q = ShardQueue::new(usize::MAX);
        q.shutdown();
        let (rejected, reason) = q.push(env_for(9)).expect_err("push must be rejected");
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].req.stream_id, 9);
        assert!(reason.contains("shut down"), "unhelpful reason: {reason}");
        let (batch_rejected, _) =
            q.push_all(vec![env_for(1), env_for(2)]).expect_err("push_all must be rejected");
        assert_eq!(batch_rejected.len(), 2);
        assert!(q.pop_batch(8).is_none(), "rejected envelopes must not linger in the queue");
    }

    #[test]
    fn poison_drains_pending_and_rejects_future_pushes() {
        let q = ShardQueue::new(usize::MAX);
        assert!(q.push(env_for(1)).is_ok());
        assert!(q.push(env_for(2)).is_ok());
        let leaked = q.poison("shard 0 worker panicked: boom");
        assert_eq!(leaked.len(), 2, "poison must hand queued envelopes back");
        let (_, reason) = q.push(env_for(3)).expect_err("dead queue must reject");
        assert!(reason.contains("boom"), "original panic lost: {reason}");
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn fail_requests_releases_in_flight_and_answers_on_the_submitting_lane() {
        let sink = CompletionSink::new();
        sink.lock().in_flight = 4;
        let (a, b) = (CompletionLane::new(|| {}), CompletionLane::new(|| {}));
        // Interleaved lanes: each gets its own failures, in batch order.
        let envs = [env_on(&a, 7), env_on(&b, 8), env_on(&a, 9)];
        sink.fail_requests(1, &envs, "worker died");
        let state = sink.lock();
        assert_eq!(state.in_flight, 1);
        assert_eq!(state.failed, 3);
        drop(state);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.take_into(&mut got_a);
        b.take_into(&mut got_b);
        assert_eq!(got_a.iter().map(|r| r.stream_id).collect::<Vec<_>>(), [7, 9]);
        assert_eq!(got_b.iter().map(|r| r.stream_id).collect::<Vec<_>>(), [8]);
        for resp in got_a.iter().chain(&got_b) {
            assert_eq!(resp.shard, 1);
            assert_eq!(resp.seq, u64::MAX);
            assert!(resp.prefetch_blocks.is_empty());
            assert_eq!(resp.error.as_deref(), Some("worker died"));
        }
    }

    #[test]
    fn ready_callback_fires_per_empty_to_nonempty_edge_not_per_batch() {
        let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let count = Arc::clone(&fired);
        let lane = CompletionLane::new(move || {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        let fired = || fired.load(std::sync::atomic::Ordering::SeqCst);
        let sink = CompletionSink::new();
        sink.lock().in_flight = 6;
        let batch = |ids: [u64; 2]| ids.map(|id| env_on(&lane, id));

        // Three batches onto an untaken mailbox: one edge, one callback.
        sink.fail_requests(0, &batch([1, 2]), "x");
        sink.fail_requests(0, &batch([3, 4]), "x");
        assert_eq!(fired(), 1, "a second batch onto a non-empty mailbox must not re-fire");
        let mut out = Vec::new();
        lane.take_into(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(fired(), 1, "taking fires nothing");
        // Emptied by the take: the next delivery is a fresh edge.
        sink.fail_requests(0, &batch([5, 6]), "x");
        assert_eq!(fired(), 2);
        // A blocking take sees it without waiting out the timeout.
        lane.take_timeout_into(std::time::Duration::from_secs(30), &mut out);
        assert_eq!(out.iter().map(|r| r.stream_id).collect::<Vec<_>>(), [5, 6]);
        lane.take_timeout_into(std::time::Duration::from_millis(1), &mut out);
        assert!(out.is_empty(), "timeout leaves the buffer empty");
    }

    /// Everything a lane has received so far, as stream ids.
    fn taken_ids(lane: &CompletionLane) -> Vec<u64> {
        let mut out = Vec::new();
        lane.take_into(&mut out);
        out.iter().map(|r| r.stream_id).collect()
    }

    #[test]
    fn a_panicking_ready_callback_is_raised_after_every_slot_is_released() {
        let sink = Arc::new(CompletionSink::new());
        sink.lock().in_flight = 3;
        // The plain lane's callback reports the in-flight count it sees.
        let (seen_tx, seen) = std::sync::mpsc::channel();
        let observer = Arc::clone(&sink);
        let doomed = CompletionLane::new(|| panic!("callback blew up"));
        let plain = CompletionLane::new(move || seen_tx.send(observer.lock().in_flight).unwrap());
        let envs = [env_on(&doomed, 1), env_on(&plain, 2), env_on(&doomed, 3)];

        let raised = catch_unwind(AssertUnwindSafe(|| sink.fail_requests(0, &envs, "x")));
        let payload = raised.expect_err("the callback's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"callback blew up"));
        assert_eq!(
            seen.try_iter().collect::<Vec<_>>(),
            [0],
            "the next lane's callback still runs, and only after the release"
        );
        let state = sink.lock();
        assert_eq!((state.in_flight, state.failed), (0, 3));
        drop(state);
        assert_eq!(taken_ids(&doomed), [1, 3]);
        assert_eq!(taken_ids(&plain), [2]);
    }

    /// A panic in the middle of a kernel unwinds through the armed guard:
    /// the whole batch is failed on its lanes and released, and a ready
    /// callback that panics on top of that is swallowed (a second panic
    /// during unwinding would abort the process).
    #[test]
    fn an_armed_batch_guard_fails_its_batch_while_unwinding() {
        let sink = CompletionSink::new();
        sink.lock().in_flight = 3;
        let a = CompletionLane::new(|| {});
        let b = CompletionLane::new(|| panic!("a second panic, from a callback"));
        let batch = [env_on(&a, 1), env_on(&b, 2), env_on(&a, 3)];

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _guard = BatchGuard { sink: &sink, shard: 2, batch: &batch, armed: true };
            panic!("kernel blew up mid-batch");
        }));
        let payload = unwound.expect_err("the kernel panic unwinds to the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel blew up mid-batch"));
        let state = sink.lock();
        assert_eq!((state.in_flight, state.failed), (0, 3), "every slot released as a failure");
        drop(state);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.take_into(&mut got_a);
        b.take_into(&mut got_b);
        assert_eq!(got_a.iter().map(|r| r.stream_id).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(got_b.iter().map(|r| r.stream_id).collect::<Vec<_>>(), [2]);
        for resp in got_a.iter().chain(&got_b) {
            assert_eq!(resp.shard, 2);
            assert_eq!(
                resp.error.as_deref(),
                Some("shard worker panicked while serving this batch")
            );
        }
    }

    #[test]
    fn decode_bitmap_ranks_and_caps() {
        let pre = PreprocessConfig { delta_range: 4, ..Default::default() };
        // Bits: deltas -4..-1 then +1..+4; probabilities favor +1 and -2.
        let mut probs = vec![0.0f32; pre.output_dim()];
        probs[pre.delta_to_bit(1).unwrap()] = 0.9;
        probs[pre.delta_to_bit(-2).unwrap()] = 0.8;
        probs[pre.delta_to_bit(3).unwrap()] = 0.6;
        // Threshold 0.7, degree 4.
        let out = pre.decode_bitmap_into(&probs, 100, 0.7, 4, &mut Vec::new());
        assert_eq!(out, vec![101, 98]); // delta +1 first (higher prob), then -2
    }

    #[test]
    fn queue_depth_gauge_tracks_push_drain_and_poison() {
        // The depth gauge is what `stats_snapshot` reads without touching
        // the queue mutex — it must mirror pending.len() at every
        // quiescent point, including the poison drain.
        let q = ShardQueue::new(usize::MAX);
        assert_eq!(q.depth(), 0);
        assert!(q.push(env_for(1)).is_ok());
        assert!(q.push_all(vec![env_for(2), env_for(3), env_for(4)]).is_ok());
        assert_eq!(q.depth(), 4);
        let batch = q.pop_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 1);
        let leaked = q.poison("worker died");
        assert_eq!(leaked.len(), 1);
        assert_eq!(q.depth(), 0, "poison must release the drained depth");
        // Rejected pushes never count into the depth.
        assert!(q.push(env_for(5)).is_err());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn decode_bitmap_drops_nonpositive_targets() {
        let pre = PreprocessConfig { delta_range: 4, ..Default::default() };
        let mut probs = vec![0.0f32; pre.output_dim()];
        probs[pre.delta_to_bit(-3).unwrap()] = 0.9;
        // Anchor block 2: 2 - 3 = -1 is not a valid block.
        assert!(pre.decode_bitmap_into(&probs, 2, 0.5, 2, &mut Vec::new()).is_empty());
    }
}
