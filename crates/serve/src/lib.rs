//! # dart-serve — a sharded, batched prefetch-serving runtime
//!
//! The paper's point is that tabularized attention models make neural
//! prefetching cheap enough to run *online*. This crate is the deployment
//! layer that cashes that in: a multi-threaded runtime that serves
//! predictions for **many concurrent access streams** against one shared
//! [`TabularModel`](dart_core::TabularModel), the way TransFetch-style
//! systems batch inference to amortize per-call cost.
//!
//! Architecture:
//!
//! ```text
//!            submit(PrefetchRequest)
//!                      │
//!               ┌──────▼──────┐
//!               │ StreamRouter │  stream_id ──hash──► shard
//!               └──────┬──────┘
//!        ┌─────────────┼─────────────┐
//!   ┌────▼────┐   ┌────▼────┐   ┌────▼────┐
//!   │ shard 0 │   │ shard 1 │   │ shard N │   each: queue + worker thread
//!   │ worker  │   │ worker  │   │ worker  │   owns a StreamLru of StreamStates
//!   └────┬────┘   └────┬────┘   └────┬────┘
//!        │  each drained batch is one dart_core StreamEngine::step:
//!        │  one feature row each, one encode_tokens call, each row into
//!        ▼  its stream's ring, one predict_tokens call over the warm windows
//!   PrefetchResponse (per request, in per-stream order)
//! ```
//!
//! Key properties:
//!
//! * **Sharded state** — a stream's history lives on exactly one shard
//!   (chosen by [`StreamRouter`]), so no cross-thread locking on the hot
//!   path and per-stream request order is preserved. Each shard's map is
//!   **bounded** (`ServeConfig::max_streams_per_shard`, LRU eviction), so
//!   stream-id churn cannot grow shard memory without limit.
//! * **Versioned model state** — the model is held in a [`ModelSlot`]
//!   (epoch-counted `Arc` swap) fronted by a [`ModelRegistry`]. Workers
//!   re-check the epoch once per batch with a single atomic load and
//!   adopt new versions at batch boundaries, so a retrained model can be
//!   hot-swapped with zero downtime — no batch ever observes a torn
//!   model, and old versions are reclaimed once every shard has moved
//!   past them. The [`shadow`] module closes the loop: replayed live
//!   traffic is re-trained/re-tabularized in the background and promoted
//!   through an A/B gate only if it beats the incumbent. Candidates are
//!   tabularized with [`ShadowConfig::tabular`]; left at
//!   `TabularConfig::default()` that is the `log2 K` hash-tree encoder, so
//!   a runtime started on an exact-argmin model serves hash-tree tables
//!   from its first promotion on (the encoder is part of the model, and
//!   the swap path does not care which one it is).
//! * **Batch coalescing, each token computed once** — each worker drains
//!   up to `max_batch` requests into one [`dart_core::StreamEngine::step`]:
//!   one `encode_tokens` call for the drain's new tokens, one
//!   `predict_tokens` call for the warm windows. A stream's request `n + 1`
//!   shares `T - 1` of its `T` window tokens with request `n`, and all the
//!   model does to a token before attention is a function of that token
//!   alone, so [`StreamState`] keeps those rows in a ring beside the
//!   history (a hot swap or an eviction re-derives them). Answers are bit
//!   for bit `predict_batch` on the window written out
//!   ([`StreamState::write_features_into`]). `DartPrefetcher` runs the same
//!   engine; this crate adds the serving policy around it.
//! * **Complete accounting** — every submitted request produces exactly one
//!   [`PrefetchResponse`] (cold-history requests return an empty prefetch
//!   list), so dropped or misrouted work is detectable. Responses land in
//!   the [`CompletionLane`] the request was submitted on — the runtime's
//!   built-in default lane, or one a front-end opened for itself — so
//!   each consumer takes only its own, with one lock per served batch.
//!
//! [`loadgen`] is the drill kit every serving drill shares — one request
//! source ([`generate_requests`]), one tiny model ([`drill_model`]), one
//! in-process driver ([`run_load`]; `dart_net::run_tcp_load` is its socket
//! counterpart), one verdict ([`LoadReport`]) and one fault tool
//! ([`hold_shard`]: park a shard worker in a lane's ready callback, then
//! release it or make it panic). [`ServeConfig`] carries no fault knobs.
//!
//! See `examples/serve_quickstart.rs` for an end-to-end tour,
//! `cargo run --release -p dart-bench --bin loadgen` for the pass/fail
//! serving drill, and `perf/` (`serve_inproc` against `predict_b1`) for
//! throughput and latency.

pub mod loadgen;
pub mod lru;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod router;
pub mod runtime;
pub mod shadow;
pub mod shard;
pub mod slot;

/// The per-stream state of [`StreamLru`], defined with its step in `dart-core`.
pub use dart_core::StreamState;
pub use loadgen::{
    drill_model, drill_pre, generate_requests, hold_shard, run_load, LoadGenConfig, LoadReport,
    ShardHold,
};
pub use lru::StreamLru;
pub use metrics::render_exposition;
pub use registry::{
    ModelRegistry, ModelVersion, RegistryCounters, RejectedCandidate, RejectionCause, VersionState,
};
pub use request::{PrefetchRequest, PrefetchResponse};
pub use router::StreamRouter;
pub use runtime::{ServeConfig, ServeRuntime, ServeStats, SubmitRejected};
pub use shadow::{
    gate_candidate, ReplaySample, ReplaySampler, ShadowConfig, ShadowHandle, ShadowOutcome,
    ShadowTrainer,
};
pub use shard::CompletionLane;
pub use slot::ModelSlot;
