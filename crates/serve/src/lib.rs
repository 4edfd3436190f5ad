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
//!   │ worker  │   │ worker  │   │ worker  │   owns per-stream history state
//!   └────┬────┘   └────┬────┘   └────┬────┘
//!        │  coalesce pending requests: one feature row each,
//!        │  one encode_tokens call, each row into its stream's
//!        ▼  ring, one predict_tokens call over the warm windows
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
//! * **Batch coalescing** — each worker drains its queue (up to
//!   `max_batch` requests) and issues one `encode_tokens` call for the
//!   drain's new tokens and one `predict_tokens` call for its warm
//!   streams' windows, amortizing table-lookup locality.
//! * **Each token computed once** — a stream's request `n + 1` shares
//!   `T - 1` of its `T` window tokens with request `n`, and everything the
//!   model does to a token before attention mixes the window is a function
//!   of that token alone. [`StreamState`] keeps those rows in a ring beside
//!   the history; a hot swap or an eviction re-derives them from the
//!   history. Answers are bit for bit `predict_batch` on the window
//!   written out ([`StreamState::write_features_into`]).
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
//! counterpart) and one verdict ([`LoadReport`]).
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
pub mod stream;

pub use loadgen::{drill_model, drill_pre, generate_requests, run_load, LoadGenConfig, LoadReport};
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
pub use stream::StreamState;
