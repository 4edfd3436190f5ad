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
//!        │  coalesce pending requests into one
//!        │  stacked feature matrix, then one
//!        ▼  TabularModel::predict_batch call
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
//!   through an A/B gate only if it beats the incumbent.
//! * **Batch coalescing** — each worker drains its queue (up to
//!   `max_batch` requests) and issues one `predict_batch` call for every
//!   warm stream in the drain, amortizing table-lookup locality.
//! * **Complete accounting** — every submitted request produces exactly one
//!   [`PrefetchResponse`] (cold-history requests return an empty prefetch
//!   list), so dropped or misrouted work is detectable. Responses land in
//!   the [`CompletionLane`] the request was submitted on — the runtime's
//!   built-in default lane, or one a front-end opened for itself — so
//!   each consumer takes only its own, with one lock per served batch.
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

pub use loadgen::{generate_requests, run_load, LoadGenConfig, LoadReport};
pub use lru::StreamLru;
pub use metrics::render_exposition;
pub use registry::{
    ModelRegistry, ModelVersion, RegistryCounters, RejectedCandidate, VersionState,
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
