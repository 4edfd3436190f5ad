//! # dart — facade crate for the DART reproduction
//!
//! Re-exports every workspace crate under one roof:
//!
//! * [`nn`] — neural-network substrate (attention predictor, LSTM, training),
//! * [`pq`] — product-quantization tabularization kernels,
//! * [`trace`] — memory traces, synthetic workloads, preprocessing,
//! * [`sim`] — trace-driven cache/CPU simulator,
//! * [`prefetch`] — prefetcher zoo (BO, ISB, DART, NN baselines),
//! * [`core`] — the DART pipeline: configurator, distillation, tabularization,
//! * [`serve`] — the sharded, batched prefetch-serving runtime,
//! * [`net`] — the TCP front-end: binary wire protocol, epoll IO loop,
//!   backpressure NACKs, `GET /metrics`.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `examples/serve_quickstart.rs` for the serving runtime.

pub use dart_core as core;
pub use dart_net as net;
pub use dart_nn as nn;
pub use dart_pq as pq;
pub use dart_prefetch as prefetch;
pub use dart_serve as serve;
pub use dart_sim as sim;
pub use dart_trace as trace;
