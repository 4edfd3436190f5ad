//! # dart-net — the TCP serving front-end for `dart-serve`
//!
//! `dart-serve` answers prefetch requests in-process; this crate puts it
//! on a socket. One [`NetServer`] binds a TCP port and serves two things
//! on it:
//!
//! * the **binary wire protocol** ([`wire`]) — compact fixed-layout
//!   frames (24-byte requests; responses sized by their block list)
//!   multiplexing many client streams per connection, decoded
//!   incrementally across arbitrary TCP segmentation,
//! * a single **HTTP route**, `GET /metrics`, serving the runtime's
//!   live Prometheus-style exposition to `curl`/scrapers — the first
//!   byte of each connection (binary magic `0xDA` vs an ASCII method)
//!   picks the parser.
//!
//! The IO design is std-only and non-blocking end to end: per-core
//! acceptor/IO threads run a readiness loop ([`sys::Poller`]: raw-syscall
//! `epoll` on Linux, a portable probing fallback elsewhere), decode
//! frames, and feed the shard queues through
//! [`ServeRuntime::try_submit`](dart_serve::ServeRuntime::try_submit) —
//! which never blocks. Backpressure is **explicit**: a full shard queue
//! or an over-cap connection is answered with a NACK frame carrying the
//! queue depth, so a burst degrades into visible rejections instead of
//! stalled IO threads and silent socket-buffer bloat. Slow readers are
//! bounded the same way ([`NetConfig::write_buf_cap`]) and disconnected
//! rather than buffered without limit.
//!
//! Responses ride a **batched, writability-driven** write path with no
//! thread in the middle: each IO thread submits through its own
//! [`dart_serve::CompletionLane`], shard workers append a served batch
//! to it under one lock and wake that thread's poller, and the thread
//! encodes its completions straight into its connections' outboxes (one
//! flush per conn per pass) — a socket and its outbox are only ever
//! touched by the IO thread that accepted them. Writable interest is
//! registered only while a conn's outbox actually holds bytes. Idle
//! connections can be reaped ([`NetConfig::idle_timeout_ms`]), and a
//! reaped conn's per-stream state is retired from the shard LRU maps.
//!
//! [`run_tcp_load`] is the matching drill driver: it deals a
//! [`dart_serve::generate_requests`] list across many connections by
//! stream id — tens of thousands of concurrent streams — and verifies the
//! front-end contract, **every request is answered exactly once** (a
//! response or a NACK), under load, across shards, with the accounting to
//! prove it in the same [`dart_serve::LoadReport`] the in-process drill
//! returns.

pub mod client;
mod conn;
mod counters;
mod http;
pub mod server;
pub mod sys;
pub mod tcp_load;
pub mod wire;

pub use client::{fetch_metrics, ClientEvent, NetClient};
pub use server::{NetConfig, NetServer};
pub use tcp_load::run_tcp_load;
pub use wire::{Frame, FrameDecoder, NackFrame, RequestFrame, ResponseFrame, WireError};
