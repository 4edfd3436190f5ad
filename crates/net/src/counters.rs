//! The front-end's live counters and the disconnect-reason codes that
//! label them.

use std::collections::HashMap;
use std::sync::Arc;

/// Why a connection was torn down (the label on
/// `dart_net_disconnects_total`). First doom reason wins; later ones
/// are no-ops.
pub(crate) mod reason {
    pub const ALIVE: u8 = 0;
    pub const EOF: u8 = 1;
    pub const SLOW_READER: u8 = 2;
    pub const PROTOCOL_ERROR: u8 = 3;
    pub const IO_ERROR: u8 = 4;
    pub const HTTP_DONE: u8 = 5;
    pub const SHUTDOWN: u8 = 6;
    pub const IDLE: u8 = 7;
    pub const ACCEPT_ERROR: u8 = 8;

    pub fn label(code: u8) -> &'static str {
        match code {
            EOF => "eof",
            SLOW_READER => "slow_reader",
            PROTOCOL_ERROR => "protocol_error",
            IO_ERROR => "io_error",
            HTTP_DONE => "http_done",
            SHUTDOWN => "shutdown",
            IDLE => "idle",
            ACCEPT_ERROR => "accept_error",
            _ => "unknown",
        }
    }
}

/// Live front-end counters in the **global** telemetry registry (so they
/// appear in the same `/metrics` document as the serving runtime's own
/// exposition). Registration is idempotent: two servers in one process
/// share cells.
pub(crate) struct Counters {
    pub accepted: Arc<dart_telemetry::Counter>,
    pub active: Arc<dart_telemetry::Gauge>,
    pub frames_in: Arc<dart_telemetry::Counter>,
    pub responses_out: Arc<dart_telemetry::Counter>,
    /// Outbox appends (one per connection per IO-loop pass) that
    /// coalesced **more than one** response frame into a single flush.
    pub batched_writes: Arc<dart_telemetry::Counter>,
    pub nacks_queue_full: Arc<dart_telemetry::Counter>,
    pub nacks_admission: Arc<dart_telemetry::Counter>,
    pub http_requests: Arc<dart_telemetry::Counter>,
    pub orphaned: Arc<dart_telemetry::Counter>,
    /// Times a connection gained writable interest (pending outbox).
    pub writable_regs: Arc<dart_telemetry::Counter>,
    /// Connections currently under writable interest (pending outbox
    /// right now). Returns to 0 whenever every outbox is drained.
    pub writable_watch: Arc<dart_telemetry::Gauge>,
    pub disconnects: HashMap<u8, Arc<dart_telemetry::Counter>>,
}

impl Counters {
    pub fn register() -> Counters {
        let reg = dart_telemetry::global();
        let disconnects = [
            reason::EOF,
            reason::SLOW_READER,
            reason::PROTOCOL_ERROR,
            reason::IO_ERROR,
            reason::HTTP_DONE,
            reason::SHUTDOWN,
            reason::IDLE,
            reason::ACCEPT_ERROR,
        ]
        .into_iter()
        .map(|code| {
            let cell = reg.counter(
                "dart_net_disconnects_total",
                "Connections torn down, by reason.",
                &[("reason", reason::label(code))],
            );
            (code, cell)
        })
        .collect();
        Counters {
            accepted: reg.counter(
                "dart_net_connections_accepted_total",
                "TCP connections accepted.",
                &[],
            ),
            active: reg.gauge(
                "dart_net_connections_active",
                "TCP connections currently open.",
                &[],
            ),
            frames_in: reg.counter(
                "dart_net_frames_in_total",
                "Well-formed request frames decoded.",
                &[],
            ),
            responses_out: reg.counter(
                "dart_net_responses_out_total",
                "Response frames routed to a connection outbox.",
                &[],
            ),
            batched_writes: reg.counter(
                "dart_net_batched_writes_total",
                "Outbox appends carrying more than one coalesced response frame.",
                &[],
            ),
            nacks_queue_full: reg.counter(
                "dart_net_nacks_total",
                "Requests refused with a NACK frame, by reason.",
                &[("reason", "queue_full")],
            ),
            nacks_admission: reg.counter(
                "dart_net_nacks_total",
                "Requests refused with a NACK frame, by reason.",
                &[("reason", "admission")],
            ),
            http_requests: reg.counter(
                "dart_net_http_requests_total",
                "HTTP requests served on the binary port.",
                &[],
            ),
            orphaned: reg.counter(
                "dart_net_orphaned_responses_total",
                "Responses whose connection was already gone.",
                &[],
            ),
            writable_regs: reg.counter(
                "dart_net_writable_registrations_total",
                "Times a connection gained writable (EPOLLOUT-style) interest.",
                &[],
            ),
            writable_watch: reg.gauge(
                "dart_net_writable_watched",
                "Connections currently under writable interest (pending outbox).",
                &[],
            ),
            disconnects,
        }
    }

    /// Count one connection torn down for `code`.
    pub fn disconnected(&self, code: u8) {
        if let Some(cell) = self.disconnects.get(&code) {
            cell.inc();
        }
    }
}
