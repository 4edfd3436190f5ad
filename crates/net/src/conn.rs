//! One client connection: socket, inbound parser, outbox, and
//! lifecycle state. Every field is touched only by the IO thread that
//! accepted the connection, so none of it is shared or locked.

use std::io::{self, Write};
use std::net::TcpStream;

use crate::counters::reason;
use crate::http::HeadParser;
use crate::wire::FrameDecoder;

/// How a connection's inbound bytes are being interpreted. Decided by
/// the first byte: [`crate::wire::MAGIC0`] is binary, anything else is
/// HTTP.
pub(crate) enum Mode {
    Undecided,
    Binary(FrameDecoder),
    Http(HeadParser),
}

pub(crate) struct Conn {
    pub id: u32,
    pub stream: TcpStream,
    pub mode: Mode,
    /// Frames submitted to the runtime, not yet answered.
    pub inflight: u64,
    /// First doom reason (see [`reason`]); `ALIVE` while healthy.
    doomed: u8,
    /// Last traffic (accept, read, or response routed), in the server's
    /// millisecond clock — what idle reaping compares against.
    pub last_activity_ms: u64,
    /// Un-flushed bytes headed for the socket: responses, NACKs and HTTP
    /// bodies are all encoded straight into it. `out_start` marks the
    /// flushed prefix; it is compacted away once it dominates the buffer.
    pub out: Vec<u8>,
    out_start: usize,
    /// Response frames appended to `out` since the IO loop last serviced
    /// this conn (i.e. during the current pass).
    pub appended: u64,
    /// Disconnect (reason `http_done`) once the outbox drains.
    pub close_after_flush: bool,
    /// Whether the poller currently watches this conn for writability.
    /// Kept in lock-step with "outbox has pending bytes" by the IO loop.
    pub writable_registered: bool,
}

impl Conn {
    pub fn new(id: u32, stream: TcpStream, now_ms: u64) -> Conn {
        Conn {
            id,
            stream,
            mode: Mode::Undecided,
            inflight: 0,
            doomed: reason::ALIVE,
            last_activity_ms: now_ms,
            out: Vec::new(),
            out_start: 0,
            appended: 0,
            close_after_flush: false,
            writable_registered: false,
        }
    }

    /// Mark for disconnect; the first reason sticks.
    pub fn doom(&mut self, code: u8) {
        if self.doomed == reason::ALIVE {
            self.doomed = code;
        }
    }

    pub fn doom_code(&self) -> u8 {
        self.doomed
    }

    /// Un-flushed outbox bytes right now.
    pub fn pending(&self) -> usize {
        self.out.len() - self.out_start
    }

    /// Push as much of the outbox into the socket as it will take right
    /// now. Never blocks. Whatever then remains beyond `cap` dooms the
    /// connection as a slow reader.
    pub fn flush(&mut self, cap: usize) {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => {
                    self.doom(reason::IO_ERROR);
                    break;
                }
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.doom(reason::IO_ERROR);
                    break;
                }
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start > 4096 && self.out_start * 2 >= self.out.len() {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        if self.pending() > cap {
            self.doom(reason::SLOW_READER);
        }
    }
}
