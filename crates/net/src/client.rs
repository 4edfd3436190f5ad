//! A small blocking client for the wire protocol — what the TCP load
//! generator and the integration tests speak to the server with.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{
    encode_request, Frame, FrameDecoder, NackFrame, RequestFrame, ResponseFrame, REQUEST_LEN,
};

/// What the server answers with: exactly one of these per sent request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// Served (or failed by the runtime — see
    /// [`ResponseFrame::failed`]); the request was accepted.
    Response(ResponseFrame),
    /// Refused: the request never entered the system and will get no
    /// response. Retry is the client's decision.
    Nack(NackFrame),
}

/// One blocking connection to a [`crate::NetServer`]. Requests are
/// buffered locally; [`NetClient::flush`] (called implicitly by
/// [`NetClient::recv_event`]) pushes them out in one write.
pub struct NetClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    send_buf: Vec<u8>,
    read_buf: Vec<u8>,
}

impl NetClient {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            decoder: FrameDecoder::new(),
            send_buf: Vec::new(),
            read_buf: vec![0u8; 16 * 1024],
        })
    }

    /// Bound how long [`NetClient::recv_event`] blocks (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Queue one request frame (buffered until the next flush).
    pub fn send_request(&mut self, stream: u32, pc: u64, addr: u64) {
        self.send_buf.reserve(REQUEST_LEN);
        encode_request(&RequestFrame { stream, pc, addr }, &mut self.send_buf);
    }

    /// Push every queued request into the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.send_buf.is_empty() {
            self.stream.write_all(&self.send_buf)?;
            self.send_buf.clear();
        }
        Ok(())
    }

    /// Flush, then block until the server's next answer arrives.
    ///
    /// Errors surface the socket failure (including read timeouts, as
    /// `WouldBlock`/`TimedOut` per platform); a server that violates the
    /// protocol (bad frame, or a request-kind frame) is `InvalidData`.
    pub fn recv_event(&mut self) -> io::Result<ClientEvent> {
        self.flush()?;
        loop {
            match self.decoder.next() {
                Ok(Some(Frame::Response(r))) => return Ok(ClientEvent::Response(r)),
                Ok(Some(Frame::Nack(n))) => return Ok(ClientEvent::Nack(n)),
                Ok(Some(Frame::Request(_))) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "server sent a request frame",
                    ));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.decoder.extend(&self.read_buf[..n]);
        }
    }
}

/// Scrape `GET /metrics` from a server over plain HTTP and return the
/// body (the exposition document).
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: dart\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no HTTP header terminator"));
    };
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("").to_string();
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}
