//! The connection core shared by `flm-serve` and `flm-router`: one
//! per-connection state machine that touches no socket, no poller and no
//! clock. Drivers feed it the bytes they read and the instant they read
//! them; it hands back decoded requests, each holding a pipeline slot,
//! and the bytes to write once slots fill, in request order.
//!
//! Everything a connection must get right lives here once: incremental
//! [`Frame::decode`] (`Truncated` means "wait"), out-of-order fills
//! emitted in order, the pipeline-cap read stop, discard-then-FIN after a
//! framing violation or an exhausted request budget, a half-close
//! mid-frame answered as `Truncated`, idle tracking, and the read/write
//! interest derived from all of it ([`Conn::interest`]).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::frame::{Frame, FrameError};
use crate::rpc::{ErrorCode, Request, Response};
use crate::sys::Interest;

/// Bytes of unparseable input discarded after a framing violation before
/// the connection is closed anyway (so the close sends FIN, not a RST that
/// could destroy the typed error frame in flight).
pub const DISCARD_BUDGET: usize = 64 * 1024;

/// Connection-level counters, the same for a server and a router.
#[derive(Default)]
pub struct ConnCounters {
    /// Connections accepted and held.
    pub accepted: AtomicU64,
    /// Connections answered `Overloaded` at accept and closed.
    pub shed: AtomicU64,
    /// Framing violations and undecodable request bodies.
    pub malformed_frames: AtomicU64,
    /// Typed `Error` responses produced here (not passed through).
    pub responses_error: AtomicU64,
}

/// The limits a driver applies to each of its connections.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Frame-body byte cap, enforced before any allocation.
    pub max_body_bytes: usize,
    /// Unanswered requests in flight before the connection stops reading.
    pub max_pipelined: usize,
    /// Requests before `ConnectionBudget` and a close; `None` is unlimited.
    pub max_requests: Option<u64>,
}

/// Incremental frame decoding: bytes go in as they arrive, complete
/// frames come out, a partial frame waits.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded.
    pos: usize,
}

impl FrameReader {
    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// True when no undecoded byte is buffered.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Drops every buffered byte.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// The next complete frame (bodies capped at `max_body`), `Ok(None)`
    /// while the buffered bytes are only a prefix of one, or the framing
    /// violation they contain.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] other than `Truncated`.
    pub fn next_frame(&mut self, max_body: usize) -> Result<Option<Frame>, FrameError> {
        match Frame::decode(&self.buf[self.pos..], max_body) {
            Ok((frame, n)) => {
                self.pos += n;
                Ok(Some(frame))
            }
            Err(FrameError::Truncated) => {
                self.compact();
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn compact(&mut self) {
        self.buf.drain(..self.pos);
        self.pos = 0;
    }
}

/// A well-framed, decoded request and the pipeline slot its answer fills.
pub struct Incoming {
    /// The slot to fill with [`Conn::fill`] or [`Conn::fill_bytes`].
    pub seq: u64,
    /// The frame as received (the router forwards it verbatim).
    pub frame: Frame,
    /// The decoded request.
    pub request: Request,
}

/// Per-connection state machine.
pub struct Conn {
    limits: Limits,
    input: FrameReader,
    output: Vec<u8>,
    /// Pipeline slots, oldest first, each holding its encoded response
    /// once produced. Responses leave in slot order no matter which is
    /// filled first — that is the pipelining contract.
    inflight: VecDeque<Option<Vec<u8>>>,
    /// Sequence number of the oldest slot.
    first_seq: u64,
    served: u64,
    /// Peer sent FIN: no more requests will arrive.
    eof: bool,
    /// Close as soon as the output drains (framing violation, exhausted
    /// request budget, half-close, or shutdown).
    closing: bool,
    /// Bytes still to discard before closing after a final typed error.
    discarding: usize,
    last_activity: Instant,
}

impl Conn {
    /// A fresh connection accepted at `now`.
    pub fn new(limits: Limits, now: Instant) -> Conn {
        Conn {
            limits,
            input: FrameReader::default(),
            output: Vec::new(),
            inflight: VecDeque::new(),
            first_seq: 0,
            served: 0,
            eof: false,
            closing: false,
            discarding: 0,
            last_activity: now,
        }
    }

    /// True while the driver should read: discarding after a violation,
    /// or open and below the pipeline cap. Checked before every read, so
    /// level-triggered readiness re-reports deferred bytes later.
    pub fn wants_read(&self) -> bool {
        self.discarding > 0
            || (!self.eof && !self.closing && self.inflight.len() < self.limits.max_pipelined)
    }

    /// The readiness this connection needs, derived from state alone.
    pub fn interest(&self) -> Interest {
        Interest {
            readable: self.wants_read(),
            writable: !self.output.is_empty(),
        }
    }

    /// Takes bytes the driver read at `now`.
    pub fn received(&mut self, bytes: &[u8], now: Instant) {
        self.last_activity = now;
        if self.discarding > 0 {
            self.discarding = self.discarding.saturating_sub(bytes.len());
        } else {
            self.input.push(bytes);
        }
    }

    /// The peer finished sending. Any discard budget is moot: no more
    /// bytes will ever arrive, so it must not hold the connection open.
    pub fn peer_closed(&mut self) {
        self.eof = true;
        self.discarding = 0;
    }

    /// The next decoded request, with its slot allocated, or `None` when
    /// the input holds no complete frame, the pipeline is at its cap, or
    /// the connection is closing. Framing violations, undecodable bodies,
    /// and budget exhaustion are answered here with typed errors, and so
    /// is a peer that half-closed mid-frame.
    pub fn next_request(&mut self, counters: &ConnCounters, now: Instant) -> Option<Incoming> {
        while !self.closing && self.inflight.len() < self.limits.max_pipelined {
            let frame = match self.input.next_frame(self.limits.max_body_bytes) {
                Ok(Some(frame)) => frame,
                // A frame the peer will never finish is a framing
                // violation like any other.
                Ok(None) if self.eof && !self.input.is_empty() => {
                    let detail = FrameError::Truncated.to_string();
                    self.stop(counters, ErrorCode::MalformedFrame, detail);
                    break;
                }
                Ok(None) => break,
                // After a framing violation the stream offset can no
                // longer be trusted.
                Err(e) => {
                    self.stop(counters, ErrorCode::MalformedFrame, e.to_string());
                    break;
                }
            };
            self.last_activity = now;
            if let Some(budget) = self.limits.max_requests {
                if self.served >= budget {
                    let detail =
                        format!("connection exhausted its {budget}-request budget; reconnect");
                    self.stop(counters, ErrorCode::ConnectionBudget, detail);
                    break;
                }
            }
            self.served += 1;
            match Request::from_frame(&frame) {
                Ok(request) => {
                    let seq = self.open_slot();
                    return Some(Incoming {
                        seq,
                        frame,
                        request,
                    });
                }
                // The frame was sound but the body was not: typed error,
                // keep the connection (framing is still in sync).
                Err(e) => self.push_error(counters, ErrorCode::MalformedFrame, e.to_string()),
            }
        }
        // Half-closed with nothing buffered: serve out the pipeline, then
        // close. (Bytes buffered behind the cap may still hold complete
        // frames; the fill that frees a slot re-parses them.)
        if self.eof && self.input.is_empty() {
            self.closing = true;
        }
        None
    }

    /// Delivers a response into its slot, encoding it; typed errors are
    /// counted. A response too large for the frame format (>4 GiB) is
    /// answered `Internal` instead: nothing of it was sent, so the stream
    /// stays in sync.
    pub fn fill(&mut self, seq: u64, response: &Response, counters: &ConnCounters) {
        let bytes = match response.to_frame().encode() {
            Ok(bytes) => bytes,
            Err(e) => {
                let detail = format!("response cannot be framed: {e}");
                return self.fill(seq, &Response::error(ErrorCode::Internal, detail), counters);
            }
        };
        if matches!(response, Response::Error { .. }) {
            counters.responses_error.fetch_add(1, Ordering::Relaxed);
        }
        self.fill_bytes(seq, bytes);
    }

    /// Delivers an encoded response frame into its slot, then moves every
    /// response now at the front of the pipeline into the output.
    pub fn fill_bytes(&mut self, seq: u64, bytes: Vec<u8>) {
        let offset = seq.checked_sub(self.first_seq);
        let index = offset.and_then(|i| usize::try_from(i).ok());
        if let Some(slot) = index.and_then(|i| self.inflight.get_mut(i)) {
            *slot = Some(bytes);
        }
        while let Some(bytes) = self.inflight.front_mut().and_then(Option::take) {
            self.output.extend_from_slice(&bytes);
            self.inflight.pop_front();
            self.first_seq += 1;
        }
    }

    /// Bytes waiting to be written, in order.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The driver wrote the first `n` output bytes at `now`.
    pub fn wrote(&mut self, n: usize, now: Instant) {
        if n > 0 {
            self.output.drain(..n);
            self.last_activity = now;
        }
    }

    /// Stops taking requests; the connection finishes once every pending
    /// answer has been written (shutdown drain).
    pub fn close_when_drained(&mut self) {
        self.closing = true;
    }

    /// True when nothing is pending: no slots and no unwritten bytes.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty() && self.output.is_empty()
    }

    /// True while some slot still waits for its answer.
    fn awaiting_answer(&self) -> bool {
        self.inflight.iter().any(Option::is_none)
    }

    /// True when the driver should close the connection now.
    pub fn finished(&self) -> bool {
        self.closing && self.idle() && self.discarding == 0
    }

    /// True when the connection made no progress for longer than `timeout`
    /// and waits on nobody. A slow answer is not idleness, but an idle or
    /// write-stuck peer cannot pin a connection forever.
    pub fn timed_out(&self, now: Instant, timeout: Duration) -> bool {
        !self.awaiting_answer() && now.duration_since(self.last_activity) > timeout
    }

    fn open_slot(&mut self) -> u64 {
        self.inflight.push_back(None);
        self.first_seq + self.inflight.len() as u64 - 1
    }

    /// Answers a typed error in a fresh slot; malformed input is counted.
    fn push_error(&mut self, counters: &ConnCounters, code: ErrorCode, detail: String) {
        if code == ErrorCode::MalformedFrame {
            counters.malformed_frames.fetch_add(1, Ordering::Relaxed);
        }
        let seq = self.open_slot();
        self.fill(seq, &Response::error(code, detail), counters);
    }

    /// Answers a last typed error and stops taking requests. Whatever the
    /// peer already sent is discarded (up to [`DISCARD_BUDGET`]) before the
    /// close, so the close sends FIN rather than a RST that could destroy
    /// the error frame in flight.
    fn stop(&mut self, counters: &ConnCounters, code: ErrorCode, detail: String) {
        self.push_error(counters, code, detail);
        self.input.clear();
        self.closing = true;
        if !self.eof {
            self.discarding = DISCARD_BUDGET;
        }
    }
}

/// One read from a nonblocking source: `Ok(Some(0))` is end of stream,
/// `Ok(None)` means it would block. Interrupted reads are retried.
///
/// # Errors
///
/// Any other IO error.
pub fn read_nonblocking(src: &mut impl Read, buf: &mut [u8]) -> io::Result<Option<usize>> {
    loop {
        match src.read(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Writes as much of `bytes` as a nonblocking sink accepts and returns the
/// count written. Interrupted writes are retried.
///
/// # Errors
///
/// Any other IO error; a zero-length write is `WriteZero`.
pub fn write_nonblocking(dst: &mut impl Write, bytes: &[u8]) -> io::Result<usize> {
    let mut written = 0;
    while written < bytes.len() {
        match dst.write(&bytes[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits {
        max_body_bytes: 1 << 20,
        max_pipelined: 4,
        max_requests: None,
    };

    fn ping_bytes(payload: &[u8]) -> Vec<u8> {
        let ping = Request::Ping {
            payload: payload.to_vec(),
            hold_ms: 0,
        };
        ping.to_frame().encode().unwrap()
    }

    fn pong(payload: &[u8]) -> Response {
        Response::Pong {
            payload: payload.to_vec(),
        }
    }

    /// Decodes every whole response frame in `bytes`.
    fn responses(bytes: &[u8]) -> Vec<Response> {
        let mut reader = FrameReader::default();
        reader.push(bytes);
        let mut out = Vec::new();
        while let Some(frame) = reader.next_frame(usize::MAX).unwrap() {
            out.push(Response::from_frame(&frame).unwrap());
        }
        assert!(reader.is_empty(), "trailing partial frame");
        out
    }

    fn error_code(response: &Response) -> ErrorCode {
        match response {
            Response::Error { code, .. } => *code,
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    /// Drains all pending requests, returning their slots.
    fn requests(conn: &mut Conn, counters: &ConnCounters, now: Instant) -> Vec<u64> {
        std::iter::from_fn(|| conn.next_request(counters, now))
            .map(|incoming| incoming.seq)
            .collect()
    }

    #[test]
    fn out_of_order_fills_leave_in_request_order() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        let input: Vec<u8> = [b"a", b"b", b"c"]
            .iter()
            .flat_map(|p| ping_bytes(*p))
            .collect();
        // Arrives in two pieces split mid-frame: the partial tail waits.
        let split = ping_bytes(b"a").len() + 3;
        conn.received(&input[..split], now);
        assert_eq!(requests(&mut conn, &counters, now), vec![0]);
        conn.received(&input[split..], now);
        let seqs = requests(&mut conn, &counters, now);
        assert_eq!(seqs, vec![1, 2]);
        conn.fill(2, &pong(b"c"), &counters);
        conn.fill(1, &pong(b"b"), &counters);
        assert!(conn.output().is_empty(), "slot 0 still blocks the pipeline");
        assert!(conn.awaiting_answer());
        conn.fill(0, &pong(b"a"), &counters);
        assert!(!conn.awaiting_answer());
        let answers = responses(conn.output());
        assert_eq!(answers, vec![pong(b"a"), pong(b"b"), pong(b"c")]);
    }

    #[test]
    fn pipeline_cap_clears_read_interest_until_an_answer_drains() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        for i in 0..6u8 {
            conn.received(&ping_bytes(&[i]), now);
        }
        assert_eq!(requests(&mut conn, &counters, now), vec![0, 1, 2, 3]);
        assert!(
            !conn.interest().readable,
            "at the cap the socket is not read"
        );
        conn.fill(0, &pong(&[0]), &counters);
        assert!(conn.interest().readable);
        // The frames deferred by the cap parse once a slot frees.
        assert_eq!(requests(&mut conn, &counters, now), vec![4]);
        assert!(!conn.interest().readable);
    }

    #[test]
    fn framing_violation_answers_typed_then_discards_then_closes() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        let mut input = ping_bytes(b"ok");
        input.extend_from_slice(b"GARBAGE-NOT-A-FRAME");
        input.extend_from_slice(&ping_bytes(b"never parsed"));
        conn.received(&input, now);
        assert_eq!(requests(&mut conn, &counters, now), vec![0]);
        conn.fill(0, &pong(b"ok"), &counters);
        let answers = responses(conn.output());
        assert_eq!(answers.len(), 2);
        assert_eq!(error_code(&answers[1]), ErrorCode::MalformedFrame);
        assert_eq!(counters.malformed_frames.load(Ordering::Relaxed), 1);
        // Still reading, to discard what the peer already sent.
        let n = conn.output().len();
        conn.wrote(n, now);
        assert!(conn.interest().readable && !conn.finished());
        conn.received(&[0u8; DISCARD_BUDGET - 1], now);
        assert!(conn.next_request(&counters, now).is_none());
        assert!(!conn.finished());
        conn.received(&[0u8; 1], now);
        assert!(conn.finished(), "discard budget spent: close");
        assert!(!conn.interest().readable);
    }

    #[test]
    fn half_close_mid_frame_is_a_truncated_framing_error() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        let frame = ping_bytes(b"cut short");
        conn.received(&frame[..frame.len() - 1], now);
        assert!(conn.next_request(&counters, now).is_none());
        assert!(conn.output().is_empty(), "a partial frame just waits");
        conn.peer_closed();
        assert!(conn.next_request(&counters, now).is_none());
        let answers = responses(conn.output());
        match &answers[..] {
            [Response::Error { code, detail }] => {
                assert_eq!(*code, ErrorCode::MalformedFrame);
                assert_eq!(*detail, FrameError::Truncated.to_string());
            }
            other => panic!("expected one Truncated error, got {other:?}"),
        }
        let n = conn.output().len();
        conn.wrote(n, now);
        assert!(conn.finished());
    }

    #[test]
    fn clean_half_close_serves_out_the_pipeline_then_closes() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        conn.received(&ping_bytes(b"last"), now);
        conn.peer_closed();
        assert_eq!(requests(&mut conn, &counters, now), vec![0]);
        assert!(!conn.finished(), "an answer is still owed");
        conn.fill(0, &pong(b"last"), &counters);
        let n = conn.output().len();
        conn.wrote(n, now);
        assert!(conn.finished());
    }

    #[test]
    fn budget_exhaustion_answers_connection_budget_and_closes() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let limits = Limits {
            max_requests: Some(2),
            ..LIMITS
        };
        let mut conn = Conn::new(limits, now);
        for i in 0..4u8 {
            conn.received(&ping_bytes(&[i]), now);
        }
        assert_eq!(requests(&mut conn, &counters, now), vec![0, 1]);
        conn.fill(0, &pong(&[0]), &counters);
        conn.fill(1, &pong(&[1]), &counters);
        let answers = responses(conn.output());
        assert_eq!(answers.len(), 3);
        assert_eq!(error_code(&answers[2]), ErrorCode::ConnectionBudget);
        assert_eq!(counters.responses_error.load(Ordering::Relaxed), 1);
        assert_eq!(counters.malformed_frames.load(Ordering::Relaxed), 0);
        let n = conn.output().len();
        conn.wrote(n, now);
        // Discard-then-FIN: the close waits for the peer's FIN.
        assert!(!conn.finished());
        conn.peer_closed();
        assert!(conn.finished());
    }

    #[test]
    fn undecodable_body_is_answered_and_the_connection_kept() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        let bad = Frame::new(0x7F, vec![1, 2, 3]).encode().unwrap();
        conn.received(&bad, now);
        conn.received(&ping_bytes(b"after"), now);
        assert_eq!(requests(&mut conn, &counters, now), vec![1]);
        conn.fill(1, &pong(b"after"), &counters);
        let answers = responses(conn.output());
        assert_eq!(error_code(&answers[0]), ErrorCode::MalformedFrame);
        assert_eq!(answers[1], pong(b"after"));
        assert!(conn.interest().readable);
    }

    /// A writer that accepts at most `room` bytes, then would block.
    struct Trickle {
        room: usize,
        sink: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The router front once left write interest armed after a
    /// writable-only event drained its output, so a level-triggered poller
    /// woke it forever on an idle connection. Interest is now derived from
    /// state alone: a drained output means no write interest.
    #[test]
    fn a_drained_write_clears_write_interest() {
        let (counters, now) = (ConnCounters::default(), Instant::now());
        let mut conn = Conn::new(LIMITS, now);
        conn.received(&ping_bytes(b"big"), now);
        let seq = conn.next_request(&counters, now).unwrap().seq;
        conn.fill(seq, &pong(&[7u8; 4096]), &counters);
        assert!(conn.interest().writable);
        let mut socket = Trickle {
            room: 1000,
            sink: Vec::new(),
        };
        let n = write_nonblocking(&mut socket, conn.output()).unwrap();
        assert_eq!(n, 1000, "partial write, then would block");
        conn.wrote(n, now);
        assert!(conn.interest().writable, "bytes remain");
        socket.room = usize::MAX;
        let n = write_nonblocking(&mut socket, conn.output()).unwrap();
        conn.wrote(n, now);
        assert!(conn.output().is_empty());
        assert_eq!(conn.interest(), Interest::READABLE);
        assert_eq!(responses(&socket.sink), vec![pong(&[7u8; 4096])]);
    }

    #[test]
    fn idle_timeout_spares_a_connection_awaiting_an_answer() {
        let (counters, start) = (ConnCounters::default(), Instant::now());
        let timeout = Duration::from_secs(10);
        let later = start + Duration::from_secs(11);
        let mut conn = Conn::new(LIMITS, start);
        assert!(conn.timed_out(later, timeout));
        conn.received(&ping_bytes(b"slow"), start);
        let seq = conn.next_request(&counters, start).unwrap().seq;
        assert!(
            !conn.timed_out(later, timeout),
            "a slow answer is not idleness"
        );
        conn.fill(seq, &pong(b"slow"), &counters);
        assert!(conn.timed_out(later, timeout), "an unread answer is");
    }
}
