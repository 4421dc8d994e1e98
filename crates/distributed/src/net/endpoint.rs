//! Coordinator-side endpoints: framed TCP clients with deadlines,
//! retry-with-backoff connects, and per-message telemetry.
//!
//! The coordinator talks to every node through the [`NodeEndpoint`]
//! trait; [`TcpNodeClient`] is the wire implementation. There is no
//! liveness oracle on this path — failure is *detected*, not declared:
//! a connect that cannot be established within its deadline, a read
//! that misses its deadline (including a peer that hangs mid-frame),
//! or a malformed reply all surface as a [`NetError`], and the
//! coordinator reacts exactly as it does to a failed in-process node
//! (re-route, then degrade).
//!
//! An exchange comes in two halves: [`NodeEndpoint::send`] starts it and
//! [`InFlight::wait`] reads the reply. The coordinator's fan-out round
//! sends every contacted node its request before it waits on any, so the
//! nodes scan at the same time while one thread drives all the sockets.
//!
//! Every send/receive is wrapped in `net.send` / `net.recv` spans (both
//! children of the span current when the exchange was sent), a detected
//! deadline miss records a `net.timeout` interval, and the `rbc_net_*`
//! counter families in the shared metric registry meter frames, bytes,
//! timeouts, and connects per node.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rbc_trace::registry;

use super::codec::{CodecError, ProbeAck, QueryReply, QueryRequest};
use super::frame::{read_frame, write_frame, CountingReader, FrameError, MsgKind};

/// Deadlines and retry policy for one wire client.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Deadline for establishing one TCP connection attempt.
    pub connect_timeout: Duration,
    /// Deadline for a reply (or any frame fragment) to arrive. `None`
    /// disables the read deadline — the negative-control mode in which a
    /// hung peer blocks the coordinator forever.
    pub read_timeout: Option<Duration>,
    /// Deadline for the kernel to accept outbound frame bytes.
    pub write_timeout: Option<Duration>,
    /// Connection attempts before the node is reported unreachable.
    pub connect_attempts: u32,
    /// Backoff after a failed connect attempt; doubles per retry.
    pub connect_backoff: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(1000),
            read_timeout: Some(Duration::from_millis(2000)),
            write_timeout: Some(Duration::from_millis(2000)),
            connect_attempts: 5,
            connect_backoff: Duration::from_millis(20),
        }
    }
}

/// Why a wire exchange failed.
#[derive(Debug)]
pub enum NetError {
    /// A deadline was missed: the connect, the write, or the read (the
    /// hung-peer case) did not complete in time.
    Deadline(&'static str),
    /// The transport failed outright (refused, reset, closed).
    Io(io::Error),
    /// The peer's bytes did not parse as a frame.
    Frame(FrameError),
    /// The frame's payload did not parse as the expected message.
    Codec(CodecError),
    /// The peer answered with the wrong frame (kind or request id), or
    /// reported an execution error of its own.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Deadline(stage) => write!(f, "deadline missed during {stage}"),
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Frame(e) => write!(f, "frame error: {e}"),
            Self::Codec(e) => write!(f, "codec error: {e}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A node the coordinator can ship sub-plans to — its only way to reach
/// one. A `DistributedRbc` starts with an endpoint per node that executes
/// the request on a shard in the same process; [`TcpNodeClient`] ships it
/// over framed TCP, and tests can implement it with anything that honors
/// the contract: `execute` returns the partial top-k results for the
/// request's query table, or an error the coordinator treats as a
/// mid-batch node failure.
///
/// An exchange may also be split: [`send`](Self::send) starts it and
/// [`InFlight::wait`] finishes it, so a caller can put several nodes'
/// requests on the wire before it blocks on any reply. An endpoint that
/// implements only `node`, `execute` and `probe` gets a `send` that defers
/// the whole call, which the coordinator then runs on its pool.
pub trait NodeEndpoint: Send + Sync + fmt::Debug {
    /// The node id this endpoint reaches.
    fn node(&self) -> usize;

    /// Ships a routed sub-plan and waits (bounded by the transport's
    /// deadlines) for the partial results.
    ///
    /// # Errors
    /// Any transport, deadline, or protocol failure; the caller marks
    /// the node dead and re-routes.
    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError>;

    /// Starts an exchange; [`InFlight::wait`] returns what
    /// [`execute`](Self::execute) would. An endpoint that can write the
    /// request now and read the reply later returns [`InFlight::Sent`];
    /// this provided version sends nothing and returns
    /// [`InFlight::Deferred`], which makes the whole `execute` call when
    /// run.
    fn send<'a>(&'a self, request: &'a QueryRequest) -> InFlight<'a> {
        InFlight::Deferred(Box::new(move || self.execute(request)))
    }

    /// Health probe.
    ///
    /// # Errors
    /// Any transport, deadline, or protocol failure.
    fn probe(&self) -> Result<ProbeAck, NetError>;
}

/// One exchange started by [`NodeEndpoint::send`].
pub enum InFlight<'a> {
    /// The request is on the wire; the closure reads and decodes the
    /// reply. It holds whatever keeps that reply correlated — for
    /// [`TcpNodeClient`], the connection lock — so another exchange on the
    /// same endpoint waits until this one is read.
    Sent(Box<dyn FnOnce() -> Result<QueryReply, NetError> + 'a>),
    /// Nothing is sent yet: the closure makes the whole blocking call, on
    /// whichever thread runs it.
    Deferred(Box<dyn FnOnce() -> Result<QueryReply, NetError> + Send + 'a>),
}

impl InFlight<'_> {
    /// Finishes the exchange: reads the reply of a sent request, or makes
    /// the deferred call.
    ///
    /// # Errors
    /// Any transport, deadline, or protocol failure.
    pub fn wait(self) -> Result<QueryReply, NetError> {
        match self {
            Self::Sent(reply) => reply(),
            Self::Deferred(call) => call(),
        }
    }
}

/// Per-endpoint wire telemetry: actual bytes and frames on the socket
/// (headers included), detected timeouts, and established connections.
/// Over the query exchanges, the bytes equal what the coordinator's
/// `CommCost` counts; probe and control frames are only here.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Bytes written to the socket, frame headers included.
    pub bytes_out: AtomicU64,
    /// Bytes read from the socket, frame headers included.
    pub bytes_in: AtomicU64,
    /// Frames written.
    pub frames_out: AtomicU64,
    /// Frames read.
    pub frames_in: AtomicU64,
    /// Deadline misses detected (connect, write, or read).
    pub timeouts: AtomicU64,
    /// TCP connections established.
    pub connects: AtomicU64,
    /// Ring of recent frame-exchange log lines, for post-mortem dumps.
    recent: Mutex<VecDeque<String>>,
}

const FRAME_LOG_CAPACITY: usize = 256;

impl NetCounters {
    /// Total bytes that crossed the socket in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed) + self.bytes_in.load(Ordering::Relaxed)
    }

    fn log(&self, line: String) {
        let mut ring = self.recent.lock().expect("frame log lock poisoned");
        if ring.len() == FRAME_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(line);
    }

    /// The retained frame-exchange log, oldest first — dumped to the
    /// wire-log directory when a cluster smoke fails.
    pub fn frame_log(&self) -> Vec<String> {
        self.recent
            .lock()
            .expect("frame log lock poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

/// Registry handles for one node's `rbc_net_*` families, created
/// eagerly so every family is present in the exposition (and hence
/// visible to `promcheck --require`) even before its first event.
#[derive(Debug)]
struct RegCounters {
    frames_out: rbc_trace::Counter,
    frames_in: rbc_trace::Counter,
    bytes_out: rbc_trace::Counter,
    bytes_in: rbc_trace::Counter,
    timeouts: rbc_trace::Counter,
    connects: rbc_trace::Counter,
}

impl RegCounters {
    fn new(node: usize) -> Self {
        let node_label = node.to_string();
        let labels: &[(&str, &str)] = &[("node", node_label.as_str())];
        let reg = registry();
        Self {
            frames_out: reg.counter_with("rbc_net_frames_out_total", labels),
            frames_in: reg.counter_with("rbc_net_frames_in_total", labels),
            bytes_out: reg.counter_with("rbc_net_bytes_out_total", labels),
            bytes_in: reg.counter_with("rbc_net_bytes_in_total", labels),
            timeouts: reg.counter_with("rbc_net_timeouts_total", labels),
            connects: reg.counter_with("rbc_net_connects_total", labels),
        }
    }
}

/// Framed-TCP client for one node: a persistent connection (re-dialed
/// on demand with bounded retries), request-id correlation, and the
/// deadline behavior described on [the module](self).
///
/// [`send`](NodeEndpoint::send) writes the request frame at once and
/// keeps the connection locked until the reply is read, so exchanges on
/// one client never interleave. An exchange dropped unread drops its
/// connection too, so no stale reply is left on a live stream.
/// [`execute`](NodeEndpoint::execute) is `send` followed by `wait`.
#[derive(Debug)]
pub struct TcpNodeClient {
    node: usize,
    addr: SocketAddr,
    config: NetConfig,
    conn: Mutex<Option<TcpStream>>,
    next_request_id: AtomicU64,
    counters: Arc<NetCounters>,
    reg: RegCounters,
}

impl TcpNodeClient {
    /// A client for `node` at `addr`. No connection is dialed until the
    /// first exchange.
    pub fn new(node: usize, addr: SocketAddr, config: NetConfig) -> Self {
        Self {
            node,
            addr,
            config,
            conn: Mutex::new(None),
            next_request_id: AtomicU64::new(1),
            counters: Arc::new(NetCounters::default()),
            reg: RegCounters::new(node),
        }
    }

    /// The address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wire telemetry for this endpoint.
    pub fn counters(&self) -> Arc<NetCounters> {
        Arc::clone(&self.counters)
    }

    fn dial(&self) -> Result<TcpStream, NetError> {
        let mut backoff = self.config.connect_backoff;
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(self.config.read_timeout)
                        .map_err(NetError::Io)?;
                    stream
                        .set_write_timeout(self.config.write_timeout)
                        .map_err(NetError::Io)?;
                    stream.set_nodelay(true).map_err(NetError::Io)?;
                    self.counters.connects.fetch_add(1, Ordering::Relaxed);
                    self.reg.connects.inc();
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        let e = last.expect("at least one connect attempt");
        if is_timeout(&e) {
            self.on_timeout("connect");
            Err(NetError::Deadline("connect"))
        } else {
            Err(NetError::Io(e))
        }
    }

    fn on_timeout(&self, stage: &'static str) {
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        self.reg.timeouts.inc();
        self.counters
            .log(format!("node {} TIMEOUT during {stage}", self.node));
    }

    /// Writes one request frame and returns the exchange awaiting its
    /// reply.
    fn start(&self, kind: MsgKind, payload: &[u8]) -> Exchange<'_> {
        let parent = rbc_trace::current();
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let sent = Some(self.write_request(kind, request_id, payload));
        Exchange {
            client: self,
            parent,
            request_id,
            sent,
        }
    }

    /// Locks the connection (dialing it if needed) and writes the request
    /// frame; returns the locked connection and when the write began. On
    /// any failure the cached connection is dropped, so the next exchange
    /// re-dials a clean stream.
    fn write_request(
        &self,
        kind: MsgKind,
        request_id: u64,
        payload: &[u8],
    ) -> Result<(Connection<'_>, Instant), NetError> {
        let mut conn = self.conn.lock().expect("connection lock poisoned");
        if conn.is_none() {
            *conn = Some(self.dial()?);
        }
        let stream = conn.as_mut().expect("connection just established");
        let started = Instant::now();

        let send_result = {
            let _send_span = rbc_trace::span("net.send");
            write_frame(stream, kind, request_id, payload)
        };
        match send_result {
            Ok(bytes) => {
                self.counters.bytes_out.fetch_add(bytes, Ordering::Relaxed);
                self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
                self.reg.bytes_out.add(bytes);
                self.reg.frames_out.inc();
                self.counters.log(format!(
                    "node {} SEND {kind:?} id={request_id} bytes={bytes}",
                    self.node
                ));
                Ok((conn, started))
            }
            Err(e) => {
                *conn = None;
                if is_timeout(&e) {
                    self.on_timeout("send");
                    rbc_trace::record_interval("net.timeout", None, started, Instant::now());
                    return Err(NetError::Deadline("send"));
                }
                Err(NetError::Io(e))
            }
        }
    }

    /// One blocking request/reply exchange.
    fn call(&self, kind: MsgKind, payload: &[u8]) -> Result<(MsgKind, Vec<u8>), NetError> {
        self.start(kind, payload).finish()
    }

    fn expect_kind(
        &self,
        got: MsgKind,
        want: MsgKind,
        payload: Vec<u8>,
    ) -> Result<Vec<u8>, NetError> {
        if got == want {
            Ok(payload)
        } else {
            Err(NetError::Protocol(format!(
                "expected {want:?}, got {got:?}"
            )))
        }
    }

    /// Arms the node to hang mid-frame on every subsequent message — the
    /// failure-injection control for tests and the cluster smoke.
    ///
    /// # Errors
    /// Any transport, deadline, or protocol failure.
    pub fn hang(&self) -> Result<(), NetError> {
        let (kind, payload) = self.call(MsgKind::Hang, &[])?;
        self.expect_kind(kind, MsgKind::Ack, payload).map(|_| ())
    }

    /// Asks the node to stop serving and exit.
    ///
    /// # Errors
    /// Any transport, deadline, or protocol failure.
    pub fn shutdown(&self) -> Result<(), NetError> {
        let (kind, payload) = self.call(MsgKind::Shutdown, &[])?;
        self.expect_kind(kind, MsgKind::Ack, payload).map(|_| ())
    }
}

/// A client's connection slot, locked.
type Connection<'a> = MutexGuard<'a, Option<TcpStream>>;

/// One [`TcpNodeClient`] exchange after its request frame was written (or
/// failed to be), awaiting the reply that echoes `request_id`.
struct Exchange<'a> {
    client: &'a TcpNodeClient,
    /// The span current at send, which `net.recv` parents under too.
    parent: Option<rbc_trace::SpanCtx>,
    request_id: u64,
    /// The locked connection carrying the request and when it was written
    /// (a `net.timeout` interval starts there), or why the send failed;
    /// `None` once the reply is read.
    sent: Option<Result<(Connection<'a>, Instant), NetError>>,
}

impl Exchange<'_> {
    /// Reads the reply: its kind and payload, after the echoed request id
    /// and the node's error frames are checked.
    fn finish(mut self) -> Result<(MsgKind, Vec<u8>), NetError> {
        let (mut conn, started) = self.sent.take().expect("an exchange finishes once")?;
        let client = self.client;
        let request_id = self.request_id;
        let stream = conn.as_mut().expect("a sent request has a connection");
        let recv_result = {
            let _recv_span = rbc_trace::span_under("net.recv", self.parent);
            let mut reader = CountingReader::new(&mut *stream);
            read_frame(&mut reader)
        };
        match recv_result {
            Ok((frame, bytes)) => {
                client.counters.bytes_in.fetch_add(bytes, Ordering::Relaxed);
                client.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                client.reg.bytes_in.add(bytes);
                client.reg.frames_in.inc();
                client.counters.log(format!(
                    "node {} RECV {:?} id={} bytes={bytes}",
                    client.node, frame.kind, frame.request_id
                ));
                if frame.request_id != request_id {
                    *conn = None;
                    return Err(NetError::Protocol(format!(
                        "reply id {} for request {request_id}",
                        frame.request_id
                    )));
                }
                if frame.kind == MsgKind::Error {
                    return Err(NetError::Protocol(format!(
                        "node error: {}",
                        String::from_utf8_lossy(&frame.payload)
                    )));
                }
                Ok((frame.kind, frame.payload))
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                // The deadline fired: either no reply at all, or a peer
                // that went silent mid-frame. Both are failure detection.
                *conn = None;
                client.on_timeout("recv");
                rbc_trace::record_interval("net.timeout", None, started, Instant::now());
                Err(NetError::Deadline("recv"))
            }
            Err(e) => {
                *conn = None;
                Err(NetError::Frame(e))
            }
        }
    }
}

impl Drop for Exchange<'_> {
    /// A reply never read would answer the connection's next request, so
    /// an exchange dropped unread drops its connection.
    fn drop(&mut self) {
        if let Some(Ok((mut conn, _))) = self.sent.take() {
            *conn = None;
        }
    }
}

impl NodeEndpoint for TcpNodeClient {
    fn node(&self) -> usize {
        self.node
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError> {
        self.send(request).wait()
    }

    fn send<'a>(&'a self, request: &'a QueryRequest) -> InFlight<'a> {
        let exchange = self.start(MsgKind::Query, &request.encode());
        let queries = request.queries();
        InFlight::Sent(Box::new(move || {
            let (kind, payload) = exchange.finish()?;
            let payload = self.expect_kind(kind, MsgKind::Reply, payload)?;
            let reply = QueryReply::decode(&payload).map_err(NetError::Codec)?;
            if reply.results.len() != queries {
                return Err(NetError::Protocol(format!(
                    "{} result sets for {queries} queries",
                    reply.results.len()
                )));
            }
            Ok(reply)
        }))
    }

    fn probe(&self) -> Result<ProbeAck, NetError> {
        let (kind, payload) = self.call(MsgKind::Probe, &[])?;
        let payload = self.expect_kind(kind, MsgKind::ProbeAck, payload)?;
        ProbeAck::decode(&payload).map_err(NetError::Codec)
    }
}
