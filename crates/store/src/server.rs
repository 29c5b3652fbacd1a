//! TCP front end for a [`ResultStore`]: a readiness-driven event loop
//! with switchless calls.
//!
//! Deploys the store on a dedicated endpoint (the paper's two-machine
//! setup, §V-A). Each connection runs an attested handshake — the client
//! sends its quote, the server replies with its own — after which all
//! messages travel AES-GCM sealed inside length-prefixed frames.
//!
//! # Architecture
//!
//! A small fixed set of I/O threads multiplexes every connection through
//! poll(2) readiness notifications (the `poller` module). Each connection
//! carries a state machine (handshake → established → closing) with
//! non-blocking partial-frame reader/writer buffers
//! ([`speed_wire::frame::FrameReader`]/[`FrameWriter`]) and a per-frame
//! deadline, so a stalled or hostile peer can pin neither a thread nor a
//! connection slot. The thread budget is O(`io_threads`), not
//! O(connections).
//!
//! Hot-path requests (GET/PUT/batch) take the *switchless* path: the I/O
//! thread posts the decoded request on its lane and waits while a resident
//! in-enclave worker serves it without any ECALL/OCALL world switch (the
//! `switchless` module). Cold requests, and hot ones whose worker is gone,
//! take the classic ECALL path inline on the I/O thread.
//!
//! Handshake wire format (plaintext frames, authenticity provided by the
//! quotes themselves):
//!
//! 1. client → server: `client_quote` bytes
//! 2. server → client: `server_quote` bytes — **or** a plaintext
//!    [`Message::Error`] frame instead: the busy frame when the connection
//!    budget is saturated, so clients can tell "busy" from "attestation
//!    failed" and retry, or a refusal naming both protocol versions when
//!    the client's quote attests another [`PROTOCOL_VERSION`].
//!
//! Each side runs its half of the one handshake as one ECALL:
//! [`SessionAuthority::connect`] on the client, [`SessionAuthority::accept`]
//! on the server. Each quote binds its side's [`PROTOCOL_VERSION`] and 32
//! fresh random bytes, so every connection gets a key of its own, and each
//! side refuses a peer of another version before any data-plane frame.
//!
//! [`PROTOCOL_VERSION`]: speed_wire::PROTOCOL_VERSION

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use speed_enclave::attestation::Quote;
use speed_enclave::Platform;
use speed_telemetry::{names, Counter, Gauge};
use speed_wire::frame::{
    read_frame, write_frame, FrameProgress, FrameReader, FrameWriter,
};
use speed_wire::{
    from_bytes, to_bytes, ChannelError, Message, SecureChannel, SessionAuthority,
};

use crate::poller::{poll, PollFd, WakePipe, POLLIN, POLLOUT};
use crate::store::ResultStore;
use crate::switchless::{spawn_worker, Lane};
use crate::StoreError;

/// Reason string carried by the plaintext busy frame a saturated server
/// sends before closing (clients map it to [`StoreError::Busy`]).
pub const SERVER_BUSY_REASON: &str = "server busy: connection budget saturated";

/// How long a refused connection may take to drain its plaintext error
/// frame before the server gives up and closes it anyway.
const BUSY_LINGER: Duration = Duration::from_secs(1);

/// Default per-frame deadline (also bounds the handshake).
const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Event-loop poll period when no deadline is nearer — a safety net only;
/// wake pipes pop the loop out of poll for shutdown and routed connections.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Configuration for the server's event loop and switchless calls.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Event-loop threads multiplexing connections. The server's thread
    /// budget is `io_threads` (+ as many switchless workers) regardless
    /// of connection count.
    pub io_threads: usize,
    /// Maximum concurrently open connections. Beyond the budget, new
    /// connections receive a plaintext busy frame and are closed
    /// (counted in [`ServerStats::rejected`]).
    pub max_connections: usize,
    /// Serve hot-path requests through a resident worker per I/O thread
    /// (zero world switches) instead of per-request ECALLs.
    pub switchless: bool,
    /// Deadline for completing one frame (and the handshake). A peer
    /// stalling mid-frame longer than this is disconnected, so a
    /// slow-loris client cannot pin a connection slot.
    pub frame_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_threads: 2,
            max_connections: 1024,
            switchless: true,
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
        }
    }
}

/// A point-in-time snapshot of one server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections currently open.
    pub active: u64,
    /// High-water mark of concurrently open connections.
    pub peak: u64,
    /// Connections accepted and served over the server's lifetime.
    pub accepted: u64,
    /// Connections refused with a busy frame (budget saturated).
    pub rejected: u64,
    /// Connections dropped on a protocol violation.
    pub protocol_errors: u64,
    /// Connections dropped by the per-frame deadline.
    pub frame_timeouts: u64,
    /// Requests posted to a resident switchless worker.
    pub switchless_requests: u64,
    /// Hot-path requests served by the classic ECALL path because their
    /// I/O thread's worker was gone.
    pub switchless_fallbacks: u64,
}

/// Process-unique server instance ids for the `server` telemetry label —
/// two servers in one process must never share (and stomp) a series.
static SERVER_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Per-server counters: connection occupancy, mirrored into per-instance
/// labelled gauges, and this server's cells of the per-instance labelled
/// event counter series.
#[derive(Debug)]
struct ServerCounters {
    active: AtomicU64,
    peak: AtomicU64,
    accepted: Counter,
    rejected: Counter,
    protocol_errors: Counter,
    frame_timeouts: Counter,
    switchless_requests: Counter,
    switchless_fallbacks: Counter,
    active_tm: Gauge,
    peak_tm: Gauge,
}

impl ServerCounters {
    fn register(instance: u64, io_threads: usize) -> Self {
        let registry = speed_telemetry::global();
        let id = instance.to_string();
        let labels: &[(&str, &str)] = &[("server", &id)];
        registry
            .gauge_with(
                names::SERVER_IO_THREADS,
                "I/O event-loop threads owned by one server",
                labels,
            )
            .set(io_threads as u64);
        ServerCounters {
            active: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            accepted: registry.counter_with(
                names::SERVER_CONNECTIONS_ACCEPTED_TOTAL,
                "Connections accepted over the server's lifetime",
                labels,
            ),
            rejected: registry.counter_with(
                names::SERVER_CONNECTIONS_REJECTED_TOTAL,
                "Connections refused with a busy frame (budget saturated)",
                labels,
            ),
            protocol_errors: registry.counter_with(
                names::SERVER_PROTOCOL_ERRORS_TOTAL,
                "Connections dropped on a protocol violation",
                labels,
            ),
            frame_timeouts: registry.counter_with(
                names::SERVER_FRAME_TIMEOUTS_TOTAL,
                "Connections dropped by the per-frame deadline",
                labels,
            ),
            switchless_requests: registry.counter_with(
                names::SWITCHLESS_REQUESTS_TOTAL,
                "Requests posted to a resident switchless worker",
                labels,
            ),
            switchless_fallbacks: registry.counter_with(
                names::SWITCHLESS_FALLBACKS_TOTAL,
                "Hot-path requests served by ECALL because their worker was gone",
                labels,
            ),
            active_tm: registry.gauge_with(
                names::SERVER_CONNECTIONS_ACTIVE,
                "Connections currently open",
                labels,
            ),
            peak_tm: registry.gauge_with(
                names::SERVER_CONNECTIONS_PEAK,
                "High-water mark of concurrently open connections",
                labels,
            ),
        }
    }

    fn conn_opened(&self) {
        self.accepted.inc();
        let live = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.active_tm.set(live);
        let peak = self.peak.fetch_max(live, Ordering::Relaxed).max(live);
        self.peak_tm.set(peak);
    }

    fn conn_closed(&self) {
        let live = self.active.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        self.active_tm.set(live);
    }
}

/// State shared by every I/O thread of one server.
#[derive(Debug)]
struct Shared {
    store: Arc<ResultStore>,
    platform: Arc<Platform>,
    authority: Arc<SessionAuthority>,
    config: ServerConfig,
    shutdown: AtomicBool,
    counters: ServerCounters,
    /// Connections the acceptor routed to each I/O thread.
    inboxes: Vec<Mutex<VecDeque<TcpStream>>>,
    wakers: Vec<WakePipe>,
}

/// A running TCP store server.
///
/// Dropping the handle signals shutdown and joins every thread.
#[derive(Debug)]
pub struct StoreServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io_handles: Vec<JoinHandle<()>>,
    /// Resident switchless workers, one per I/O thread (none when
    /// switchless calls are off).
    workers: Vec<JoinHandle<()>>,
}

impl StoreServer {
    /// Spawns a server for `store` listening on `bind_addr` with the
    /// default [`ServerConfig`] (use port 0 for an ephemeral port; the
    /// bound address is available via [`addr`](StoreServer::addr)).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if binding fails.
    pub fn spawn(
        store: Arc<ResultStore>,
        platform: Arc<Platform>,
        authority: Arc<SessionAuthority>,
        bind_addr: &str,
    ) -> Result<Self, StoreError> {
        Self::spawn_with_config(
            store,
            platform,
            authority,
            bind_addr,
            ServerConfig::default(),
        )
    }

    /// Spawns a server with an explicit [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if binding fails or a thread cannot be
    /// spawned.
    pub fn spawn_with_config(
        store: Arc<ResultStore>,
        platform: Arc<Platform>,
        authority: Arc<SessionAuthority>,
        bind_addr: &str,
        mut config: ServerConfig,
    ) -> Result<Self, StoreError> {
        config.io_threads = config.io_threads.max(1);
        config.max_connections = config.max_connections.max(1);
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let instance = SERVER_INSTANCE.fetch_add(1, Ordering::Relaxed);
        let wakers =
            (0..config.io_threads).map(|_| WakePipe::new()).collect::<Result<_, _>>()?;
        let shared = Arc::new(Shared {
            store,
            platform,
            authority,
            config,
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::register(instance, config.io_threads),
            inboxes: (0..config.io_threads)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            wakers,
        });

        // Built up in place so that an early return joins every thread
        // already spawned (through `Drop`).
        let mut server = StoreServer {
            addr,
            shared: Arc::clone(&shared),
            io_handles: Vec::new(),
            workers: Vec::new(),
        };
        for index in 0..config.io_threads {
            let lane = if config.switchless {
                let (lane, worker) = spawn_worker(Arc::clone(&shared.store), index)?;
                server.workers.push(worker);
                Some(lane)
            } else {
                None
            };
            let shared = Arc::clone(&shared);
            // The listener lives on thread 0; it routes accepted
            // connections round-robin across all I/O threads.
            let listener = (index == 0).then(|| listener.try_clone()).transpose()?;
            let io_thread = IoThread {
                index,
                shared,
                listener,
                lane,
                conns: Vec::new(),
                free: Vec::new(),
                route_next: 0,
            };
            let io_thread = std::thread::Builder::new()
                .name(format!("speed-io-{index}"))
                .spawn(move || io_thread.run())?;
            server.io_handles.push(io_thread);
        }
        Ok(server)
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        let counters = &self.shared.counters;
        ServerStats {
            active: counters.active.load(Ordering::Relaxed),
            peak: counters.peak.load(Ordering::Relaxed),
            accepted: counters.accepted.get(),
            rejected: counters.rejected.get(),
            protocol_errors: counters.protocol_errors.get(),
            frame_timeouts: counters.frame_timeouts.get(),
            switchless_requests: counters.switchless_requests.get(),
            switchless_fallbacks: counters.switchless_fallbacks.get(),
        }
    }

    /// Total threads this server runs (I/O threads + switchless workers).
    /// Constant for the server's lifetime — the budget the churn test
    /// holds the server to, independent of connection count.
    pub fn thread_count(&self) -> usize {
        self.io_handles.len() + self.workers.len()
    }

    /// Signals shutdown and waits for every thread to finish.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for waker in &self.shared.wakers {
            waker.wake();
        }
        // An I/O thread drops its lane as it exits, which ends its worker.
        for handle in self.io_handles.drain(..).chain(self.workers.drain(..)) {
            let _ = handle.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Connection lifecycle states.
#[derive(Debug)]
enum ConnState {
    /// Waiting for the client's quote frame.
    Handshake,
    /// Attested; all frames are sealed on this channel.
    Open(Box<SecureChannel>),
    /// Draining a final plaintext frame (busy reject), then closing.
    Closing,
}

/// Why a connection is being closed (drives which counter ticks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CloseReason {
    /// Clean close: peer hung up, busy frame drained, or I/O error.
    Normal,
    /// Protocol violation (bad quote, bad seal, bad frame).
    Protocol,
    /// Per-frame deadline expired.
    Deadline,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    state: ConnState,
    reader: FrameReader,
    writer: FrameWriter,
    /// Armed while a frame (or the handshake) is in progress; expiry
    /// closes the connection.
    deadline: Option<Instant>,
    /// Whether this connection occupies the connection budget (busy
    /// rejects do not).
    counted: bool,
}

/// One event-loop thread: owns a slab of connections, its wake pipe, its
/// switchless lane, and (thread 0 only) the listener.
struct IoThread {
    index: usize,
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    /// The call path to this thread's resident worker, when switchless
    /// calls are on.
    lane: Option<Lane>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Round-robin cursor for routing accepted connections (thread 0).
    route_next: usize,
}

/// What a pollfd entry refers to.
#[derive(Clone, Copy)]
enum PollSource {
    Waker,
    Listener,
    Conn(usize),
}

impl IoThread {
    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let waker = &shared.wakers[self.index];
        let mut fds: Vec<PollFd> = Vec::new();
        let mut sources: Vec<PollSource> = Vec::new();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            fds.clear();
            sources.clear();
            fds.push(PollFd::new(waker.poll_fd(), POLLIN));
            sources.push(PollSource::Waker);
            if let Some(listener) = &self.listener {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                sources.push(PollSource::Listener);
            }
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                // Closing connections stay readable so inbound bytes are
                // discarded — unread data at close would turn into an RST
                // that destroys the in-flight busy frame.
                let mut events = POLLIN;
                if conn.writer.has_pending() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                sources.push(PollSource::Conn(slot));
            }

            let _ = poll(&mut fds, self.poll_timeout_ms());
            if self.shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            waker.drain();
            self.drain_inbox();
            for entry in 0..fds.len() {
                let fd = fds[entry];
                if fd.revents == 0 {
                    continue;
                }
                match sources[entry] {
                    PollSource::Waker => {}
                    PollSource::Listener => self.accept_ready(),
                    PollSource::Conn(slot) => {
                        // A slot freed earlier in this sweep may have been
                        // re-used by an accept; the fd tells them apart.
                        let current = self
                            .conns
                            .get(slot)
                            .and_then(|c| c.as_ref())
                            .map(|c| c.stream.as_raw_fd());
                        if current != Some(fd.fd) {
                            continue;
                        }
                        if fd.writable() {
                            self.flush_writer(slot);
                        }
                        if self.conns[slot].is_some() && fd.readable() {
                            self.handle_readable(slot);
                        }
                    }
                }
            }
            self.expire_deadlines();
        }
        // Account every still-open connection before the thread exits so
        // the active gauge lands on zero.
        for conn in self.conns.iter().flatten() {
            if conn.counted {
                self.shared.counters.conn_closed();
            }
        }
    }

    /// The nearest deadline bounds the poll sleep; wake pipes cover every
    /// other event source.
    fn poll_timeout_ms(&self) -> i32 {
        let nearest = self.conns.iter().flatten().filter_map(|conn| conn.deadline).min();
        let cap = match nearest {
            Some(deadline) => {
                deadline.saturating_duration_since(Instant::now()).min(IDLE_POLL)
            }
            None => IDLE_POLL,
        };
        // +1 rounds sub-millisecond remainders up so expiry checks run
        // after the deadline, not busily just before it.
        (cap.as_millis() as i32).saturating_add(1)
    }

    fn drain_inbox(&mut self) {
        loop {
            let stream = {
                let mut inbox = self.shared.inboxes[self.index]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                inbox.pop_front()
            };
            match stream {
                Some(stream) => {
                    self.install(stream, true);
                }
                None => break,
            }
        }
    }

    fn accept_ready(&mut self) {
        let io_threads = self.shared.config.io_threads;
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let active = self.shared.counters.active.load(Ordering::Relaxed);
                    if active >= self.shared.config.max_connections as u64 {
                        self.busy_reject(stream);
                        continue;
                    }
                    self.shared.counters.conn_opened();
                    let target = self.route_next % io_threads;
                    self.route_next = self.route_next.wrapping_add(1);
                    if target == self.index {
                        self.install(stream, true);
                    } else {
                        self.shared.inboxes[target]
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push_back(stream);
                        self.shared.wakers[target].wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Refuses a connection with the plaintext busy frame — the client
    /// gets a definite "busy, retry" instead of an unexplained reset.
    fn busy_reject(&mut self, stream: TcpStream) {
        self.shared.counters.rejected.inc();
        let slot = self.install(stream, false);
        self.refuse(slot, SERVER_BUSY_REASON);
    }

    /// Queues a plaintext error frame in place of the server's quote and
    /// keeps the connection just long enough to drain it. Returns false
    /// when the connection was closed.
    fn refuse(&mut self, slot: usize, reason: &str) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else { return false };
        conn.state = ConnState::Closing;
        conn.deadline = Some(Instant::now() + BUSY_LINGER);
        if conn.writer.queue(&to_bytes(&Message::Error(reason.to_string()))).is_err() {
            self.close(slot, CloseReason::Normal);
            return false;
        }
        self.flush_writer(slot);
        self.conns[slot].is_some()
    }

    fn install(&mut self, stream: TcpStream, counted: bool) -> usize {
        let _ = stream.set_nonblocking(true);
        let conn = Conn {
            stream,
            state: ConnState::Handshake,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            // The handshake must complete within the frame deadline.
            deadline: Some(Instant::now() + self.shared.config.frame_timeout),
            counted,
        };
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    fn close(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.conns[slot].take() else { return };
        self.free.push(slot);
        if conn.counted {
            self.shared.counters.conn_closed();
        }
        match reason {
            CloseReason::Normal => {}
            CloseReason::Protocol => self.shared.counters.protocol_errors.inc(),
            CloseReason::Deadline => self.shared.counters.frame_timeouts.inc(),
        }
    }

    fn handle_readable(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_ref() {
            if matches!(conn.state, ConnState::Closing) {
                self.drain_closing(slot);
                return;
            }
        }
        loop {
            let progress = {
                let Some(conn) = self.conns[slot].as_mut() else { return };
                if matches!(conn.state, ConnState::Closing) {
                    return;
                }
                conn.reader.poll(&mut conn.stream)
            };
            match progress {
                Ok(FrameProgress::Frame(frame)) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.deadline = None;
                    }
                    if !self.dispatch(slot, frame) {
                        return;
                    }
                }
                Ok(FrameProgress::Pending) => {
                    let Some(conn) = self.conns[slot].as_mut() else { return };
                    // Arm the per-frame deadline the moment a frame is
                    // partially read: a slow-loris peer holding one header
                    // byte gets `frame_timeout`, not forever.
                    if conn.reader.mid_frame() && conn.deadline.is_none() {
                        conn.deadline =
                            Some(Instant::now() + self.shared.config.frame_timeout);
                    }
                    return;
                }
                Ok(FrameProgress::Closed) => {
                    self.close(slot, CloseReason::Normal);
                    return;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    // Oversized declared length or mid-frame truncation.
                    self.close(slot, CloseReason::Protocol);
                    return;
                }
                Err(_) => {
                    self.close(slot, CloseReason::Normal);
                    return;
                }
            }
        }
    }

    /// Processes one complete frame. Returns false when the connection
    /// was closed.
    fn dispatch(&mut self, slot: usize, frame: Vec<u8>) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else { return false };
        match &mut conn.state {
            ConnState::Handshake => self.finish_handshake(slot, &frame),
            ConnState::Open(channel) => {
                let request_bytes = match channel.open_message(&frame) {
                    Ok(bytes) => bytes,
                    Err(_) => {
                        self.close(slot, CloseReason::Protocol);
                        return false;
                    }
                };
                let request: Message = match from_bytes(&request_bytes) {
                    Ok(message) => message,
                    Err(_) => {
                        self.close(slot, CloseReason::Protocol);
                        return false;
                    }
                };
                self.serve_request(slot, request)
            }
            ConnState::Closing => true,
        }
    }

    fn finish_handshake(&mut self, slot: usize, frame: &[u8]) -> bool {
        let shared = Arc::clone(&self.shared);
        let accepted = Quote::from_bytes(frame).map_err(ChannelError::from).and_then(
            |client_quote| {
                shared.authority.accept(
                    &shared.platform,
                    shared.store.enclave(),
                    &client_quote,
                )
            },
        );
        match accepted {
            Ok((channel, server_quote)) => {
                let Some(conn) = self.conns[slot].as_mut() else { return false };
                conn.state = ConnState::Open(Box::new(channel));
                conn.deadline = None;
                if conn.writer.queue(&server_quote.to_bytes()).is_err() {
                    self.close(slot, CloseReason::Normal);
                    return false;
                }
                self.flush_writer(slot);
                self.conns[slot].is_some()
            }
            // A peer of another protocol version would misread the data
            // plane: refuse it, naming both versions, before any sealed frame.
            Err(refusal @ ChannelError::Version { .. }) => {
                shared.counters.protocol_errors.inc();
                self.refuse(slot, &refusal.to_string())
            }
            Err(_) => {
                self.close(slot, CloseReason::Protocol);
                false
            }
        }
    }

    /// Serves a decoded request and returns false when the connection was
    /// closed. A hot-path op is a switchless call on this thread's lane;
    /// anything else, or a hot op whose worker is gone, is an inline ECALL.
    fn serve_request(&mut self, slot: usize, request: Message) -> bool {
        let hot = matches!(
            request,
            Message::GetRequest { .. }
                | Message::PutRequest { .. }
                | Message::PutPrefiltered { .. }
                | Message::BatchRequest { .. }
        );
        let response = match &self.lane {
            Some(lane) if hot => match lane.call(request) {
                Ok(Some(response)) => {
                    self.shared.counters.switchless_requests.inc();
                    response
                }
                Ok(None) => {
                    // The worker died serving it: the request is lost, and
                    // the client's resilience layer retries it.
                    self.shared.counters.switchless_requests.inc();
                    self.close(slot, CloseReason::Normal);
                    return false;
                }
                Err(request) => {
                    self.shared.counters.switchless_fallbacks.inc();
                    self.shared.store.handle(request)
                }
            },
            _ => self.shared.store.handle(request),
        };
        self.respond(slot, &response)
    }

    /// Seals and queues a response frame. Returns false when the
    /// connection was closed.
    fn respond(&mut self, slot: usize, response: &Message) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else { return false };
        let ConnState::Open(channel) = &mut conn.state else { return false };
        let sealed = channel.seal_message(&to_bytes(response));
        if conn.writer.queue(&sealed).is_err() {
            self.close(slot, CloseReason::Normal);
            return false;
        }
        self.flush_writer(slot);
        self.conns[slot].is_some()
    }

    /// Pushes buffered bytes. A closing connection is *not* closed when
    /// its busy frame drains: closing with the peer's quote still unread
    /// would RST the socket and destroy the frame in flight. It lingers —
    /// discarding inbound bytes — until the peer hangs up or the linger
    /// deadline fires.
    fn flush_writer(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        match conn.writer.flush(&mut conn.stream) {
            Ok(_) => {} // POLLOUT re-armed next iteration if pending
            Err(_) => self.close(slot, CloseReason::Normal),
        }
    }

    /// Reads and discards inbound bytes on a closing connection; EOF or an
    /// error finishes the close.
    fn drain_closing(&mut self, slot: usize) {
        use std::io::Read;
        let mut scratch = [0u8; 4096];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else { return };
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    self.close(slot, CloseReason::Normal);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot, CloseReason::Normal);
                    return;
                }
            }
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<(usize, bool)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                let deadline = conn.deadline?;
                (deadline <= now)
                    .then_some((slot, matches!(conn.state, ConnState::Closing)))
            })
            .collect();
        for (slot, closing) in expired {
            // A busy-reject that never drained is a normal close, not a
            // frame timeout.
            let reason =
                if closing { CloseReason::Normal } else { CloseReason::Deadline };
            self.close(slot, reason);
        }
    }
}

/// Client-side connection to a [`StoreServer`]: the TCP framing around
/// the client half of the handshake ([`SessionAuthority::connect`]).
#[derive(Debug)]
pub struct TcpStoreClient {
    stream: TcpStream,
    channel: SecureChannel,
}

impl TcpStoreClient {
    /// Connects and runs the attested handshake.
    ///
    /// `identity` is the client enclave whose report is presented;
    /// `platform` hosts it; `authority` must be the same authority the
    /// server trusts.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on connection failure,
    /// [`StoreError::Busy`] when the server refuses with a busy frame
    /// (transient — retry after a backoff), or [`StoreError::Protocol`]
    /// if attestation fails or the two sides speak different
    /// [`PROTOCOL_VERSION`](speed_wire::PROTOCOL_VERSION)s (the message
    /// names both).
    pub fn connect(
        addr: SocketAddr,
        platform: &Platform,
        identity: &speed_enclave::Enclave,
        authority: &SessionAuthority,
    ) -> Result<Self, StoreError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // Bound every read: a store that dies mid-frame (or hangs) must
        // surface as an error the resilience layer can degrade on, not as
        // a client blocked forever.
        stream.set_read_timeout(Some(DEFAULT_FRAME_TIMEOUT)).ok();
        let channel = authority.connect(platform, identity, |client_quote| {
            write_frame(&mut stream, &client_quote.to_bytes())?;
            let reply = read_frame(&mut stream)?;
            // Not a quote: the server refused the handshake with a plaintext
            // error frame. Only the busy frame is transient.
            Quote::from_bytes(&reply).map_err(|quote_err| {
                match from_bytes::<Message>(&reply) {
                    Ok(Message::Error(reason)) if reason == SERVER_BUSY_REASON => {
                        StoreError::Busy(reason)
                    }
                    Ok(Message::Error(reason)) => StoreError::Protocol(reason),
                    _ => StoreError::Protocol(quote_err.to_string()),
                }
            })
        })?;
        Ok(TcpStoreClient { stream, channel })
    }

    /// Sends `request` and waits for the response (synchronous, like the
    /// paper's prototype).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on stream failure or
    /// [`StoreError::Protocol`] on channel/codec violations.
    pub fn roundtrip(&mut self, request: &Message) -> Result<Message, StoreError> {
        let sealed = self.channel.seal_message(&to_bytes(request));
        write_frame(&mut self.stream, &sealed)?;
        let sealed_response = read_frame(&mut self.stream)?;
        let response_bytes = self.channel.open_message(&sealed_response)?;
        from_bytes(&response_bytes).map_err(|e| StoreError::Protocol(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use speed_enclave::attestation::{create_report, REPORT_DATA_LEN};
    use speed_enclave::CostModel;
    use speed_wire::{AppId, BatchItem, BatchStatus, CompTag, Record, PROTOCOL_VERSION};

    fn setup() -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>, StoreServer) {
        setup_with_config(ServerConfig::default())
    }

    fn setup_with_config(
        config: ServerConfig,
    ) -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>, StoreServer) {
        setup_on(Arc::new(crate::MemoryBackend), config)
    }

    fn setup_on(
        backend: Arc<dyn crate::StoreBackend>,
        config: ServerConfig,
    ) -> (Arc<Platform>, Arc<ResultStore>, Arc<SessionAuthority>, StoreServer) {
        let platform = Platform::new(CostModel::default_sgx());
        let (store, _) =
            ResultStore::open(&platform, StoreConfig::default(), backend).unwrap();
        let store = Arc::new(store);
        let authority = Arc::new(SessionAuthority::with_seed(11));
        let server = StoreServer::spawn_with_config(
            Arc::clone(&store),
            Arc::clone(&platform),
            Arc::clone(&authority),
            "127.0.0.1:0",
            config,
        )
        .unwrap();
        (platform, store, authority, server)
    }

    fn sample_record() -> Record {
        Record {
            challenge: vec![9u8; 32],
            wrapped_key: [8u8; 16],
            nonce: [7u8; 12],
            boxed_result: vec![6u8; 40],
        }
    }

    #[test]
    fn tcp_put_get_roundtrip() {
        let (platform, _store, authority, server) = setup();
        let app_enclave = platform.create_enclave(b"tcp-client-app").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &app_enclave, &authority)
                .unwrap();

        let tag = CompTag::from_bytes([5u8; 32]);
        let miss = client.roundtrip(&Message::GetRequest { app: AppId(1), tag }).unwrap();
        assert!(matches!(miss, Message::GetResponse(b) if !b.found));

        let put = client
            .roundtrip(&Message::PutRequest {
                app: AppId(1),
                tag,
                record: sample_record(),
            })
            .unwrap();
        assert!(matches!(put, Message::PutResponse(b) if b.accepted));

        let hit = client.roundtrip(&Message::GetRequest { app: AppId(1), tag }).unwrap();
        match hit {
            Message::GetResponse(body) => {
                assert!(body.found);
                assert_eq!(body.record.unwrap(), sample_record());
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_state() {
        let (platform, _store, authority, server) = setup();
        let e1 = platform.create_enclave(b"client-1").unwrap();
        let e2 = platform.create_enclave(b"client-2").unwrap();
        let mut c1 =
            TcpStoreClient::connect(server.addr(), &platform, &e1, &authority).unwrap();
        let mut c2 =
            TcpStoreClient::connect(server.addr(), &platform, &e2, &authority).unwrap();

        let tag = CompTag::from_bytes([1u8; 32]);
        c1.roundtrip(&Message::PutRequest {
            app: AppId(1),
            tag,
            record: sample_record(),
        })
        .unwrap();
        let hit = c2.roundtrip(&Message::GetRequest { app: AppId(2), tag }).unwrap();
        assert!(matches!(hit, Message::GetResponse(b) if b.found));
        server.shutdown();
    }

    #[test]
    fn stats_over_tcp() {
        let (platform, _store, authority, server) = setup();
        let enclave = platform.create_enclave(b"stats-client").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        let tag = CompTag::from_bytes([2u8; 32]);
        client
            .roundtrip(&Message::PutRequest {
                app: AppId(1),
                tag,
                record: sample_record(),
            })
            .unwrap();
        let stats = client.roundtrip(&Message::StatsRequest).unwrap();
        assert!(
            matches!(stats, Message::StatsResponse(b) if b.puts == 1 && b.entries == 1)
        );
        server.shutdown();
    }

    #[test]
    fn batched_requests_roundtrip_over_tcp() {
        let (platform, _store, authority, server) = setup();
        let enclave = platform.create_enclave(b"batch-client").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        let tag = CompTag::from_bytes([6u8; 32]);
        let response = client
            .roundtrip(&Message::BatchRequest {
                app: AppId(1),
                items: vec![
                    BatchItem::Put { tag, record: sample_record() },
                    BatchItem::Get { tag },
                ],
            })
            .unwrap();
        match response {
            Message::BatchResponse(results) => {
                assert_eq!(results.len(), 2);
                assert!(results[1].record.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_idle_connections_promptly() {
        let (platform, _store, authority, server) = setup();
        let e1 = platform.create_enclave(b"idle-1").unwrap();
        let e2 = platform.create_enclave(b"idle-2").unwrap();
        let mut c1 =
            TcpStoreClient::connect(server.addr(), &platform, &e1, &authority).unwrap();
        let mut c2 =
            TcpStoreClient::connect(server.addr(), &platform, &e2, &authority).unwrap();
        // Both connections are now idle between requests — they sit in
        // the poll set with no deadline armed.
        c1.roundtrip(&Message::StatsRequest).unwrap();
        c2.roundtrip(&Message::StatsRequest).unwrap();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown must join the event loop within a wakeup, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn client_sees_error_when_server_dies_between_requests() {
        let (platform, _store, authority, server) = setup();
        let enclave = platform.create_enclave(b"orphan-client").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        client.roundtrip(&Message::StatsRequest).unwrap();

        server.shutdown();
        let start = std::time::Instant::now();
        let result = client.roundtrip(&Message::GetRequest {
            app: AppId(1),
            tag: CompTag::from_bytes([4u8; 32]),
        });
        assert!(result.is_err(), "round-trip against a dead server must error");
        assert!(
            start.elapsed() < DEFAULT_FRAME_TIMEOUT + Duration::from_secs(1),
            "the error must arrive within the frame timeout, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn connection_churn_keeps_thread_budget_fixed() {
        // The thread-per-connection design grew one thread per client;
        // the event loop's budget must stay O(io_threads) through churn.
        let (platform, _store, authority, server) = setup();
        let budget = server.thread_count();
        assert_eq!(
            budget,
            ServerConfig::default().io_threads * 2,
            "io threads plus one switchless worker each"
        );
        let enclave = platform.create_enclave(b"churn-client").unwrap();
        let churn = 40usize;
        for _ in 0..churn {
            let mut client =
                TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                    .unwrap();
            client.roundtrip(&Message::StatsRequest).unwrap();
            // Connection drops here; the event loop reaps it on hangup.
        }
        assert_eq!(
            server.thread_count(),
            budget,
            "thread budget is a constant, not O(connections)"
        );
        // Give the event loop a few wakeups to notice the hangups.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let stats = server.stats();
            if stats.active == 0 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, churn as u64, "every connection was served");
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.active, 0, "all connections reaped after churn");
        assert!(
            stats.peak <= 4,
            "sequential churn keeps few connections open, peak was {}",
            stats.peak
        );
        server.shutdown();
    }

    #[test]
    fn saturated_budget_sends_busy_frame() {
        let (platform, _store, authority, server) = setup_with_config(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let e1 = platform.create_enclave(b"holder").unwrap();
        let mut holder =
            TcpStoreClient::connect(server.addr(), &platform, &e1, &authority).unwrap();
        holder.roundtrip(&Message::StatsRequest).unwrap();

        // The budget's one slot is held open; the next connection must be
        // told "busy" — distinguishable from attestation failure.
        let e2 = platform.create_enclave(b"overflow").unwrap();
        let overflow = TcpStoreClient::connect(server.addr(), &platform, &e2, &authority);
        match overflow {
            Err(StoreError::Busy(reason)) => {
                assert_eq!(reason, SERVER_BUSY_REASON);
            }
            other => panic!("expected a busy error, got {other:?}"),
        }
        assert!(server.stats().rejected >= 1);

        // The held connection still works, and capacity frees on disconnect.
        holder.roundtrip(&Message::StatsRequest).unwrap();
        drop(holder);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let served = loop {
            let attempt =
                TcpStoreClient::connect(server.addr(), &platform, &e2, &authority)
                    .ok()
                    .and_then(|mut client| client.roundtrip(&Message::StatsRequest).ok());
            if attempt.is_some() {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(served, "slot must free after the holder disconnects");
        server.shutdown();
    }

    #[test]
    fn wrong_authority_fails_handshake() {
        let (platform, _store, _authority, server) = setup();
        let rogue_authority = SessionAuthority::with_seed(999);
        let enclave = platform.create_enclave(b"rogue").unwrap();
        // The server rejects the rogue quote and drops the connection, so
        // either the handshake or the first roundtrip fails.
        let result =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &rogue_authority);
        match result {
            Err(_) => {}
            Ok(mut client) => {
                let tag = CompTag::from_bytes([3u8; 32]);
                assert!(client
                    .roundtrip(&Message::GetRequest { app: AppId(1), tag })
                    .is_err());
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().protocol_errors == 0 && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.stats().protocol_errors >= 1);
        server.shutdown();
    }

    #[test]
    fn a_peer_of_another_protocol_version_gets_no_session() {
        let (platform, _store, authority, server) = setup();
        // A client from before the version field attests all-zero report
        // data: it gets a refusal naming both versions instead of a quote,
        // so it never derives a session key, and the server hangs up.
        let enclave = platform.create_enclave(b"old-client").unwrap();
        let report = create_report(&platform, &enclave, &[0u8; REPORT_DATA_LEN]);
        let quote = authority.service().quote(&platform, &report).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut stream, &quote.to_bytes()).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert!(Quote::from_bytes(&reply).is_err(), "no server quote");
        match from_bytes::<Message>(&reply) {
            Ok(Message::Error(reason)) => assert_eq!(
                reason,
                format!(
                    "protocol version mismatch: client speaks 0, server speaks \
                     {PROTOCOL_VERSION}"
                )
            ),
            other => panic!("expected a version refusal, got {other:?}"),
        }
        assert!(read_frame(&mut stream).is_err(), "the server hangs up");
        assert_eq!(server.stats().protocol_errors, 1);

        // A current client still connects and is served.
        let enclave = platform.create_enclave(b"current-client").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        assert!(matches!(
            client.roundtrip(&Message::StatsRequest),
            Ok(Message::StatsResponse(_))
        ));
        server.shutdown();
    }

    #[test]
    fn a_client_refuses_a_server_of_another_protocol_version() {
        let platform = Platform::new(CostModel::default_sgx());
        let authority = SessionAuthority::with_seed(12);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let enclave = platform.create_enclave(b"old-server").unwrap();
        let old_quote = authority
            .service()
            .quote(&platform, &create_report(&platform, &enclave, &[0; REPORT_DATA_LEN]))
            .unwrap()
            .to_bytes();
        let mismatch =
            |client, server| ChannelError::Version { client, server }.to_string();
        let newer = mismatch(PROTOCOL_VERSION, PROTOCOL_VERSION + 1);
        // A server from before the version field answers with its quote; a
        // newer one refuses with a plaintext error. Neither reads as busy.
        let replies = [old_quote, to_bytes(&Message::Error(newer.clone()))];
        let peer = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                let quote = Quote::from_bytes(&read_frame(&mut stream).unwrap()).unwrap();
                assert_eq!(quote.report_data[..4], PROTOCOL_VERSION.to_le_bytes());
                write_frame(&mut stream, &reply).unwrap();
            }
        });
        let client = platform.create_enclave(b"current-client").unwrap();
        let expected = [mismatch(PROTOCOL_VERSION, 0), newer];
        for reason in expected {
            match TcpStoreClient::connect(addr, &platform, &client, &authority) {
                Err(StoreError::Protocol(got)) => assert_eq!(got, reason),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
        peer.join().unwrap();
    }

    #[test]
    fn switchless_hot_path_crosses_zero_transitions() {
        let (platform, store, authority, server) = setup();
        let enclave = platform.create_enclave(b"switchless-client").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        let tag = CompTag::from_bytes([9u8; 32]);
        client
            .roundtrip(&Message::PutRequest {
                app: AppId(1),
                tag,
                record: sample_record(),
            })
            .unwrap();
        // Each resident worker enters with one ECALL, and the handshake
        // took one more. The PUT above reached only this connection's
        // worker, so wait for the others too.
        let workers = server.thread_count() - ServerConfig::default().io_threads;
        let deadline = Instant::now() + Duration::from_secs(2);
        while store.enclave().stats().ecalls != workers as u64 + 1 {
            assert!(Instant::now() < deadline, "resident workers never entered");
            std::thread::sleep(Duration::from_micros(200));
        }

        let before = store.enclave().stats();
        let ops = 25u64;
        for _ in 0..ops {
            let hit =
                client.roundtrip(&Message::GetRequest { app: AppId(1), tag }).unwrap();
            assert!(matches!(hit, Message::GetResponse(b) if b.found));
        }
        // Replayed and hinted PUTs arrive as one-item batches; they take
        // the lane like every other data-plane request.
        let put = client
            .roundtrip(&Message::BatchRequest {
                app: AppId(1),
                items: vec![BatchItem::Put {
                    tag: CompTag::from_bytes([10u8; 32]),
                    record: sample_record(),
                }],
            })
            .unwrap();
        assert!(
            matches!(put, Message::BatchResponse(r) if r[0].status == BatchStatus::Accepted)
        );
        let after = store.enclave().stats();
        assert_eq!(
            after.transitions(),
            before.transitions(),
            "hot-path GETs and PUTs must not cost world switches"
        );
        assert!(
            after.switchless_calls > before.switchless_calls + ops,
            "each request is served switchlessly"
        );
        assert!(server.stats().switchless_requests > ops);
        assert_eq!(server.stats().switchless_fallbacks, 0);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_share_one_lane() {
        // One I/O thread, so one worker serves four clients at once:
        // correctness must not depend on how their requests interleave.
        let (platform, _store, authority, server) =
            setup_with_config(ServerConfig { io_threads: 1, ..ServerConfig::default() });
        let mut handles = Vec::new();
        for worker in 0..4u8 {
            let addr = server.addr();
            let platform = Arc::clone(&platform);
            let authority = Arc::clone(&authority);
            handles.push(std::thread::spawn(move || {
                let enclave = platform.create_enclave(&[b'f', b'b', worker]).unwrap();
                let mut client =
                    TcpStoreClient::connect(addr, &platform, &enclave, &authority)
                        .unwrap();
                for i in 0..10u8 {
                    let tag = CompTag::from_bytes([worker.wrapping_mul(16) + i; 32]);
                    let put = client
                        .roundtrip(&Message::PutRequest {
                            app: AppId(u64::from(worker)),
                            tag,
                            record: sample_record(),
                        })
                        .unwrap();
                    assert!(matches!(put, Message::PutResponse(b) if b.accepted));
                    let get = client
                        .roundtrip(&Message::GetRequest {
                            app: AppId(u64::from(worker)),
                            tag,
                        })
                        .unwrap();
                    assert!(matches!(get, Message::GetResponse(b) if b.found));
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.switchless_requests, 80);
        assert_eq!(stats.switchless_fallbacks, 0);
        server.shutdown();
    }

    /// A durable backend whose first `record_put` panics, killing the
    /// switchless worker that serves that PUT.
    #[derive(Debug, Default)]
    struct FirstPutPanics(AtomicBool);

    impl crate::StoreBackend for FirstPutPanics {
        fn name(&self) -> &'static str {
            "first-put-panics"
        }

        fn is_durable(&self) -> bool {
            true
        }

        fn open(
            &self,
            _platform: &Arc<Platform>,
            _enclave: &Arc<speed_enclave::Enclave>,
        ) -> Result<crate::Recovery, StoreError> {
            Ok(crate::Recovery::default())
        }

        fn record_put(&self, _entry: &speed_wire::SyncEntry) -> Result<(), StoreError> {
            if !self.0.swap(true, Ordering::Relaxed) {
                panic!("injected switchless worker death");
            }
            Ok(())
        }

        fn record_delete(&self, _tag: &CompTag) -> Result<(), StoreError> {
            Ok(())
        }

        fn flush(&self) -> Result<(), StoreError> {
            Ok(())
        }

        fn checkpoint(
            &self,
            _export: &dyn Fn() -> Vec<Vec<speed_wire::SyncEntry>>,
        ) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn a_hot_request_whose_worker_is_gone_is_served_by_ecall() {
        let (platform, store, authority, server) = setup_on(
            Arc::new(FirstPutPanics::default()),
            ServerConfig { io_threads: 1, ..ServerConfig::default() },
        );
        let enclave = platform.create_enclave(b"worker-gone-client").unwrap();
        let put =
            |tag| Message::PutRequest { app: AppId(1), tag, record: sample_record() };

        // The worker dies serving this PUT: the request is lost and its
        // connection closed.
        let mut doomed =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        assert!(doomed.roundtrip(&put(CompTag::from_bytes([11u8; 32]))).is_err());

        // Later hot requests on that I/O thread take the classic ECALL.
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        let tag = CompTag::from_bytes([12u8; 32]);
        let before = store.enclave().stats();
        let accepted = client.roundtrip(&put(tag)).unwrap();
        assert!(matches!(accepted, Message::PutResponse(b) if b.accepted));
        let hit = client.roundtrip(&Message::GetRequest { app: AppId(1), tag }).unwrap();
        assert!(matches!(hit, Message::GetResponse(b) if b.found));
        let after = store.enclave().stats();
        assert!(
            after.transitions() > before.transitions(),
            "the fallback pays world switches"
        );
        let stats = server.stats();
        assert_eq!(stats.switchless_requests, 1);
        assert_eq!(stats.switchless_fallbacks, 2);
        server.shutdown();
    }

    #[test]
    fn attested_handshake_enters_both_enclaves() {
        // No resident workers, whose own entry ECALLs would race the count.
        let (platform, store, authority, server) = setup_with_config(ServerConfig {
            switchless: false,
            ..ServerConfig::default()
        });
        let enclave = platform.create_enclave(b"handshake-client").unwrap();
        let (store_before, client_before) = (store.enclave().stats(), enclave.stats());
        let modeled_before = platform.clock().total_ns();
        let _client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        // The server enters before it answers, so its count is settled.
        assert_eq!(store.enclave().stats().ecalls, store_before.ecalls + 1);
        assert_eq!(enclave.stats().ecalls, client_before.ecalls + 1);
        assert!(
            platform.clock().total_ns() > modeled_before,
            "a handshake costs modeled time"
        );
        server.shutdown();
    }

    #[test]
    fn switchless_disabled_still_serves() {
        let (platform, store, authority, server) = setup_with_config(ServerConfig {
            switchless: false,
            ..ServerConfig::default()
        });
        assert_eq!(server.thread_count(), ServerConfig::default().io_threads);
        let enclave = platform.create_enclave(b"classic-client").unwrap();
        let mut client =
            TcpStoreClient::connect(server.addr(), &platform, &enclave, &authority)
                .unwrap();
        let tag = CompTag::from_bytes([8u8; 32]);
        let before = store.enclave().stats();
        client
            .roundtrip(&Message::PutRequest {
                app: AppId(1),
                tag,
                record: sample_record(),
            })
            .unwrap();
        let after = store.enclave().stats();
        assert!(
            after.transitions() > before.transitions(),
            "the classic path pays world switches"
        );
        assert_eq!(server.stats().switchless_requests, 0);
        server.shutdown();
    }
}
