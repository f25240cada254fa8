//! The session front door: one session driver for every transport, and
//! the TCP + Unix-domain socket listener over one shared [`Service`].
//!
//! **The driver** (`drive`) runs every session — each socket connection
//! and [`Service::run_loop`] on stdin alike. It negotiates the codec from
//! the session's first byte ([`wire::PREAMBLE`] selects `OPTRR-WIRE v1`
//! binary frames, anything else begins the first framed-JSON line), then
//! reads, decodes, times, handles, encodes and sends one request at a
//! time through the [`Codec`] seam: blank lines are skipped, an invalid
//! request is answered `invalid_request` and the session continues, and
//! per-verb plus per-codec latency histograms are recorded for every
//! transport. A transport supplies only its reader, its drain flag
//! (polled on read timeouts; `Shutdown` sets it just before queueing
//! `Bye`), the network-only `conn_drop` fault ([`crate::faults`]) and its
//! response sink: stdin writes and flushes each response, a socket queues
//! it for its writer thread. Socket bytes are counted in
//! `serve_net_bytes_{in,out}_total`.
//!
//! **The listener** ([`NetServer::start`] on a [`ListenAddr`]) feeds a
//! bounded connection pool (`max_conns`; excess connections wait in the
//! OS backlog). Each connection gets a session thread plus a writer
//! thread behind a bounded queue (`conn_queue`), so responses come back
//! strictly in request order however deep a client pipelines, and a
//! client that stops reading blocks its own session, never the server's
//! memory. Both codecs deliver bitwise-identical requests, so a binary
//! session builds a byte-identical warm store to the same JSON session.
//! A `Shutdown` on any session drains the whole server: the accept loop
//! stops, idle sessions close after flushing, and [`NetServer::wait`]
//! force-closes stragglers after `drain_ms`.
//!
//! A transport failure — a torn length prefix, a checksum mismatch, a
//! JSON line over [`wire::MAX_FRAME_LEN`] bytes, a newline-free tail at
//! EOF that does not decode, an abrupt disconnect — ends *that* session
//! with a typed [`ServeError::Transport`] (answered best-effort with a
//! `code: "transport"` error; on sockets counted in
//! `serve_net_conn_errors_total`) and leaves the shared service fully
//! usable: sessions hold no service locks across requests. A newline-free
//! tail that does decode is the session's last request.

use crate::protocol::{Request, Response};
use crate::service::{ServeError, Service};
use crate::telemetry::ServeObs;
use crate::wire::{self, Codec, Inbound};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked reads wake up to poll the drain flag. Sessions
/// and the accept loop observe a drain within roughly this interval.
const POLL_MS: u64 = 25;

/// Stack size for session and writer threads: sessions are I/O loops
/// with small frames on the stack, so the default 8 MiB per thread
/// would waste address space across hundreds of connections.
const SESSION_STACK: usize = 512 * 1024;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address (`127.0.0.1:7171`, `[::1]:7171`, ...).
    Tcp(SocketAddr),
    /// A Unix-domain socket path. A stale file at the path is removed
    /// at bind time and the file is unlinked after drain.
    Unix(PathBuf),
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Configuration of the network front door (see `serve::env` for the
/// `OPTRR_SERVE_LISTEN` / `MAX_CONNS` / `CONN_QUEUE` / `DRAIN_MS`
/// environment knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// The listen address.
    pub listen: ListenAddr,
    /// Bound on concurrently served connections; excess connections
    /// wait in the OS accept backlog until a slot frees.
    pub max_conns: usize,
    /// Bound on each connection's queued-but-unwritten responses (the
    /// backpressure depth, in responses).
    pub conn_queue: usize,
    /// How long [`NetServer::wait`] lets in-flight sessions flush after
    /// drain is requested before force-closing their sockets.
    pub drain_ms: u64,
}

impl NetConfig {
    /// A configuration with the default pool bounds: 1024 connections,
    /// 64 queued responses per connection, 5-second drain grace.
    pub fn new(listen: ListenAddr) -> Self {
        Self {
            listen,
            max_conns: 1024,
            conn_queue: 64,
            drain_ms: 5_000,
        }
    }
}

/// The transports a session can run on, behind one object-safe
/// surface. Both [`TcpStream`] and [`UnixStream`] provide exactly
/// these operations; the session code is transport-agnostic.
trait SessionStream: Read + Write + Send {
    /// An independently owned handle to the same socket (for the
    /// writer thread and the force-close registry).
    fn try_clone_stream(&self) -> io::Result<Box<dyn SessionStream>>;
    /// Bounds blocking reads so sessions can poll the drain flag.
    fn set_read_timeout_stream(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Closes both directions, unblocking any reader or writer.
    fn shutdown_stream(&self) -> io::Result<()>;
}

macro_rules! session_stream {
    ($($stream:ty),*) => {$(
        impl SessionStream for $stream {
            fn try_clone_stream(&self) -> io::Result<Box<dyn SessionStream>> {
                Ok(Box::new(self.try_clone()?))
            }

            fn set_read_timeout_stream(&self, timeout: Option<Duration>) -> io::Result<()> {
                self.set_read_timeout(timeout)
            }

            fn shutdown_stream(&self) -> io::Result<()> {
                self.shutdown(std::net::Shutdown::Both)
            }
        }
    )*};
}

session_stream!(TcpStream, UnixStream);

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn bind(listen: &ListenAddr) -> io::Result<Self> {
        match listen {
            ListenAddr::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            ListenAddr::Unix(path) => {
                // A stale socket file from a previous process would fail
                // the bind; remove it first (binding a *live* path still
                // fails on most systems once the file is gone mid-run,
                // and two live servers on one path is an operator error
                // this module does not try to detect).
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn SessionStream>> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Accepted sockets inherit the listener's non-blocking
                // flag on some platforms; sessions want blocking reads
                // bounded by a timeout instead.
                stream.set_nonblocking(false)?;
                Ok(Box::new(stream))
            }
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Box::new(stream))
            }
        }
    }

    fn local_tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A session thread that panicked while holding one of the server's
    // bookkeeping locks must not wedge drain; the maps hold only
    // handles, so the data is valid regardless.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct NetShared {
    service: Arc<Service>,
    config: NetConfig,
    draining: AtomicBool,
    active: AtomicU64,
    conn_seq: AtomicU64,
    /// Socket handles of live sessions, for the post-deadline
    /// force-close. Sessions remove themselves on exit.
    conns: Mutex<HashMap<u64, Box<dyn SessionStream>>>,
    /// Session thread handles, joined by [`NetServer::wait`].
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

impl NetShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// The running network front door. Dropping the handle does not stop
/// the server; call [`NetServer::request_drain`] (or send a `Shutdown`
/// request over any connection) and then [`NetServer::wait`].
pub struct NetServer {
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    local_tcp: Option<SocketAddr>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("listen", &self.shared.config.listen)
            .field("active", &self.shared.active.load(Ordering::SeqCst))
            .field("draining", &self.shared.draining())
            .finish()
    }
}

impl NetServer {
    /// Binds the listener and spawns the accept loop over a shared
    /// service.
    pub fn start(service: Arc<Service>, config: NetConfig) -> io::Result<Self> {
        let listener = Listener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let local_tcp = listener.local_tcp_addr();
        let shared = Arc::new(NetShared {
            service,
            config,
            draining: AtomicBool::new(false),
            active: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            sessions: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("optrr-net-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))
            .expect("spawning the accept thread succeeds");
        Ok(Self {
            shared,
            accept: Some(accept),
            local_tcp,
        })
    }

    /// The bound TCP address (with the OS-assigned port when the
    /// configuration asked for port 0); `None` for Unix listeners.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_tcp
    }

    /// The effective listen address — the configured one with the
    /// OS-assigned TCP port resolved.
    pub fn listen_addr(&self) -> ListenAddr {
        match (&self.shared.config.listen, self.local_tcp) {
            (ListenAddr::Tcp(_), Some(addr)) => ListenAddr::Tcp(addr),
            (listen, _) => listen.clone(),
        }
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Puts the server into drain: the accept loop stops and sessions
    /// close after flushing. Idempotent; also triggered by any
    /// session's `Shutdown` request.
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Blocks until the server has drained: waits for a `Shutdown`
    /// request or [`NetServer::request_drain`], gives in-flight
    /// sessions `drain_ms` to flush, force-closes stragglers, and joins
    /// every thread. Returns the number of sessions served.
    pub fn wait(mut self) -> u64 {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + Duration::from_millis(self.shared.config.drain_ms);
        while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        // Force-close whatever is still open; their session threads
        // observe the closed socket at the next read or write.
        for (_, stream) in lock(&self.shared.conns).drain() {
            let _ = stream.shutdown_stream();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.shared.sessions).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        if let ListenAddr::Unix(path) = &self.shared.config.listen {
            let _ = std::fs::remove_file(path);
        }
        self.shared.conn_seq.load(Ordering::SeqCst)
    }
}

fn accept_loop(shared: Arc<NetShared>, listener: Listener) {
    loop {
        if shared.draining() {
            break;
        }
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_conns as u64 {
            // The pool is full: stop accepting and let the backlog hold
            // arrivals until a session finishes.
            thread::sleep(Duration::from_millis(1));
            continue;
        }
        match listener.accept() {
            Ok(stream) => spawn_session(&shared, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(POLL_MS.min(5)));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                thread::sleep(Duration::from_millis(POLL_MS));
            }
        }
    }
    // Dropping the listener closes it; for Unix sockets the file is
    // unlinked by `wait`.
}

fn spawn_session(shared: &Arc<NetShared>, stream: Box<dyn SessionStream>) {
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    let obs = shared.service.obs();
    obs.net_conns.inc();
    let now_active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
    obs.connections_active.set(now_active);
    let retire = |shared: &Arc<NetShared>| {
        let now = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
        shared.service.obs().connections_active.set(now);
    };
    let registered = stream
        .set_read_timeout_stream(Some(Duration::from_millis(POLL_MS)))
        .and_then(|_| stream.try_clone_stream());
    let handle = match registered {
        Ok(clone) => {
            lock(&shared.conns).insert(conn_id, clone);
            let session_shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("optrr-net-conn-{conn_id}"))
                .stack_size(SESSION_STACK)
                .spawn(move || {
                    run_session(&session_shared, stream, conn_id);
                    lock(&session_shared.conns).remove(&conn_id);
                    retire(&session_shared);
                })
        }
        Err(_) => {
            retire(shared);
            return;
        }
    };
    match handle {
        Ok(handle) => lock(&shared.sessions).push(handle),
        Err(_) => {
            // Spawn failure (thread exhaustion): the connection is
            // dropped; `stream` was moved into the failed closure and
            // is already gone, so just fix the accounting.
            lock(&shared.conns).remove(&conn_id);
            retire(shared);
        }
    }
}

fn run_session(shared: &Arc<NetShared>, stream: Box<dyn SessionStream>, conn_id: u64) {
    let obs = Arc::clone(shared.service.obs());
    let writer_stream = match stream.try_clone_stream() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(shared.config.conn_queue);
    let writer_obs = Arc::clone(&obs);
    let writer = thread::Builder::new()
        .name(format!("optrr-net-write-{conn_id}"))
        .stack_size(SESSION_STACK)
        .spawn(move || writer_loop(rx, writer_stream, writer_obs));
    let Ok(writer) = writer else { return };

    let mut reader = BufReader::new(CountingReader {
        stream,
        obs: Arc::clone(&obs),
    });
    let mut socket = Socket {
        shared,
        conn_id,
        tx,
    };
    if drive(&shared.service, &mut reader, &shared.draining, &mut socket).is_err() {
        obs.net_conn_errors.inc();
    }
    // Dropping the queue's sender lets the writer flush and exit.
    drop(socket);
    let _ = writer.join();
    // Closing our half unblocks a client still waiting on reads.
    let _ = reader.get_ref().stream.shutdown_stream();
}

/// A socket's read half; every byte read off it is counted in
/// `serve_net_bytes_in_total`.
struct CountingReader {
    stream: Box<dyn SessionStream>,
    obs: Arc<ServeObs>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.obs.net_bytes_in.add(n as u64);
        Ok(n)
    }
}

// ---- the session driver -----------------------------------------------------

/// What a transport contributes to a session besides its reader and its
/// drain flag. Everything else — codec negotiation, decoding, timing,
/// handling, encoding — is [`drive`]'s, the same for every transport.
pub(crate) trait Transport {
    /// Writes or queues one encoded response, in request order; an error
    /// ends the session torn.
    fn send(&mut self, response: Vec<u8>) -> io::Result<()>;

    /// Sends a torn session's final error response, best effort.
    fn send_last(&mut self, response: Vec<u8>) {
        let _ = self.send(response);
    }

    /// Whether to hang up instead of handling request `index` (the
    /// network-only `conn_drop` fault site).
    fn drop_before(&mut self, _index: u64) -> bool {
        false
    }
}

/// The stdio transport: responses are written and flushed one by one.
pub(crate) struct Stdio<W>(pub(crate) W);

impl<W: Write> Transport for Stdio<W> {
    fn send(&mut self, response: Vec<u8>) -> io::Result<()> {
        self.0.write_all(&response)?;
        self.0.flush()
    }
}

/// The socket transport: responses go through the bounded queue to the
/// connection's writer thread.
struct Socket<'a> {
    shared: &'a NetShared,
    conn_id: u64,
    tx: SyncSender<Vec<u8>>,
}

impl Transport for Socket<'_> {
    fn send(&mut self, response: Vec<u8>) -> io::Result<()> {
        // A send fails only when the writer died (the client stopped
        // reading and went away).
        self.tx.send(response).map_err(|_| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                "response writer closed mid-session",
            )
        })
    }

    fn send_last(&mut self, response: Vec<u8>) {
        // Never block on a full queue: the client may have stopped
        // reading, and the session is closing anyway.
        let _ = self.tx.try_send(response);
    }

    fn drop_before(&mut self, index: u64) -> bool {
        let dropped = self
            .shared
            .service
            .fault_injector()
            .is_some_and(|injector| injector.conn_drop(self.conn_id, index));
        if dropped {
            // Hang up abruptly, exercising the torn-frame cleanup end to
            // end: the client sees EOF, not a response.
            if let Some(stream) = lock(&self.shared.conns).get(&self.conn_id) {
                let _ = stream.shutdown_stream();
            }
        }
        dropped
    }
}

/// Runs one session (see the module docs) until the client closes,
/// `drain` is set while the session is idle, or `Shutdown` answers `Bye`.
/// A transport failure is answered with a best-effort `transport` error
/// in the session's codec and returned.
pub(crate) fn drive<R: BufRead>(
    service: &Arc<Service>,
    reader: &mut R,
    drain: &AtomicBool,
    transport: &mut impl Transport,
) -> Result<(), ServeError> {
    let mut codec = Codec::Json;
    let result = serve_requests(service, reader, drain, transport, &mut codec);
    if let Err(error) = &result {
        transport.send_last(codec.encode_response(&Response::Error {
            reason: error.to_string(),
            code: error.code().to_string(),
        }));
    }
    result
}

fn serve_requests<R: BufRead>(
    service: &Arc<Service>,
    reader: &mut R,
    drain: &AtomicBool,
    transport: &mut impl Transport,
    codec: &mut Codec,
) -> Result<(), ServeError> {
    let Some(negotiated) = poll(drain, || Codec::negotiate(reader))?.flatten() else {
        return Ok(());
    };
    *codec = negotiated;
    let obs = service.obs();
    let mut index: u64 = 0;
    loop {
        let request = match poll(drain, || codec.read_request(reader))? {
            None | Some(Inbound::End) => return Ok(()),
            Some(Inbound::Blank) => continue,
            Some(Inbound::Frame(request)) => request,
        };
        if transport.drop_before(index) {
            return Err(ServeError::Transport(format!(
                "injected connection drop before request {index}"
            )));
        }
        index += 1;
        let response = match request {
            // The timing wraps `handle` only when recording is on, so a
            // metrics-off session takes zero clock reads per request.
            Ok(request) if obs.enabled() => {
                let verb = request.verb_index();
                let start_ns = obs.now_ns();
                let response = service.handle(request);
                obs.record_latency(verb, *codec, obs.now_ns().saturating_sub(start_ns));
                response
            }
            Ok(request) => service.handle(request),
            Err(reason) => Response::Error {
                reason,
                code: "invalid_request".to_string(),
            },
        };
        let bye = response == Response::Bye;
        if bye {
            // The drain flag flips before `Bye` is sent, so a client that
            // has read its `Bye` always observes the drain.
            drain.store(true, Ordering::SeqCst);
        }
        transport
            .send(codec.encode_response(&response))
            .map_err(|e| ServeError::Transport(format!("sending a response: {e}")))?;
        if bye {
            return Ok(());
        }
    }
}

/// Runs one framed read, retrying read timeouts at a frame boundary
/// until it completes. `Ok(None)`: a drain is due and the session is
/// idle, so it closes.
fn poll<T>(
    drain: &AtomicBool,
    mut read: impl FnMut() -> io::Result<T>,
) -> Result<Option<T>, ServeError> {
    loop {
        match read() {
            Ok(value) => return Ok(Some(value)),
            Err(e) if wire::is_poll_timeout(&e) => {
                if drain.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(ServeError::Transport(e.to_string())),
        }
    }
}

fn writer_loop(rx: Receiver<Vec<u8>>, mut stream: Box<dyn SessionStream>, obs: Arc<ServeObs>) {
    loop {
        let Ok(mut pending) = rx.recv() else {
            // Session over: everything queued was written.
            let _ = stream.flush();
            return;
        };
        loop {
            if stream.write_all(&pending).is_err() {
                // Dropping the receiver makes the session's next send
                // fail, ending it with a typed transport error.
                return;
            }
            obs.net_bytes_out.add(pending.len() as u64);
            match rx.try_recv() {
                Ok(next) => pending = next,
                Err(_) => break,
            }
        }
        if stream.flush().is_err() {
            return;
        }
    }
}

// ---- client -----------------------------------------------------------------

/// A blocking protocol client for either transport and codec — what the
/// `bench_net` load generator and the integration tests drive sessions
/// with, and a reference for external client implementations.
pub struct NetClient {
    reader: BufReader<Box<dyn SessionStream>>,
    writer: Box<dyn SessionStream>,
    codec: Codec,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("codec", &self.codec)
            .finish()
    }
}

impl NetClient {
    /// Connects to a server and negotiates the codec (binary clients
    /// send the [`wire::PREAMBLE`] byte; JSON clients send nothing).
    pub fn connect(addr: &ListenAddr, codec: Codec) -> io::Result<Self> {
        let stream: Box<dyn SessionStream> = match addr {
            ListenAddr::Tcp(addr) => Box::new(TcpStream::connect(addr)?),
            ListenAddr::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        let mut writer = stream.try_clone_stream()?;
        if codec == Codec::Binary {
            writer.write_all(&[wire::PREAMBLE])?;
        }
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            codec,
        })
    }

    /// The negotiated codec.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Sends one request without waiting for the response — the
    /// pipelining half; pair with [`NetClient::recv`] in request order.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let bytes = self
            .codec
            .encode_request(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.writer.write_all(&bytes)
    }

    /// Receives one response (in request order).
    pub fn recv(&mut self) -> io::Result<Response> {
        self.codec.read_response(&mut self.reader)
    }

    /// One full round trip.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Writes raw bytes to the connection — the integration tests use
    /// this to produce torn frames and half-written lines on purpose.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Closes both directions immediately (an abrupt client hang-up).
    pub fn hang_up(&mut self) {
        let _ = self.writer.shutdown_stream();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn tiny_server(seed: u64) -> (NetServer, ListenAddr) {
        let service = Arc::new(Service::new(ServiceConfig::smoke(seed)));
        let config = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
        let server = NetServer::start(service, config).expect("bind succeeds");
        let addr = server.listen_addr();
        (server, addr)
    }

    #[test]
    fn listen_addr_renders_both_transports() {
        let tcp = ListenAddr::Tcp("127.0.0.1:7171".parse().unwrap());
        assert_eq!(tcp.to_string(), "127.0.0.1:7171");
        let unix = ListenAddr::Unix(PathBuf::from("/tmp/optrr.sock"));
        assert_eq!(unix.to_string(), "unix:/tmp/optrr.sock");
    }

    #[test]
    fn net_config_defaults_are_bounded() {
        let config = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
        assert_eq!(config.max_conns, 1024);
        assert_eq!(config.conn_queue, 64);
        assert_eq!(config.drain_ms, 5_000);
    }

    #[test]
    fn a_session_round_trips_and_shutdown_drains() {
        let (server, addr) = tiny_server(11);
        let mut client = NetClient::connect(&addr, Codec::Json).unwrap();
        let response = client
            .request(&Request::Register {
                name: Some("demo".into()),
                prior: vec![0.4, 0.3, 0.2, 0.1],
                delta: 0.8,
                slots: Some(60),
                lazy: None,
            })
            .unwrap();
        assert!(matches!(response, Response::Registered { warm: true, .. }));
        let response = client
            .request(&Request::BestForPrivacy {
                key: None,
                name: Some("demo".into()),
                min_privacy: 0.05,
            })
            .unwrap();
        assert!(matches!(response, Response::Matrix { .. }));
        assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::Bye);
        assert_eq!(server.wait(), 1, "one session was served");
    }

    #[test]
    fn request_drain_stops_an_idle_server() {
        let (server, _) = tiny_server(12);
        assert!(!server.is_draining());
        server.request_drain();
        assert!(server.is_draining());
        assert_eq!(server.wait(), 0);
    }
}
