//! The multi-client frame server.
//!
//! Two interchangeable connection backends sit behind one
//! [`FrameServer`] front:
//!
//! - [`ServeBackend::Threaded`] — the original topology: one acceptor
//!   thread, one handler thread per admitted connection running a strict
//!   request/reply loop.
//! - [`ServeBackend::Reactor`] — the event-driven topology (unix only):
//!   one reactor thread multiplexes *all* connections through
//!   per-connection state machines over non-blocking sockets and a
//!   `poll(2)` readiness loop ([`crate::poll`]), and a small fixed pool
//!   of worker threads runs the actual request handlers. Thread count is
//!   `workers + 1`, independent of how many clients connect.
//!
//! Both backends share everything below the accept layer: one
//! [`ExtractionCache`], one per-server metrics [`Registry`] (counters
//! under the `serve.*` names in [`crate::stats`]), and the single
//! `respond` request handler — so the wire behavior, the `Stats`
//! shape, and every served byte are identical across backends. The
//! server owns the *partitioned* data — the density-sorted stores
//! produced by preprocessing — and extracts hybrid frames on demand at
//! whatever threshold a client dials, which is exactly the paper's
//! split: preprocessing near the simulation, compact hybrid frames
//! shipped to the desktop.
//!
//! Protection: the server sheds rather than degrades. Past
//! [`ServerConfig::max_connections`] a new connection gets one in-band
//! `ERR_BUSY` (with a retry-after hint) and is closed — answered from a
//! small bounded pool (threaded) or inline in the reactor loop, never
//! from per-connection threads, so a connect flood cannot mint threads.
//! Past [`ServerConfig::max_inflight_extractions`] a frame request that
//! would start a *new* extraction gets `ERR_BUSY` on its live connection
//! (cached and coalescing requests are always admitted — they are
//! cheap). A panicking request handler is isolated: the client gets
//! `ERR_INTERNAL`, the connection and the listener survive. Repeated
//! `accept(2)` failures (fd exhaustion) back off exponentially and are
//! counted under `serve.accept_errors` instead of hot-spinning. Shutdown
//! wakes the acceptor deterministically through a self-pipe and drains
//! in-flight replies before returning, bounded by
//! [`ServerConfig::drain_timeout`].
//!
//! Scale-out: N of these servers can sit behind one
//! [`crate::router::FrameRouter`], each owning a rendezvous-hashed slice
//! of the catalog — clients speak the identical protocol to the router
//! and cannot tell the difference (`crate::router`).

use crate::cache::{CacheKey, ExtractionCache, Probe, ServedFrame};
use crate::error::ServeError;
use crate::fault::{FaultScript, FaultyTransport};
use crate::protocol::{
    write_response, write_response_v, FrameInfo, Request, Response, ERR_BAD_REQUEST,
    ERR_BAD_THRESHOLD, ERR_BUSY, ERR_INTERNAL, ERR_NO_SUCH_FRAME,
};
use crate::stats::{
    ServerStats, CTR_BYTES_SENT, CTR_CACHE_HITS, CTR_CACHE_MISSES, CTR_FRAMES_SERVED,
    CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_FRAME_ENCODES, CTR_HANDLER_PANICS,
    CTR_LOD_BYTES_WIRE, CTR_LOD_CHUNKS, CTR_LOD_REQUESTS, CTR_REQUESTS, CTR_SHED_CONNECTIONS,
    CTR_SHED_EXTRACTIONS, HIST_LATENCY,
};
use crate::wire::{encode_frame_envelope, V1, V2, VERSION};
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::extraction::{threshold_for_budget, threshold_for_budget_tree};
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which connection machinery a [`FrameServer`] runs. The wire protocol,
/// shedding behavior, and `Stats` shape are identical either way; only
/// the threading topology differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeBackend {
    /// One OS thread per admitted connection (the original topology).
    /// The only backend on non-unix platforms.
    Threaded,
    /// One reactor thread multiplexing all connections over `poll(2)`
    /// plus a fixed pool of [`ServerConfig::worker_threads`] request
    /// workers. Unix only; falls back to [`ServeBackend::Threaded`]
    /// elsewhere.
    Reactor,
}

impl ServeBackend {
    /// The backend chosen by the `ACCELVIZ_SERVE_BACKEND` environment
    /// variable (`"threaded"` / `"reactor"`), defaulting to the reactor
    /// on unix and the threaded backend elsewhere. This is what
    /// [`ServerConfig::default`] uses, so the whole test suite (and the
    /// CI backend matrix) can steer every server in the process.
    pub fn from_env() -> ServeBackend {
        ServeBackend::from_env_value(std::env::var("ACCELVIZ_SERVE_BACKEND").ok().as_deref())
    }

    fn from_env_value(value: Option<&str>) -> ServeBackend {
        match value {
            Some("threaded") => ServeBackend::Threaded,
            Some("reactor") => ServeBackend::Reactor,
            _ if cfg!(unix) => ServeBackend::Reactor,
            _ => ServeBackend::Threaded,
        }
    }
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Extractions the shared cache holds. Each entry also keeps the
    /// encoded reply envelope for every protocol version it has been
    /// served at, so the cache holds at most this many frames plus one
    /// envelope per negotiated version each; eviction frees both.
    pub cache_capacity: usize,
    /// Resolution of the density volume in served frames.
    pub volume_dims: [usize; 3],
    /// Point budget behind the catalog's suggested threshold.
    pub point_budget: usize,
    /// How long a worker blocks reading a request before the connection
    /// is dropped; `None` waits forever. Without a bound, a client that
    /// connects and goes silent (or dribbles bytes) pins its
    /// thread-per-connection worker — or its reactor connection slot —
    /// indefinitely.
    pub read_timeout: Option<Duration>,
    /// Same bound for writes (a client that stops draining its socket).
    pub write_timeout: Option<Duration>,
    /// Connections served concurrently; past this, new arrivals get one
    /// in-band `ERR_BUSY` and are closed (thread-per-connection must not
    /// become thread-per-attacker).
    pub max_connections: usize,
    /// Frame requests allowed to start *new* extractions concurrently;
    /// past this they are shed with `ERR_BUSY` on their live connection.
    /// Cached and coalescing requests are always admitted.
    pub max_inflight_extractions: usize,
    /// How long shutdown waits for in-flight replies to finish.
    pub drain_timeout: Duration,
    /// Which connection backend to run; defaults from
    /// [`ServeBackend::from_env`].
    pub backend: ServeBackend,
    /// Request-handler threads the reactor backend runs (clamped to at
    /// least 1). The threaded backend ignores this — its handler count
    /// is its connection count.
    pub worker_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_capacity: 8,
            volume_dims: [16, 16, 16],
            point_budget: 1_000,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
            max_inflight_extractions: 8,
            drain_timeout: Duration::from_secs(1),
            backend: ServeBackend::from_env(),
            worker_threads: 4,
        }
    }
}

/// Where the server's frames live: fully resident in memory (the
/// original topology — every partitioned store loaded up front), or
/// backed by an on-disk run whose particle data pages in and out under
/// [`ResidentRun`]'s byte budget. The request handlers are written
/// against this enum, so an out-of-core server speaks the identical
/// protocol and serves bit-identical frames.
pub(crate) enum Backend {
    /// Every frame's partitioned store held in memory.
    Resident(Vec<PartitionedData>),
    /// Frames fetched on demand from an `accelviz-store` run file.
    Stored(Arc<ResidentRun>),
}

impl Backend {
    fn frame_count(&self) -> usize {
        match self {
            Backend::Resident(data) => data.len(),
            Backend::Stored(run) => run.frame_count(),
        }
    }

    /// The frame catalog. The stored backend answers from directory
    /// metadata and the always-resident octrees — no particle I/O.
    fn frame_infos(&self, point_budget: usize) -> Vec<FrameInfo> {
        match self {
            Backend::Resident(data) => data
                .iter()
                .enumerate()
                .map(|(i, d)| FrameInfo {
                    frame: i as u32,
                    step: i as u64,
                    particles: d.particles().len() as u64,
                    default_threshold: threshold_for_budget(d, point_budget),
                })
                .collect(),
            Backend::Stored(run) => (0..run.frame_count())
                .map(|i| FrameInfo {
                    frame: i as u32,
                    step: i as u64,
                    particles: run.particle_count(i),
                    default_threshold: threshold_for_budget_tree(&run.tree(i).0, point_budget),
                })
                .collect(),
        }
    }
}

/// The state both backends (and every handler) share.
pub(crate) struct Shared {
    pub(crate) backend: Backend,
    pub(crate) config: ServerConfig,
    pub(crate) cache: ExtractionCache,
    pub(crate) metrics: Registry,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active_connections: AtomicUsize,
    pub(crate) inflight_requests: AtomicUsize,
    pub(crate) building_extractions: AtomicUsize,
    /// Server-side chaos hook: when set, every accepted connection is
    /// wrapped in a [`FaultyTransport`] drawing from this script.
    /// Production servers leave it `None` and pay nothing.
    pub(crate) faults: Option<Arc<FaultScript>>,
}

/// The in-band message a shed connection gets with its `ERR_BUSY`.
pub(crate) const SHED_CONNECTION_MSG: &str = "server at connection capacity; retry after ~100 ms";

/// Decrements a shared gauge on drop, panic or not. Shared with the
/// router (`crate::router`), whose connection and in-flight gauges
/// follow the same discipline.
pub(crate) struct CountGuard<'a>(pub(crate) &'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running frame server. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the accept machinery — woken
/// deterministically through a self-pipe, so an *idle* server shuts down
/// promptly too — then drains in-flight replies (bounded by
/// [`ServerConfig::drain_timeout`]).
pub struct FrameServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    engine: Option<Engine>,
}

/// The running accept machinery, one variant per [`ServeBackend`].
enum Engine {
    #[cfg(unix)]
    Threaded {
        accept: Option<JoinHandle<()>>,
        waker: Arc<crate::poll::Waker>,
    },
    #[cfg(not(unix))]
    Threaded { accept: Option<JoinHandle<()>> },
    #[cfg(unix)]
    Reactor(crate::reactor::ReactorEngine),
}

impl Engine {
    fn start(listener: TcpListener, shared: Arc<Shared>) -> io::Result<Engine> {
        #[cfg(unix)]
        {
            match shared.config.backend {
                ServeBackend::Reactor => Ok(Engine::Reactor(crate::reactor::ReactorEngine::spawn(
                    listener, shared,
                )?)),
                ServeBackend::Threaded => {
                    let waker = Arc::new(crate::poll::Waker::new()?);
                    let accept_waker = Arc::clone(&waker);
                    let accept = std::thread::spawn(move || {
                        threaded_accept_loop(shared, listener, accept_waker)
                    });
                    Ok(Engine::Threaded {
                        accept: Some(accept),
                        waker,
                    })
                }
            }
        }
        #[cfg(not(unix))]
        {
            // No poll(2) shim here: always the threaded backend, woken
            // at shutdown by a throwaway connection (best effort).
            let accept = std::thread::spawn(move || blocking_accept_loop(shared, listener));
            Ok(Engine::Threaded {
                accept: Some(accept),
            })
        }
    }
}

impl FrameServer {
    /// Binds a loopback server on an OS-assigned port — the test and
    /// example topology. The partitioned stores are served in index
    /// order; frame `i`'s step is `i`.
    pub fn spawn_loopback(
        data: Vec<PartitionedData>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn("127.0.0.1:0", data, config)
    }

    /// Binds `addr` and starts accepting clients.
    pub fn spawn(
        addr: &str,
        data: Vec<PartitionedData>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, Backend::Resident(data), config, None)
    }

    /// Binds a loopback server over an out-of-core run: frames come from
    /// `run`'s disk file and only [`ResidentRun`]'s budget worth of
    /// particle data is ever in memory.
    pub fn spawn_stored_loopback(
        run: Arc<ResidentRun>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_stored("127.0.0.1:0", run, config)
    }

    /// Binds `addr` over an out-of-core run backend.
    pub fn spawn_stored(
        addr: &str,
        run: Arc<ResidentRun>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, Backend::Stored(run), config, None)
    }

    /// A loopback server whose every connection is faulted by `script` —
    /// the server-side chaos hook. Only tests call this; [`spawn`] never
    /// wraps streams.
    ///
    /// [`spawn`]: FrameServer::spawn
    pub fn spawn_chaos(
        data: Vec<PartitionedData>,
        config: ServerConfig,
        script: Arc<FaultScript>,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner("127.0.0.1:0", Backend::Resident(data), config, Some(script))
    }

    fn spawn_inner(
        addr: &str,
        backend: Backend,
        config: ServerConfig,
        faults: Option<Arc<FaultScript>>,
    ) -> io::Result<FrameServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            config,
            cache: ExtractionCache::new(config.cache_capacity),
            metrics: Registry::new(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            inflight_requests: AtomicUsize::new(0),
            building_extractions: AtomicUsize::new(0),
            faults,
        });
        let engine = Engine::start(listener, Arc::clone(&shared))?;
        Ok(FrameServer {
            shared,
            addr: local,
            engine: Some(engine),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend this server is actually running (the configured one,
    /// except on non-unix platforms where it is always
    /// [`ServeBackend::Threaded`]).
    pub fn backend(&self) -> ServeBackend {
        match self.engine {
            #[cfg(unix)]
            Some(Engine::Reactor(_)) => ServeBackend::Reactor,
            _ => ServeBackend::Threaded,
        }
    }

    /// A local snapshot of the statistics (the same data a client gets
    /// from [`Request::Stats`]).
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_registry(&self.shared.metrics)
    }

    /// This server's private metrics registry — the source the wire
    /// `Stats` snapshot is assembled from. Exposed so tests (and embedding
    /// applications) can assert on individual counters.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Stops accepting connections, joins the accept machinery, and
    /// drains in-flight replies (bounded by
    /// [`ServerConfig::drain_timeout`]).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(engine) = self.engine.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match engine {
            #[cfg(unix)]
            Engine::Threaded { accept, waker } => {
                // Deterministic wake: the acceptor polls the self-pipe
                // alongside the listener, so an idle server exits its
                // accept loop immediately instead of waiting for the
                // next connection to happen by.
                waker.wake();
                if let Some(handle) = accept {
                    let _ = handle.join();
                }
                self.drain_inflight();
            }
            #[cfg(not(unix))]
            Engine::Threaded { accept } => {
                // Best-effort wake on platforms without the poll shim.
                let _ = TcpStream::connect(self.addr);
                if let Some(handle) = accept {
                    let _ = handle.join();
                }
                self.drain_inflight();
            }
            #[cfg(unix)]
            Engine::Reactor(mut reactor) => {
                // The reactor drains its own connections (bounded by
                // drain_timeout) before its thread exits.
                reactor.stop();
            }
        }
    }

    /// Graceful drain for the threaded backend: let replies already
    /// being computed or written reach their clients before the process
    /// moves on.
    fn drain_inflight(&self) {
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.inflight_requests.load(Ordering::SeqCst) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The bounded pool that answers shed connections for the threaded
/// backend. The old design spawned one OS thread per shed connection —
/// which let a connect flood mint unbounded threads, defeating the very
/// cap being enforced. This pool has a fixed worker count and a bounded
/// queue; when the queue overflows, the connection is simply dropped
/// (the shed was already counted, and under a real flood a silent close
/// is the correct degraded answer).
struct ShedPool {
    tx: Option<mpsc::SyncSender<TcpStream>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShedPool {
    const WORKERS: usize = 2;
    const QUEUE: usize = 32;
    /// Cap on how long a shed worker waits for the client's Hello (a
    /// real client sends it immediately); keeps a mute flood from
    /// pinning the pool and bounds how long shutdown can block on it.
    const MAX_WAIT: Duration = Duration::from_secs(1);

    fn start(shared: &Arc<Shared>) -> ShedPool {
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(Self::QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..Self::WORKERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || loop {
                    let next = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    let Ok(stream) = next else { break };
                    if shared.shutdown.load(Ordering::SeqCst) {
                        continue; // shutting down: just close it
                    }
                    answer_shed(&shared, stream);
                })
            })
            .collect();
        ShedPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Hands a shed connection to the pool; drops it (closing the
    /// socket) when the queue is full.
    fn offer(&self, stream: TcpStream) {
        if let Some(tx) = &self.tx {
            let _ = tx.try_send(stream);
        }
    }
}

impl Drop for ShedPool {
    fn drop(&mut self) {
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Answers one shed connection in-band: consume the client's first
/// request (its Hello) so the close after the reply is clean — closing
/// with unread inbound data would RST the socket and the client would
/// never see the reply — then send `ERR_BUSY` and drop the stream.
fn answer_shed(shared: &Shared, mut stream: TcpStream) {
    let cap = |t: Option<Duration>| Some(t.unwrap_or(ShedPool::MAX_WAIT).min(ShedPool::MAX_WAIT));
    let _ = stream.set_read_timeout(cap(shared.config.read_timeout));
    let _ = stream.set_write_timeout(cap(shared.config.write_timeout));
    let _ = crate::protocol::read_request(&mut stream);
    let _ = write_response(
        &mut stream,
        &Response::Error {
            code: ERR_BUSY,
            message: SHED_CONNECTION_MSG.to_string(),
        },
    );
}

/// Admits or sheds one accepted connection (threaded backend).
fn admit(shared: &Arc<Shared>, shed: &ShedPool, stream: TcpStream) {
    // Connection cap: shed with one in-band ERR_BUSY from the bounded
    // pool rather than spawning a handler thread.
    if shared.active_connections.load(Ordering::SeqCst) >= shared.config.max_connections {
        shared.metrics.add(CTR_SHED_CONNECTIONS, 1);
        shed.offer(stream);
        return;
    }
    shared.active_connections.fetch_add(1, Ordering::SeqCst);
    let conn_shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let _guard = CountGuard(&conn_shared.active_connections);
        handle_connection(&conn_shared, stream);
    });
}

/// The threaded backend's accept loop: a non-blocking listener polled
/// alongside the shutdown self-pipe, with exponential backoff (and a
/// `serve.accept_errors` count) on repeated `accept(2)` failures.
#[cfg(unix)]
fn threaded_accept_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    waker: Arc<crate::poll::Waker>,
) {
    use crate::poll::{poll, AcceptBackoff, PollEntry};
    use crate::stats::CTR_ACCEPT_ERRORS;
    use std::os::unix::io::AsRawFd;

    if listener.set_nonblocking(true).is_err() {
        // Without a non-blocking listener the poll loop would wedge;
        // fall back to the classic blocking loop (still with the shed
        // pool and error backoff, but shutdown wake is best-effort).
        return blocking_accept_fallback(shared, listener);
    }
    let shed = ShedPool::start(&shared);
    let mut backoff = AcceptBackoff::new();
    let mut cooldown: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // During an error-backoff cooldown the listener is left out of
        // the poll set: the whole point is to stop re-trying accept (and
        // burning CPU) until the pause elapses.
        let now = Instant::now();
        let listener_armed = match cooldown {
            Some(until) if until > now => false,
            _ => {
                cooldown = None;
                true
            }
        };
        let timeout = cooldown.map(|until| until.saturating_duration_since(now));
        let mut entries = vec![PollEntry {
            fd: waker.fd(),
            read: true,
            write: false,
        }];
        if listener_armed {
            entries.push(PollEntry {
                fd: listener.as_raw_fd(),
                read: true,
                write: false,
            });
        }
        let ready = match poll(&entries, timeout) {
            Ok(ready) => ready,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if ready[0].readable {
            waker.drain();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if listener_armed && !ready[1].is_empty() {
            // Drain the whole accept backlog while it's hot.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        backoff.on_success();
                        // Handler threads do blocking I/O; undo the
                        // non-blocking flag inherited on some platforms.
                        let _ = stream.set_nonblocking(false);
                        admit(&shared, &shed, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // EMFILE and friends: count it and cool down
                        // instead of hot-spinning on a failing accept.
                        shared.metrics.add(CTR_ACCEPT_ERRORS, 1);
                        cooldown = Some(Instant::now() + backoff.on_error());
                        break;
                    }
                }
            }
        }
    }
    // ShedPool::drop joins its workers (bounded by MAX_WAIT).
}

/// Blocking accept loop used when the listener can't go non-blocking
/// (and as the whole story on non-unix builds): keeps the shed pool,
/// the accept-error counter, and a sleep-based backoff, but shutdown
/// wake relies on the next connection arriving.
#[cfg(unix)]
fn blocking_accept_fallback(shared: Arc<Shared>, listener: TcpListener) {
    blocking_accept_body(shared, listener)
}

#[cfg(not(unix))]
fn blocking_accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    blocking_accept_body(shared, listener)
}

fn blocking_accept_body(shared: Arc<Shared>, listener: TcpListener) {
    use crate::stats::CTR_ACCEPT_ERRORS;
    let shed = ShedPool::start(&shared);
    let mut error_pause = Duration::from_millis(1);
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                error_pause = Duration::from_millis(1);
                admit(&shared, &shed, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                shared.metrics.add(CTR_ACCEPT_ERRORS, 1);
                std::thread::sleep(error_pause);
                error_pause = (error_pause * 2).min(Duration::from_millis(100));
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A stalled or byte-dribbling client must not pin this worker forever:
    // a timed-out read/write surfaces as an Io error below and the
    // connection is dropped.
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    match &shared.faults {
        Some(script) => serve_loop(shared, FaultyTransport::new(stream, Arc::clone(script))),
        None => serve_loop(shared, stream),
    }
}

fn serve_loop<S: Read + Write>(shared: &Shared, mut stream: S) {
    // Until a `Hello` negotiates otherwise, the session speaks v1: a
    // pre-v2 client that skips the handshake gets exactly the byte
    // stream it always did.
    let mut session_version = V1;
    loop {
        let req = match crate::protocol::read_request(&mut stream) {
            Ok(req) => req,
            // A clean disconnect shows up as EOF at an envelope boundary.
            Err(ServeError::Truncated { got: 0, .. }) | Err(ServeError::Io(_)) => return,
            Err(e) => {
                // Malformed framing: answer in-band, then drop the
                // connection — stream sync is gone.
                let reply = Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                };
                let _ = write_response_v(&mut stream, session_version, &reply);
                return;
            }
        };
        // Graceful shutdown: requests already being processed drain to
        // their replies, but nothing *new* is admitted once the flag is
        // up — the connection is dropped at the request boundary.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let t0 = Instant::now();
        let span = accelviz_trace::span("serve.request");
        let _inflight = CountGuard({
            shared.inflight_requests.fetch_add(1, Ordering::SeqCst);
            &shared.inflight_requests
        });
        // Panic isolation: a poisoned request must not take the
        // connection (let alone the listener) down with it. The client
        // gets ERR_INTERNAL and the request/reply loop continues.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            respond(shared, req, &mut stream, &mut session_version)
        }));
        let (bytes, served_frame) = match outcome {
            Ok(Ok(r)) => r,
            Ok(Err(_)) => return, // client went away mid-reply
            Err(_panic) => {
                shared.metrics.add(CTR_HANDLER_PANICS, 1);
                let reply = Response::Error {
                    code: ERR_INTERNAL,
                    message: "internal error serving this request; the connection survives"
                        .to_string(),
                };
                match write_response_v(&mut stream, session_version, &reply) {
                    Ok(bytes) => (bytes, false),
                    Err(_) => return,
                }
            }
        };
        drop(span);
        shared.metrics.add(CTR_REQUESTS, 1);
        shared.metrics.add(CTR_BYTES_SENT, bytes);
        if served_frame {
            shared.metrics.add(CTR_FRAMES_SERVED, 1);
        }
        shared
            .metrics
            .record_seconds(HIST_LATENCY, t0.elapsed().as_secs_f64());
    }
}

/// Tries to take one extraction permit; `None` means the limit is
/// reached and the request should be shed.
fn try_extraction_permit(shared: &Shared) -> Option<CountGuard<'_>> {
    let limit = shared.config.max_inflight_extractions;
    let gauge = &shared.building_extractions;
    let mut current = gauge.load(Ordering::SeqCst);
    loop {
        if current >= limit {
            return None;
        }
        match gauge.compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return Some(CountGuard(gauge)),
            Err(actual) => current = actual,
        }
    }
}

/// Serves one request; returns (wire bytes written, was a frame reply).
/// `session_version` is the connection's negotiated protocol version —
/// `Hello` updates it, every reply is framed with it. `stream` is any
/// writer: the live socket for the threaded backend, a staging buffer
/// for the reactor (which flushes it under write readiness).
pub(crate) fn respond<S: Write>(
    shared: &Shared,
    req: Request,
    stream: &mut S,
    session_version: &mut u16,
) -> crate::error::Result<(u64, bool)> {
    match req {
        Request::Hello { version } => {
            let reply = if version == 0 {
                Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: format!("protocol version must be at least 1, client sent {version}"),
                }
            } else {
                // Speak the older of the two sides: a v1 client keeps its
                // byte-identical session, a v2 (or future) client gets
                // the newest encoding this build knows.
                let negotiated = version.min(VERSION);
                *session_version = negotiated;
                Response::HelloAck {
                    version: negotiated,
                    frame_count: shared.backend.frame_count() as u32,
                }
            };
            Ok((write_response_v(stream, *session_version, &reply)?, false))
        }
        Request::ListFrames => {
            let frames = shared.backend.frame_infos(shared.config.point_budget);
            Ok((
                write_response_v(stream, *session_version, &Response::FrameList(frames))?,
                false,
            ))
        }
        Request::RequestFrame { frame, threshold } => {
            let served = match acquire_frame(shared, frame, threshold, stream, *session_version)? {
                Ok(served) => served,
                Err(reply_written) => return Ok(reply_written),
            };
            // The first request at this session version encodes the
            // envelope into the cache entry; every later one writes the
            // stored bytes. Both lengths are counted per reply so the
            // stats expose the live compression ratio.
            let envelope = served.envelope(*session_version).get_or_init(|| {
                let _span = accelviz_trace::span("serve.encode");
                shared.metrics.add(CTR_FRAME_ENCODES, 1);
                encode_frame_envelope(&served.frame, *session_version)
            });
            shared.metrics.add(CTR_FRAME_BYTES_RAW, envelope.raw_len);
            shared
                .metrics
                .add(CTR_FRAME_BYTES_WIRE, envelope.payload_len());
            let mut span = accelviz_trace::span("serve.send");
            let bytes = envelope.write_to(stream)?;
            span.arg("bytes", bytes as f64);
            Ok((bytes, true))
        }
        Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        } => {
            // The chunk records ride v2 envelopes and splice back into a
            // frame the v2 trailer can verify; a v1 session has neither,
            // so the request is a protocol error there — and pre-v2
            // clients never send it, keeping their byte streams frozen.
            if *session_version < V2 {
                let reply = Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: "progressive streaming requires a v2 session; \
                              send Hello with version >= 2 first"
                        .to_string(),
                };
                return Ok((write_response_v(stream, *session_version, &reply)?, false));
            }
            let served = match acquire_frame(shared, frame, threshold, stream, *session_version)? {
                Ok(served) => served,
                Err(reply_written) => return Ok(reply_written),
            };
            // Same cache entry as a plain fetch — a progressive and a
            // full request for the same (frame, threshold) coalesce on
            // one extraction; only the wire shape differs from here on.
            let records = {
                let mut span = accelviz_trace::span("serve.lod_send");
                let records = crate::lod::plan_frame_chunks(
                    &served.frame,
                    crate::lod::chunk_budget(chunk_bytes),
                );
                span.arg("chunks", records.len() as f64);
                records
            };
            let mut bytes = 0u64;
            for record in &records {
                bytes += crate::protocol::write_chunk(stream, record)?;
            }
            shared.metrics.add(CTR_LOD_REQUESTS, 1);
            shared.metrics.add(CTR_LOD_CHUNKS, records.len() as u64);
            shared.metrics.add(CTR_LOD_BYTES_WIRE, bytes);
            Ok((bytes, true))
        }
        Request::Stats => {
            let snapshot = ServerStats::from_registry(&shared.metrics);
            Ok((
                write_response_v(stream, *session_version, &Response::Stats(snapshot))?,
                false,
            ))
        }
    }
}

/// The shared admission-and-build path behind both frame request kinds:
/// validates the threshold and frame index, applies extraction-limit
/// shedding, pages the frame in on the stored backend, and resolves the
/// extraction through the cache. On a policy failure the in-band error
/// reply is already written and the inner `Err` carries `respond`'s
/// return value for it; the outer `Err` is a dead client connection.
fn acquire_frame<S: Write>(
    shared: &Shared,
    frame: u32,
    threshold: f64,
    stream: &mut S,
    session_version: u16,
) -> crate::error::Result<std::result::Result<Arc<ServedFrame>, (u64, bool)>> {
    if threshold.is_nan() {
        // NaN has no place in the density order: extraction's
        // partition_point would silently return an empty prefix,
        // and the many NaN bit patterns would each occupy their
        // own cache slot. Reject in-band. (±Inf stay valid dials:
        // +Inf is the catalog's own "serve everything" sentinel,
        // -Inf is an empty extraction.)
        let reply = Response::Error {
            code: ERR_BAD_THRESHOLD,
            message: format!("threshold must not be NaN, got {threshold}"),
        };
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    if frame as usize >= shared.backend.frame_count() {
        let reply = Response::Error {
            code: ERR_NO_SUCH_FRAME,
            message: format!(
                "frame {frame} requested, {} available",
                shared.backend.frame_count()
            ),
        };
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    let key = CacheKey::new(frame, threshold);
    // Load shedding at the extraction limit: only requests that
    // would start a *new* extraction are shed — cached frames and
    // coalescing waiters are cheap and always admitted. The probe
    // is advisory (the entry may change before get_or_build), so
    // the limit is a strong bound, not a hard invariant.
    let probe = shared.cache.probe(&key);
    let _permit = match probe {
        Probe::Vacant => match try_extraction_permit(shared) {
            Some(p) => Some(p),
            None => {
                shared.metrics.add(CTR_SHED_EXTRACTIONS, 1);
                let reply = Response::Error {
                    code: ERR_BUSY,
                    message: "extraction capacity reached; retry after ~100 ms".to_string(),
                };
                return Ok(Err((
                    write_response_v(stream, session_version, &reply)?,
                    false,
                )));
            }
        },
        Probe::Ready | Probe::Building => None,
    };
    // The stored backend pages the frame's particles in *before*
    // committing to build, so a disk failure is an in-band
    // ERR_INTERNAL instead of a panic. A Ready probe skips the
    // fetch — serving a cached extraction must not churn the
    // residency window.
    let part: Option<Arc<PartitionedData>> = match &shared.backend {
        Backend::Stored(run) if probe != Probe::Ready => match run.fetch(frame as usize) {
            Ok(fetch) => Some(fetch.data),
            Err(e) => {
                let reply = Response::Error {
                    code: ERR_INTERNAL,
                    message: format!("run store failed loading frame {frame}: {e}"),
                };
                return Ok(Err((
                    write_response_v(stream, session_version, &reply)?,
                    false,
                )));
            }
        },
        _ => None,
    };
    let (extracted, hit) = {
        let mut span = accelviz_trace::span("serve.extract");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let (extracted, hit) = shared
            .cache
            .get_or_build(CacheKey::new(frame, threshold), || {
                build_frame(shared, part.as_deref(), frame as usize, threshold)
            });
        span.arg("cache_hit", hit as u64 as f64);
        (extracted, hit)
    };
    shared.metrics.add(
        if hit {
            CTR_CACHE_HITS
        } else {
            CTR_CACHE_MISSES
        },
        1,
    );
    Ok(Ok(extracted))
}

/// Builds one frame for the extraction cache. `part` is the paged-in
/// partition for the stored backend (`None` for the resident backend, or
/// in the rare race where a Ready probe was evicted before the build —
/// then the fetch reruns here, and a disk failure panics into the
/// handler's isolation instead of silently serving nothing).
fn build_frame(
    shared: &Shared,
    part: Option<&PartitionedData>,
    frame: usize,
    threshold: f64,
) -> HybridFrame {
    let dims = shared.config.volume_dims;
    match (&shared.backend, part) {
        (Backend::Resident(data), _) => {
            HybridFrame::from_partition(&data[frame], frame, threshold, dims)
        }
        (Backend::Stored(_), Some(p)) => HybridFrame::from_partition(p, frame, threshold, dims),
        (Backend::Stored(run), None) => {
            let fetch = run
                .fetch(frame)
                .unwrap_or_else(|e| panic!("run store failed loading frame {frame}: {e}"));
            HybridFrame::from_partition(&fetch.data, frame, threshold, dims)
        }
    }
}

/// Handles one decoded-or-failed request for the reactor backend: the
/// same `read_request` → `respond` → counters path as [`serve_loop`],
/// but over an in-memory request slice and a staging buffer instead of
/// a live socket. Returns `(reply_bytes, new_session_version,
/// close_after_reply)`; an empty reply means "just close".
#[cfg(unix)]
pub(crate) fn process_request_bytes(
    shared: &Shared,
    request: &[u8],
    session_version: u16,
    t0: Instant,
) -> (Vec<u8>, u16, bool) {
    let mut version = session_version;
    let mut reply = Vec::new();
    let req = match crate::protocol::read_request(&mut &request[..]) {
        Ok(req) => req,
        Err(e) => {
            // Malformed framing: answer in-band, then drop the
            // connection — stream sync is gone. (Mirrors serve_loop.)
            let _ = write_response_v(
                &mut reply,
                version,
                &Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                },
            );
            return (reply, version, true);
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return (Vec::new(), version, true);
    }
    let span = accelviz_trace::span("serve.request");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        respond(shared, req, &mut reply, &mut version)
    }));
    let (bytes, served_frame) = match outcome {
        // Writing into a Vec cannot fail, so Ok(Err(_)) is unreachable
        // in practice; treat it as a close for completeness.
        Ok(Ok(r)) => r,
        Ok(Err(_)) => return (Vec::new(), version, true),
        Err(_panic) => {
            shared.metrics.add(CTR_HANDLER_PANICS, 1);
            reply.clear();
            match write_response_v(
                &mut reply,
                version,
                &Response::Error {
                    code: ERR_INTERNAL,
                    message: "internal error serving this request; the connection survives"
                        .to_string(),
                },
            ) {
                Ok(bytes) => (bytes, false),
                Err(_) => return (Vec::new(), version, true),
            }
        }
    };
    drop(span);
    shared.metrics.add(CTR_REQUESTS, 1);
    shared.metrics.add(CTR_BYTES_SENT, bytes);
    if served_frame {
        shared.metrics.add(CTR_FRAMES_SERVED, 1);
    }
    shared
        .metrics
        .record_seconds(HIST_LATENCY, t0.elapsed().as_secs_f64());
    (reply, version, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;

    fn stores(n: usize) -> Vec<PartitionedData> {
        (0..n)
            .map(|i| {
                let ps = Distribution::default_beam().sample(800, i as u64 + 1);
                partition(&ps, PlotType::XYZ, BuildParams::default())
            })
            .collect()
    }

    #[test]
    fn server_binds_an_ephemeral_loopback_port() {
        let server = FrameServer::spawn_loopback(stores(1), ServerConfig::default()).unwrap();
        assert!(server.addr().port() != 0);
        assert!(server.addr().ip().is_loopback());
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_under_drop() {
        let server = FrameServer::spawn_loopback(stores(1), ServerConfig::default()).unwrap();
        drop(server); // Drop runs stop() after an explicit-path exercise elsewhere
    }

    #[test]
    fn both_backends_spawn_and_report_themselves() {
        for backend in [ServeBackend::Threaded, ServeBackend::Reactor] {
            let config = ServerConfig {
                backend,
                ..ServerConfig::default()
            };
            let server = FrameServer::spawn_loopback(stores(1), config).unwrap();
            if cfg!(unix) {
                assert_eq!(server.backend(), backend);
            } else {
                assert_eq!(server.backend(), ServeBackend::Threaded);
            }
            server.shutdown();
        }
    }

    #[test]
    fn backend_env_values_parse_with_a_platform_default() {
        assert_eq!(
            ServeBackend::from_env_value(Some("threaded")),
            ServeBackend::Threaded
        );
        assert_eq!(
            ServeBackend::from_env_value(Some("reactor")),
            ServeBackend::Reactor
        );
        let default = ServeBackend::from_env_value(None);
        let garbage = ServeBackend::from_env_value(Some("epoll"));
        assert_eq!(default, garbage, "unknown values fall to the default");
        if cfg!(unix) {
            assert_eq!(default, ServeBackend::Reactor);
        } else {
            assert_eq!(default, ServeBackend::Threaded);
        }
    }

    #[test]
    fn extraction_permits_are_bounded_and_returned() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let shared = Shared {
            backend: Backend::Resident(Vec::new()),
            config,
            cache: ExtractionCache::new(2),
            metrics: Registry::new(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            inflight_requests: AtomicUsize::new(0),
            building_extractions: AtomicUsize::new(0),
            faults: None,
        };
        let a = try_extraction_permit(&shared);
        let b = try_extraction_permit(&shared);
        assert!(a.is_some() && b.is_some());
        assert!(try_extraction_permit(&shared).is_none(), "limit is 2");
        drop(a);
        assert!(
            try_extraction_permit(&shared).is_some(),
            "a dropped permit frees a slot"
        );
    }
}
