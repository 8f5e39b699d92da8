//! The connection front door every frame service owns.
//!
//! Thread-per-connection: one acceptor thread, and one handler thread per
//! admitted connection running a strict request/reply session loop. A
//! frame server and a shard router answer requests with the same
//! [`crate::server::respond`]; everything around it is written once here:
//!
//! - **Accept.** A non-blocking listener polled alongside a self-pipe
//!   [`crate::poll::Waker`], so shutdown wakes an idle acceptor
//!   deterministically. Repeated `accept(2)` failures (fd exhaustion)
//!   back off exponentially ([`crate::poll::AcceptBackoff`]) and are
//!   counted instead of hot-spinning. Non-unix builds, and a listener
//!   that refuses to go non-blocking, run a blocking loop whose shutdown
//!   wake relies on the next connection arriving.
//! - **Connection cap.** Past the service's `max_connections` an arrival
//!   is counted and handed to a small bounded [`ShedPool`], which answers
//!   one in-band `ERR_BUSY` with a retry-after hint and closes. A connect
//!   flood therefore cannot mint threads: the process holds at most
//!   `max_connections` handlers, [`ShedPool::WORKERS`] shed workers and
//!   the acceptor.
//! - **Session loop.** Read a request (bounded by
//!   [`crate::wire::MAX_REQUEST_PAYLOAD`]), drop the connection at the
//!   request boundary once shutdown is raised, hold an in-flight guard
//!   while `respond` runs under `catch_unwind` (a panic answers
//!   `ERR_INTERNAL` and the session continues), then count the request,
//!   its bytes, frames and latency.
//! - **Stop.** Raise the flag, wake and join the acceptor, then let
//!   in-flight replies drain within [`DRAIN_TIMEOUT`].

use crate::error::ServeError;
use crate::fault::{FaultScript, FaultyTransport};
use crate::protocol::{
    read_request, write_response, write_response_v, Response, ERR_BAD_REQUEST, ERR_BUSY,
    ERR_INTERNAL,
};
use crate::server::{respond, ServerConfig, Shared};
use crate::wire::V1;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The in-band message a shed connection gets with its `ERR_BUSY`.
const SHED_CONNECTION_MSG: &str = "server at connection capacity; retry after ~100 ms";

/// How long stop waits for in-flight replies to reach their clients.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// The registry counter and span names one service counts under —
/// `serve.*` for a frame server, `router.*` for a router. The front door
/// and the shared request path in [`crate::server`] both read them here.
pub(crate) struct Counters {
    pub(crate) requests: &'static str,
    pub(crate) frames_served: &'static str,
    pub(crate) bytes_sent: &'static str,
    pub(crate) latency: &'static str,
    pub(crate) handler_panics: &'static str,
    pub(crate) shed_connections: &'static str,
    pub(crate) accept_errors: &'static str,
    pub(crate) shed_extractions: &'static str,
    pub(crate) cache_hits: &'static str,
    pub(crate) cache_misses: &'static str,
    pub(crate) coalesced: &'static str,
    pub(crate) frame_encodes: &'static str,
    pub(crate) frame_bytes_raw: &'static str,
    pub(crate) frame_bytes_wire: &'static str,
    pub(crate) lod_requests: &'static str,
    pub(crate) lod_chunks: &'static str,
    pub(crate) lod_bytes_wire: &'static str,
    /// Stage span names: the whole request, the cache lookup or build,
    /// the envelope encode, the frame write and the chunked write.
    pub(crate) span_request: &'static str,
    pub(crate) span_extract: &'static str,
    pub(crate) span_encode: &'static str,
    pub(crate) span_send: &'static str,
    pub(crate) span_lod_send: &'static str,
}

/// Decrements a shared gauge on drop, panic or not.
pub(crate) struct CountGuard<'a>(pub(crate) &'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The state the acceptor, the shed workers and every handler share.
struct Door {
    service: Arc<Shared>,
    /// Chaos hook: when set, every admitted connection is wrapped in a
    /// [`FaultyTransport`] drawing from this script.
    faults: Option<Arc<FaultScript>>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    inflight_requests: AtomicUsize,
}

/// A running front door. Dropping it (or calling [`FrontDoor::stop`])
/// stops accepting and drains in-flight replies.
pub(crate) struct FrontDoor {
    door: Arc<Door>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    #[cfg(unix)]
    waker: Arc<crate::poll::Waker>,
}

impl FrontDoor {
    /// Starts accepting on `listener`, answering for `service`.
    pub(crate) fn spawn(
        listener: TcpListener,
        service: Arc<Shared>,
        faults: Option<Arc<FaultScript>>,
    ) -> io::Result<FrontDoor> {
        let addr = listener.local_addr()?;
        let door = Arc::new(Door {
            service,
            faults,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            inflight_requests: AtomicUsize::new(0),
        });
        let acceptor = Arc::clone(&door);
        #[cfg(unix)]
        {
            let waker = Arc::new(crate::poll::Waker::new()?);
            let accept_waker = Arc::clone(&waker);
            let accept = std::thread::spawn(move || accept_loop(acceptor, listener, accept_waker));
            Ok(FrontDoor {
                door,
                addr,
                accept: Some(accept),
                waker,
            })
        }
        #[cfg(not(unix))]
        {
            let accept = std::thread::spawn(move || blocking_accept_loop(acceptor, listener));
            Ok(FrontDoor {
                door,
                addr,
                accept: Some(accept),
            })
        }
    }

    /// The address clients connect to.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the acceptor, and lets replies already
    /// being computed or written reach their clients, bounded by
    /// [`DRAIN_TIMEOUT`]. Idempotent.
    pub(crate) fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.door.shutdown.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        self.waker.wake();
        #[cfg(not(unix))]
        {
            // Best-effort wake on platforms without the poll shim.
            let _ = TcpStream::connect(self.addr);
        }
        let _ = accept.join();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.door.inflight_requests.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The bounded pool that answers shed connections: a fixed worker count
/// and a bounded queue, so a connect flood past the cap costs no threads.
/// When the queue overflows the connection is simply dropped (the shed
/// was already counted, and under a real flood a silent close is the
/// correct degraded answer).
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

    fn start(door: &Arc<Door>) -> ShedPool {
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(Self::QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..Self::WORKERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let door = Arc::clone(door);
                std::thread::spawn(move || loop {
                    let next = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    let Ok(stream) = next else { break };
                    if door.shutdown.load(Ordering::SeqCst) {
                        continue; // shutting down: just close it
                    }
                    answer_shed(&door.service.config, stream);
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
fn answer_shed(config: &ServerConfig, mut stream: TcpStream) {
    let cap = |t: Option<Duration>| Some(t.unwrap_or(ShedPool::MAX_WAIT).min(ShedPool::MAX_WAIT));
    let _ = stream.set_read_timeout(cap(config.read_timeout));
    let _ = stream.set_write_timeout(cap(config.write_timeout));
    let _ = read_request(&mut stream);
    let _ = write_response(
        &mut stream,
        &Response::Error {
            code: ERR_BUSY,
            message: SHED_CONNECTION_MSG.to_string(),
        },
    );
}

/// Admits one accepted connection onto its own handler thread, or sheds
/// it to the pool past the connection cap.
fn admit(door: &Arc<Door>, shed: &ShedPool, stream: TcpStream) {
    let service = &door.service;
    if door.active_connections.load(Ordering::SeqCst) >= service.config.max_connections {
        service.metrics.add(service.names.shed_connections, 1);
        shed.offer(stream);
        return;
    }
    door.active_connections.fetch_add(1, Ordering::SeqCst);
    let door = Arc::clone(door);
    std::thread::spawn(move || {
        let _guard = CountGuard(&door.active_connections);
        let _ = stream.set_nodelay(true);
        // A stalled or byte-dribbling client must not pin this thread
        // forever: a timed-out read/write ends the session.
        let _ = stream.set_read_timeout(door.service.config.read_timeout);
        let _ = stream.set_write_timeout(door.service.config.write_timeout);
        match &door.faults {
            Some(script) => session(&door, FaultyTransport::new(stream, Arc::clone(script))),
            None => session(&door, stream),
        }
    });
}

/// The accept loop: a non-blocking listener polled alongside the
/// shutdown self-pipe, with exponential backoff (and an accept-error
/// count) on repeated `accept(2)` failures.
#[cfg(unix)]
fn accept_loop(door: Arc<Door>, listener: TcpListener, waker: Arc<crate::poll::Waker>) {
    use crate::poll::{poll, AcceptBackoff, PollEntry};
    use std::os::unix::io::AsRawFd;

    if listener.set_nonblocking(true).is_err() {
        // Without a non-blocking listener the poll loop would wedge.
        return blocking_accept_loop(door, listener);
    }
    let shed = ShedPool::start(&door);
    let mut backoff = AcceptBackoff::new();
    let mut cooldown: Option<Instant> = None;
    loop {
        if door.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // During an error-backoff cooldown the listener is left out of
        // the poll set: the point is to stop retrying accept (and
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
        if door.shutdown.load(Ordering::SeqCst) {
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
                        admit(&door, &shed, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // EMFILE and friends: count it and cool down
                        // instead of hot-spinning on a failing accept.
                        let service = &door.service;
                        service.metrics.add(service.names.accept_errors, 1);
                        cooldown = Some(Instant::now() + backoff.on_error());
                        break;
                    }
                }
            }
        }
    }
    // ShedPool::drop joins its workers (bounded by MAX_WAIT).
}

/// The blocking accept loop: the whole story on non-unix builds, and the
/// fallback when the listener can't go non-blocking. Keeps the shed pool,
/// the accept-error count and a sleep-based backoff, but shutdown wake
/// relies on the next connection arriving.
fn blocking_accept_loop(door: Arc<Door>, listener: TcpListener) {
    let shed = ShedPool::start(&door);
    let mut error_pause = Duration::from_millis(1);
    for stream in listener.incoming() {
        if door.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                error_pause = Duration::from_millis(1);
                admit(&door, &shed, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                let service = &door.service;
                service.metrics.add(service.names.accept_errors, 1);
                std::thread::sleep(error_pause);
                error_pause = (error_pause * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// One connection's request/reply loop.
fn session<T: Read + Write>(door: &Door, mut stream: T) {
    let metrics = &door.service.metrics;
    let counters = door.service.names;
    // Until a `Hello` negotiates otherwise, the session speaks v1: a
    // pre-v2 client that skips the handshake gets exactly the byte
    // stream it always did.
    let mut session_version = V1;
    loop {
        let req = match read_request(&mut stream) {
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
        if door.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let t0 = Instant::now();
        let _inflight = CountGuard({
            door.inflight_requests.fetch_add(1, Ordering::SeqCst);
            &door.inflight_requests
        });
        // Panic isolation: a poisoned request must not take the
        // connection (let alone the listener) down with it. The client
        // gets ERR_INTERNAL and the request/reply loop continues.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            respond(&door.service, req, &mut stream, &mut session_version)
        }));
        let (bytes, served_frame) = match outcome {
            Ok(Ok(r)) => r,
            Ok(Err(_)) => return, // client went away mid-reply
            Err(_panic) => {
                metrics.add(counters.handler_panics, 1);
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
        metrics.add(counters.requests, 1);
        metrics.add(counters.bytes_sent, bytes);
        if served_frame {
            metrics.add(counters.frames_served, 1);
        }
        metrics.record_seconds(counters.latency, t0.elapsed().as_secs_f64());
    }
}
