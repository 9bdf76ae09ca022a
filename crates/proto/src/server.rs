//! The `ltc serve` layer: a TCP server multiplexing N concurrent
//! clients onto a [`SessionTable`] of named in-process [`Session`]s
//! (bare [`ServiceHandle`](ltc_core::service::ServiceHandle)s, or any
//! wrapper implementing the trait — the durability layer serves through
//! here unchanged).
//!
//! ## Sessions
//!
//! Every connection is **bound to exactly one session** at a time. It
//! starts on the default session and may rebind with the `open`/`attach`
//! verbs (until it subscribes — a subscribed connection's event stream
//! belongs to one session, so rebinding is refused). Each request must
//! carry the bound session's `"sid"`; every response and event carries
//! it back. A connection bound to session A never observes session B's
//! events — isolation falls out of the binding, not filtering.
//!
//! That is `v2`, the only dialect the server speaks: a hello asking for
//! any other version is answered with one `err` frame naming it, and
//! the connection closes.
//!
//! ## Ordering model
//!
//! Each session sits behind its own mutex. Every state-touching request
//! runs under its bound session's lock, so the **per-session global
//! submission order is the connection-interleaved arrival order** —
//! exactly the order in which requests won that session's lock — and
//! the committed assignments are the ones a single in-process session
//! fed that interleaving would commit (asserted by the loopback
//! differential tests). Sessions never serialize against each other.
//! Arrival ids are assigned under the lock and returned in each
//! response, so clients can reconstruct the per-session order after the
//! fact.
//!
//! Windowed submission changes none of this: a client firing up
//! to W `submit`/`post` frames ahead of their acknowledgements simply
//! keeps the connection's read loop saturated — the frames queue in the
//! socket, each is applied under the session lock in arrival order, and
//! each response echoes its request's `"seq"` so the client can verify
//! the one-response-per-request FIFO correspondence. The per-session
//! submission mutex is untouched; global order is still the
//! connection-interleaved lock order.
//!
//! Back-pressure composes per session: when a shard mailbox is full,
//! the submitting request blocks *inside* its session's lock until the
//! shard catches up — which pauses that session's other clients too.
//! That is deliberate: admitting other submissions while one is blocked
//! would reorder arrivals. Subscribers observe the stall as the usual
//! [`Lifecycle::ShardStalled`](ltc_core::service::Lifecycle::ShardStalled)
//! event, forwarded on the wire like every other event.
//!
//! ## Event flow
//!
//! A connection that sends `subscribe` gets its own
//! [`Session::subscribe`] stream on its bound session, pumped to the
//! socket by a dedicated forwarder thread (events and responses
//! interleave on the wire; frames are written atomically under the
//! connection's writer lock). The forwarder writes in batches: each
//! wake-up sends the event it woke for plus every event already
//! waiting, as whole frames in one `write`, and it only blocks on the
//! stream with nothing left unsent. Delivery per subscriber is in exact
//! submission order — the runtime's re-order ring guarantees it, the
//! forwarder preserves it. The forwarder paces its waits so it can
//! notice a departed peer, a stopping server, or an evicted session
//! instead of blocking forever on an idle stream.
//!
//! ## Lifecycle and shutdown
//!
//! A `close` evicts **one** named session: its subscribers receive
//! [`Lifecycle::SessionEvicted`](ltc_core::service::Lifecycle::SessionEvicted),
//! the session drains and shuts down
//! ([`Lifecycle::ShuttingDown`](ltc_core::service::Lifecycle::ShuttingDown)
//! ends the streams), and its name becomes free. The idle policy
//! ([`SessionTable::with_factory`]) evicts the same way, from a reaper
//! thread. A `shutdown` request still ends the *whole
//! server*: every session shuts down, subscribers' streams end, the
//! requester gets its response, and then the acceptor stops. Requests
//! on surviving connections get an error response (never a hang); their
//! threads exit when the client disconnects.

use crate::session_table::{SessionConfig, SessionEntry, SessionTable};
use crate::wire::{self, AddressedRequest, FrameError, FrameReader, Request, Response, WireError};
use ltc_core::service::{EventStream, ServiceError, Session};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, recovering from poisoning instead of propagating it:
/// a connection thread that panicked mid-request must fail *its own*
/// connection, not wedge every other client behind a permanently
/// poisoned lock. The guarded values stay sound across a recovered
/// panic — the session rejects later calls itself once closed, and a
/// writer is just a socket.
fn lock_recovering<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How often an idle event forwarder re-checks whether its peer is
/// gone, its session was evicted, or the server is stopping (events
/// themselves are forwarded the moment they arrive; only silence costs
/// a poll).
const FORWARDER_POLL: Duration = Duration::from_millis(100);

/// How often the idle reaper re-checks the stop flag between sweeps.
const REAPER_POLL: Duration = Duration::from_millis(100);

/// The serving state every connection thread shares.
struct Shared {
    /// The session registry. Server `shutdown` leaves every session
    /// inert, so later calls fail with `RuntimeStopped` rather than
    /// panicking.
    table: SessionTable,
    /// Set by a `shutdown` request; checked by the acceptor, the event
    /// forwarders, and the reaper.
    stopping: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Stops the acceptor (the flag, plus a throw-away connection to
    /// ourselves to unblock `accept`). A wildcard bind (0.0.0.0 / ::)
    /// is not connectable on every platform, so the wake-up targets
    /// loopback on the bound port instead.
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let target = if self.addr.ip().is_unspecified() {
            let ip: std::net::IpAddr = if self.addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            SocketAddr::new(ip, self.addr.port())
        } else {
            self.addr
        };
        TcpStream::connect(target).ok();
    }
}

/// A bound, not-yet-running `ltc-proto` server over a [`SessionTable`]
/// (or, via [`LtcServer::bind`], a single [`Session`] — the table's
/// only, default session). [`LtcServer::run`] serves on the calling thread
/// until a client requests shutdown; [`LtcServer::spawn`] does the same
/// on a background thread (tests, and anything that needs the bound
/// address before serving).
pub struct LtcServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A server running on a background thread (see [`LtcServer::spawn`]).
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The bound address (resolved, so port 0 becomes the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server as a client's `shutdown` request would (every
    /// session shuts down, then the acceptor stops) and waits for the
    /// serving thread. Idempotent with a client-sent `shutdown`.
    pub fn stop(self) -> io::Result<()> {
        self.shared.table.shutdown_all().ok();
        self.shared.stop();
        self.join
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))?
    }

    /// Waits for the server to stop on its own (a client sent
    /// `shutdown`).
    pub fn wait(self) -> io::Result<()> {
        self.join
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))?
    }
}

impl LtcServer {
    /// Binds the listener over one fixed [`Session`] — the in-process
    /// handle, or a wrapper (durability, instrumentation) layered over
    /// it. The session becomes the table's default (and only) session;
    /// `open` is refused. `addr` may use port 0; read the resolved
    /// address back with [`LtcServer::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        session: impl Session + Send + 'static,
    ) -> io::Result<Self> {
        Self::bind_table(addr, SessionTable::single(session))
    }

    /// Binds the listener over a full [`SessionTable`] — the
    /// multi-session serving model (`ltc serve --max-sessions`).
    pub fn bind_table(addr: impl ToSocketAddrs, table: SessionTable) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                table,
                stopping: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a client requests shutdown. Connection threads exit
    /// when their client disconnects (or promptly after the stop, for
    /// subscribed ones); they never outlive their session usefully —
    /// every request they make afterwards is answered with an error.
    pub fn run(self) -> io::Result<()> {
        if let Some(timeout) = self.shared.table.idle_timeout() {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("ltc-serve-reaper".into())
                .spawn(move || reap_idle(&shared, timeout))
                .ok();
        }
        loop {
            let (conn, _) = self.listener.accept()?;
            if self.shared.stopping.load(Ordering::SeqCst) {
                return Ok(());
            }
            conn.set_nodelay(true).ok();
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("ltc-serve-conn".into())
                .spawn(move || serve_connection(conn, shared))
                .ok();
        }
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> io::Result<RunningServer> {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("ltc-serve-accept".into())
            .spawn(move || self.run())
            .map_err(|_| io::Error::other("could not spawn the acceptor thread"))?;
        Ok(RunningServer { addr, shared, join })
    }
}

/// The idle-eviction loop: sweep the table on the idle-timeout cadence
/// until the server stops. The poll between sweeps stays short so a
/// stopping server is never held up by a long timeout.
fn reap_idle(shared: &Shared, timeout: Duration) {
    let sweep = timeout.max(REAPER_POLL);
    let mut since_sweep = Duration::ZERO;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(REAPER_POLL);
        since_sweep += REAPER_POLL;
        if since_sweep >= sweep {
            since_sweep = Duration::ZERO;
            shared.table.evict_idle();
        }
    }
}

/// A connection's session binding: counted on the entry, so the idle
/// policy can see live bindings, and moved by the rebind verbs.
/// Dropping the binding (the connection ended) releases the count and
/// restarts the session's idle clock.
struct Binding {
    entry: Arc<SessionEntry>,
}

impl Binding {
    fn new(entry: Arc<SessionEntry>) -> Self {
        entry.bind();
        Self { entry }
    }

    /// The `"sid"` every frame sent on this connection carries — the
    /// hello, each response, each event: the bound session's.
    fn sid(&self) -> &str {
        self.entry.name()
    }

    fn rebind(&mut self, entry: Arc<SessionEntry>) {
        entry.bind();
        self.entry.unbind();
        self.entry = entry;
    }
}

impl Drop for Binding {
    fn drop(&mut self) {
        self.entry.unbind();
    }
}

/// One connection, handshake to EOF. On every exit path the socket is
/// shut down (so clones held by a forwarder cannot keep the peer
/// waiting on a half-dead connection) and the forwarder is joined.
fn serve_connection(conn: TcpStream, shared: Arc<Shared>) {
    let Ok(read_half) = conn.try_clone() else {
        conn.shutdown(Shutdown::Both).ok();
        return;
    };
    let mut frames = FrameReader::new(BufReader::new(read_half));
    // Frames are written whole under this lock — responses from this
    // thread and events from the forwarder interleave only at frame
    // boundaries.
    let writer = Arc::new(Mutex::new(conn));
    let gone = Arc::new(AtomicBool::new(false));
    let mut forwarder: Option<JoinHandle<()>> = None;

    converse(&mut frames, &writer, &gone, &shared, &mut forwarder);

    gone.store(true, Ordering::SeqCst);
    lock_recovering(&writer).shutdown(Shutdown::Both).ok();
    if let Some(join) = forwarder {
        join.join().ok();
    }
}

/// The request/response loop (separated out so `serve_connection` owns
/// exactly one cleanup path).
fn converse(
    frames: &mut FrameReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    gone: &Arc<AtomicBool>,
    shared: &Arc<Shared>,
    forwarder: &mut Option<JoinHandle<()>>,
) {
    // Handshake: exactly one hello, version-checked; it binds the
    // default session.
    let Ok(Some(hello)) = frames.next_frame() else {
        return;
    };
    let Ok(hello) = std::str::from_utf8(hello) else {
        return;
    };
    let refusal = match wire::decode_hello(hello) {
        Ok(wire::PROTO_VERSION_V2) => None,
        Ok(version) => Some(format!(
            "unsupported {} version {version} (serving {})",
            wire::PROTO_NAME,
            wire::PROTO_VERSION_V2
        )),
        Err(what) => Some(format!("bad handshake: {what}")),
    };
    if let Some(message) = refusal {
        write_frame(writer, Response::Err { message }.encode()).ok();
        return;
    }
    let mut binding = Binding::new(shared.table.default_entry());
    let info = binding.entry.lock().info();
    // The hello advertises the submission window the server honors.
    let reply = wire::with_sid(
        Response::Hello {
            info,
            win: wire::MAX_WINDOW,
        }
        .encode(),
        binding.sid(),
    );
    if write_frame(writer, reply).is_err() {
        return;
    }

    // Acknowledgements to windowed frames batch here and go out in one
    // `write` when the pipelined burst is exhausted (or a lockstep
    // response joins them) — the server half of the windowed
    // throughput win. The client never blocks on bytes held here: it
    // only awaits acks for frames it finished sending, and the batch is
    // flushed before this thread blocks on the next read.
    let mut replies = Outbox::default();
    loop {
        // About to block? Everything batched must be on the wire first.
        // (A partial frame in the read buffer means its remainder is
        // already in flight from a client that writes whole frames
        // before awaiting, so waiting for it cannot deadlock.)
        if !replies.frames.is_empty() && frames.is_drained() && replies.flush(writer).is_err() {
            return;
        }
        // EOF, socket shutdown, an oversized frame, or one that is not
        // UTF-8.
        let Some(decoded) = read_request(frames) else {
            return;
        };
        let windowed = matches!(
            &decoded,
            Ok((
                Request::Submit { seq: Some(_), .. } | Request::Post { seq: Some(_), .. },
                _
            ))
        );
        let (response, stop_after) = match decoded {
            Err(what) => (
                Response::Err {
                    message: format!("bad request: {what}"),
                },
                false,
            ),
            Ok((request, sid)) => match admit(&request, sid.as_deref(), &binding) {
                Err(message) => (Response::Err { message }, false),
                Ok(()) => execute(&request, shared, writer, gone, forwarder, &mut binding),
            },
        };
        // Responses carry the *post-execution* binding's sid, so a
        // successful open/attach is acknowledged under its new session.
        // Every response is encoded straight into the batch, in FIFO
        // position behind any acks still owed.
        push_response(&mut replies.frames, &response, binding.sid());
        if windowed {
            // Windowed acks (including refusals of windowed frames) are
            // tiny and never `stop_after`; they wait for the burst.
            if replies.frames.len() >= ACK_BATCH_CAP && replies.flush(writer).is_err() {
                return;
            }
            continue;
        }
        // A lockstep response goes out at once, in the same `write` as
        // the acks before it. The requester hears the outcome *before*
        // the acceptor stops — a `shutdown` must be acknowledged, not
        // met with a dead socket.
        let written = replies.flush(writer);
        if stop_after {
            shared.stop();
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

/// Reads and decodes the next request frame. `None` ends the
/// connection: the stream ended or failed, the frame overflowed the cap,
/// or it is not UTF-8 (a broken transport, never answered with an `err`
/// frame).
// ltc-lint: hot-path
fn read_request<R: Read>(
    frames: &mut FrameReader<R>,
) -> Option<Result<AddressedRequest<'_>, WireError>> {
    let frame = frames.next_frame().ok()??;
    match Request::decode_bytes(frame) {
        Ok(decoded) => Some(Ok(decoded)),
        Err(FrameError::NotUtf8) => None,
        Err(FrameError::Invalid(what)) => Some(Err(what)),
    }
}

/// Flush threshold for a batch of whole frames: responses on the
/// connection thread, events on the forwarder.
const ACK_BATCH_CAP: usize = 64 * 1024;

/// A flush of at most this many bytes is small (see [`Outbox`]).
const QUIET_BYTES: usize = 1024;

/// See [`Outbox`].
const QUIET_FLUSHES: u32 = 64;

/// A batch of whole frames awaiting one `write`: the connection
/// thread's responses, or the forwarder's events.
#[derive(Debug, Default)]
struct Outbox {
    frames: Vec<u8>,
    /// Flushes in a row that were small.
    quiet: u32,
}

impl Outbox {
    /// Writes the batch in one locked `write` (responses and events
    /// from the two writer threads still interleave only at frame
    /// boundaries) and empties it for reuse. The emptied batch keeps
    /// room for twice [`ACK_BATCH_CAP`], so a huge response (a
    /// snapshot) does not stay pinned, and only [`QUIET_BYTES`]' once
    /// its last [`QUIET_FLUSHES`] flushes were each that small, so a
    /// quiet connection does not keep its busiest burst's memory.
    fn flush<W: Write>(&mut self, writer: &Mutex<W>) -> io::Result<()> {
        let result = lock_recovering(writer).write_all(&self.frames);
        self.quiet = if self.frames.len() <= QUIET_BYTES {
            self.quiet.saturating_add(1)
        } else {
            0
        };
        self.frames.clear();
        self.frames.shrink_to(if self.quiet >= QUIET_FLUSHES {
            QUIET_BYTES
        } else {
            2 * ACK_BATCH_CAP
        });
        result
    }
}

/// Waits up to `wait` for `stream` to have events, then appends every
/// event that is ready to `batch` as whole `\n`-terminated event
/// frames, encoded in place from the borrowed deliveries, each carrying
/// `sid` ([`Binding::sid`]). Stops once the batch
/// reaches [`ACK_BATCH_CAP`] (at a frame boundary; the rest stays
/// queued for the next call) or nothing more is ready. Returns how many
/// frames it appended, or `None` once the stream has ended.
// ltc-lint: hot-path
fn encode_ready_events(
    stream: &mut EventStream,
    wait: Duration,
    sid: &str,
    batch: &mut Vec<u8>,
) -> Option<usize> {
    stream.recv_each(Some(wait), |event| {
        wire::encode_event_into(batch, event, Some(sid));
        if batch.len() >= ACK_BATCH_CAP {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
}

/// The connection edge every decoded request passes before it runs:
/// the frame's `"sid"` must name the bound session — except on
/// open/attach/close, where it *is* the target.
fn admit(request: &Request, sid: Option<&[u8]>, binding: &Binding) -> Result<(), String> {
    if matches!(
        request,
        Request::Open { .. } | Request::Attach { .. } | Request::Close { .. }
    ) {
        return Ok(());
    }
    let bound = binding.sid();
    match sid {
        None => Err("missing `sid` (every v2 request carries one)".into()),
        Some(sid) if sid != bound.as_bytes() => Err(format!(
            "request sid `{}` does not match the bound session `{bound}`",
            String::from_utf8_lossy(sid)
        )),
        Some(_) => Ok(()),
    }
}

/// Appends `response` to `batch` as one whole frame carrying `sid`,
/// degrading an oversized one into an error frame — a response that
/// would overflow the peer's frame cap (a snapshot of an enormous
/// service) must stay recoverable; sending it anyway would kill the
/// connection on the client side.
fn push_response(batch: &mut Vec<u8>, response: &Response, sid: &str) {
    let start = batch.len();
    response.encode_into(batch, Some(sid));
    let len = batch.len() - start - 1;
    if len >= wire::MAX_FRAME {
        batch.truncate(start);
        Response::Err {
            message: format!(
                "response of {len} bytes exceeds the {}-byte frame cap",
                wire::MAX_FRAME
            ),
        }
        .encode_into(batch, Some(sid));
    }
}

/// Writes one already-encoded handshake frame.
fn write_frame(writer: &Arc<Mutex<TcpStream>>, frame: String) -> io::Result<()> {
    let mut stream = lock_recovering(writer);
    wire::write_frame(&mut *stream, &frame)
}

fn err_response(e: ServiceError) -> Response {
    Response::Err {
        message: e.to_string(),
    }
}

/// Executes one request against the connection's bound session (or the
/// session table, for the session verbs), returning the response and
/// whether the server should stop once it is written. Every
/// state-touching arm locks the session for the whole operation — the
/// lock *is* that session's global submission order.
fn execute(
    request: &Request,
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    gone: &Arc<AtomicBool>,
    forwarder: &mut Option<JoinHandle<()>>,
    binding: &mut Binding,
) -> (Response, bool) {
    let response = match request {
        Request::Submit { worker, seq } => {
            // Windowed or lockstep, the handling is identical: the
            // session lock is taken per request, so frames the client
            // fired ahead queue in the socket and are applied
            // back-to-back in arrival order — the pipelining *is* the
            // read loop. The echoed `"seq"` lets the client verify the
            // FIFO correspondence.
            let mut session = binding.entry.lock();
            match session.submit_worker(worker) {
                Ok(worker) => Response::Submit { worker, seq: *seq },
                Err(e) => err_response(e),
            }
        }
        Request::Post { task, row, seq } => {
            let mut session = binding.entry.lock();
            let posted = match row {
                None => session.post_task(*task),
                Some(row) => session.post_task_with_accuracies(*task, row),
            };
            match posted {
                Ok(task) => Response::Post { task, seq: *seq },
                Err(e) => err_response(e),
            }
        }
        Request::Subscribe => {
            if forwarder.is_some() {
                return (Response::Subscribe, false); // idempotent per connection
            }
            let mut stream = {
                let mut session = binding.entry.lock();
                match session.subscribe() {
                    Ok(stream) => stream,
                    Err(e) => return (err_response(e), false),
                }
            };
            let writer = Arc::clone(writer);
            let gone = Arc::clone(gone);
            let shared = Arc::clone(shared);
            let entry = Arc::clone(&binding.entry);
            let sid = binding.sid().to_owned();
            let join = std::thread::Builder::new()
                .name("ltc-serve-events".into())
                .spawn(move || {
                    // Events that are already waiting go out together in
                    // one locked `write`; the forwarder only blocks (on
                    // the stream) with nothing left to send.
                    let mut batch = Outbox::default();
                    loop {
                        match encode_ready_events(
                            &mut stream,
                            FORWARDER_POLL,
                            &sid,
                            &mut batch.frames,
                        ) {
                            Some(1..) => {
                                if batch.flush(&writer).is_err() {
                                    return;
                                }
                            }
                            // Idle (or the stream ended — the two are
                            // treated alike here): keep pacing until the
                            // peer leaves, the session is evicted, or the
                            // server stops, then let the channel drain
                            // one last time and exit.
                            Some(0) | None => {
                                if gone.load(Ordering::SeqCst)
                                    || entry.is_closed()
                                    || shared.stopping.load(Ordering::SeqCst)
                                {
                                    while encode_ready_events(
                                        &mut stream,
                                        Duration::ZERO,
                                        &sid,
                                        &mut batch.frames,
                                    )
                                    .is_some_and(|n| n > 0)
                                    {
                                        if batch.flush(&writer).is_err() {
                                            return;
                                        }
                                    }
                                    return;
                                }
                            }
                        }
                    }
                })
                .ok();
            match join {
                Some(join) => {
                    *forwarder = Some(join);
                    Response::Subscribe
                }
                None => Response::Err {
                    message: "could not spawn the event forwarder".into(),
                },
            }
        }
        Request::Drain => {
            let mut session = binding.entry.lock();
            match session.drain() {
                Ok(()) => Response::Drain,
                Err(e) => err_response(e),
            }
        }
        Request::Snapshot => {
            let mut session = binding.entry.lock();
            match session.snapshot() {
                Ok(snapshot) => {
                    let mut text = Vec::new();
                    match ltc_core::snapshot::write_snapshot(&snapshot, &mut text) {
                        Ok(()) => Response::Snapshot {
                            // The writer emits ASCII text.
                            text: String::from_utf8_lossy(&text).into_owned(),
                        },
                        Err(e) => Response::Err {
                            message: format!("could not serialize the snapshot: {e}"),
                        },
                    }
                }
                Err(e) => err_response(e),
            }
        }
        Request::Rebalance => {
            let mut session = binding.entry.lock();
            match session.rebalance() {
                Ok(outcome) => Response::Rebalance { outcome },
                Err(e) => err_response(e),
            }
        }
        Request::Metrics => {
            let mut session = binding.entry.lock();
            match session.metrics() {
                Ok(mut metrics) => {
                    // The hosting process's view, not the session's: the
                    // table knows how many sessions this server carries.
                    metrics.sessions_open = shared.table.open_count();
                    metrics.sessions_evicted = shared.table.evicted_count();
                    Response::Metrics { metrics }
                }
                Err(e) => err_response(e),
            }
        }
        Request::Shutdown => {
            let result = shared.table.shutdown_all();
            return match result {
                Ok(()) => (Response::Shutdown, true),
                Err(e) => (err_response(e), false),
            };
        }
        Request::Open {
            sid,
            algorithm,
            shards,
            region,
        } => {
            if forwarder.is_some() {
                return (
                    Response::Err {
                        message: "a subscribed connection cannot rebind (open a new connection)"
                            .into(),
                    },
                    false,
                );
            }
            let config = SessionConfig {
                algorithm: *algorithm,
                shards: *shards,
                region: *region,
            };
            match shared.table.open(sid, &config) {
                Ok(entry) => {
                    let info = entry.lock().info();
                    binding.rebind(entry);
                    Response::Open { info }
                }
                Err(e) => err_response(e),
            }
        }
        Request::Attach { sid } => {
            if forwarder.is_some() {
                return (
                    Response::Err {
                        message: "a subscribed connection cannot rebind (open a new connection)"
                            .into(),
                    },
                    false,
                );
            }
            match shared.table.get(sid) {
                Ok(entry) => {
                    let info = entry.lock().info();
                    binding.rebind(entry);
                    Response::Attach { info }
                }
                Err(e) => err_response(e),
            }
        }
        Request::Close { sid } => match shared.table.close(sid) {
            Ok(()) => Response::Close,
            Err(e) => err_response(e),
        },
        Request::Sessions => Response::Sessions {
            sessions: shared.table.list(),
        },
    };
    (response, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LtcClient;
    use ltc_core::model::{ProblemParams, Worker};
    use ltc_core::service::{EventBatch, EventRef, ServiceBuilder, StreamEvent};
    use ltc_spatial::{BoundingBox, Point};

    fn test_session() -> ltc_core::service::ServiceHandle {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        ServiceBuilder::new(params, region).start().unwrap()
    }

    /// Delivers `events` to a fresh stream as one batch (the fanout is
    /// dropped, so the stream holds exactly these).
    fn stream_of(events: &[StreamEvent]) -> EventStream {
        let mut fanout = ltc_core::service::EventFanout::default();
        let stream = fanout.subscribe();
        let mut batch = EventBatch::new();
        for event in events {
            batch.push(EventRef::from(event));
        }
        fanout.deliver(&mut batch);
        stream
    }

    fn posted(n: u32) -> Vec<StreamEvent> {
        (0..n)
            .map(|i| StreamEvent::TaskPosted {
                task: ltc_core::model::TaskId(i),
            })
            .collect()
    }

    /// Splits a batch into its frames, checking every one is whole.
    fn lines(batch: &[u8]) -> Vec<&str> {
        let batch = std::str::from_utf8(batch).expect("frames are text");
        let body = batch
            .strip_suffix('\n')
            .expect("a batch ends on a frame boundary");
        body.split('\n').collect()
    }

    #[test]
    fn an_event_batch_holds_every_ready_event_in_order() {
        let events = posted(40);
        let mut stream = stream_of(&events);
        let mut batch = Vec::new();
        assert_eq!(
            encode_ready_events(&mut stream, Duration::ZERO, "west", &mut batch),
            Some(events.len())
        );
        assert_eq!(
            stream.try_recv(),
            None,
            "every ready event joined the batch"
        );
        let frames = lines(&batch);
        assert_eq!(frames.len(), events.len());
        for (frame, event) in frames.iter().zip(&events) {
            assert_eq!(&wire::decode_event(frame).unwrap(), event);
            assert!(frame.ends_with(",\"sid\":\"west\"}"), "{frame}");
        }
    }

    #[test]
    fn a_burst_beyond_the_cap_splits_at_a_frame_boundary() {
        let events = posted(10_000);
        let sid = wire::DEFAULT_SESSION;
        let frame_len =
            wire::with_sid(wire::encode_event(&events[events.len() - 1]), sid).len() + 1;
        assert!(
            events.len() * frame_len > 2 * ACK_BATCH_CAP,
            "the burst must overflow"
        );
        let mut stream = stream_of(&events);
        let mut batch = Vec::new();
        let mut decoded = Vec::new();
        let mut batches = 0;
        while encode_ready_events(&mut stream, Duration::ZERO, sid, &mut batch).is_some() {
            assert!(
                batch.len() < ACK_BATCH_CAP + frame_len,
                "{} bytes",
                batch.len()
            );
            for frame in lines(&batch) {
                decoded.push(wire::decode_event(frame).unwrap());
            }
            batch.clear();
            batches += 1;
        }
        assert!(batches >= 3, "{batches} batches");
        assert_eq!(decoded, events);
    }

    /// What the connection loop read before [`FrameReader`]: each frame
    /// by `read_frame_into`, decoded with the owned `"sid"`, until the
    /// first read error.
    fn reference_requests(bytes: &[u8]) -> Vec<Result<(Request, Option<String>), WireError>> {
        let mut reader = std::io::Cursor::new(bytes);
        let mut line = Vec::new();
        let mut out = Vec::new();
        while let Ok(Some(frame)) = wire::read_frame_into(&mut reader, &mut line) {
            out.push(Request::decode_with_sid(frame));
        }
        out
    }

    #[test]
    fn the_connection_loop_reads_the_same_requests_at_every_refill_boundary() {
        let worker = |n: u32| Worker::new(Point::new(f64::from(n) * 1.5, 2.0), 0.9);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for n in 0..12u32 {
            let request = match n % 4 {
                0 => Request::Submit {
                    worker: worker(n),
                    seq: Some(u64::from(n)),
                },
                1 => Request::Post {
                    task: ltc_core::model::Task::new(Point::new(1.0, f64::from(n))),
                    row: None,
                    seq: None,
                },
                2 => Request::Drain,
                _ => Request::Attach { sid: "west".into() },
            };
            let mut frame = Vec::new();
            request.encode_into(&mut frame, (n % 3 != 0).then_some("default"));
            frames.push(frame);
        }
        // A foreign framing, malformed JSON and an empty line draw
        // `err` replies, not the end of the connection.
        for foreign in [
            &b"{\"op\": \"drain\", \"sid\":\"default\"}\n"[..],
            b"{\"op\":\n",
            b"\n",
        ] {
            frames.push(foreign.to_vec());
        }
        let whole = frames.concat();
        let reference = reference_requests(&whole);
        assert_eq!(reference.len(), frames.len());
        // Every prefix: a cut mid-frame ends the connection after the
        // same requests.
        for cut in 0..=whole.len() {
            let stream = &whole[..cut];
            let expected = reference_requests(stream);
            for capacity in [1, 7, 8, 9, 16] {
                let mut reader = FrameReader::new(BufReader::with_capacity(
                    capacity,
                    std::io::Cursor::new(stream),
                ));
                let mut got = Vec::new();
                while let Some(decoded) = read_request(&mut reader) {
                    got.push(decoded.map(|(request, sid)| {
                        (
                            request,
                            sid.map(|sid| String::from_utf8(sid.into_owned()).unwrap()),
                        )
                    }));
                }
                assert_eq!(got, expected, "cut {cut}, capacity {capacity}");
            }
        }
        // A frame that is not UTF-8 ends the connection where the
        // reference reader's error did.
        let mut hostile = frames[..3].concat();
        hostile.extend_from_slice(b"{\"op\":\"drain\",\"sid\":\"d\xffefault\"}\n");
        hostile.extend_from_slice(&frames[0]);
        assert_eq!(reference_requests(&hostile).len(), 3);
        let mut reader =
            FrameReader::new(BufReader::with_capacity(7, std::io::Cursor::new(&hostile)));
        let mut read = 0;
        while read_request(&mut reader).is_some() {
            read += 1;
        }
        assert_eq!(read, 3);
    }

    #[test]
    fn a_non_utf8_frame_ends_the_connection_without_a_reply() {
        let running = LtcServer::bind("127.0.0.1:0", test_session())
            .unwrap()
            .spawn()
            .unwrap();
        let conn = TcpStream::connect(running.addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let send = |frame: &[u8]| (&conn).write_all(frame).unwrap();
        send(format!("{}\n", wire::encode_hello_v2()).as_bytes());
        assert!(wire::read_frame(&mut reader).unwrap().is_some(), "a hello");
        // Malformed text draws an `err` reply on a live connection...
        send(b"{\"op\":\"drain\",\"sid\":\n");
        let reply = wire::read_frame(&mut reader).unwrap().expect("a reply");
        assert!(reply.starts_with("{\"err\":"), "{reply}");
        // ...as does a request without its `"sid"`, which applies nothing...
        let worker = Worker::new(Point::new(1.0, 1.0), 0.9);
        let mut unaddressed = Vec::new();
        Request::Submit { worker, seq: None }.encode_into(&mut unaddressed, None);
        send(&unaddressed);
        let reply = wire::read_frame(&mut reader).unwrap().expect("a reply");
        assert!(reply.starts_with("{\"err\":\"missing `sid`"), "{reply}");
        // ...but bytes that are not UTF-8 end it: no reply, then EOF.
        send(b"{\"op\":\"drain\",\"sid\":\"def\xffult\"}\n");
        assert!(
            matches!(wire::read_frame(&mut reader), Ok(None) | Err(_)),
            "a non-UTF-8 frame drew a reply"
        );
        let mut client = LtcClient::connect_v2(running.addr()).unwrap();
        assert_eq!(client.metrics().unwrap().n_workers_seen, 0);
        client.shutdown().unwrap();
        running.wait().unwrap();
    }

    #[test]
    fn a_quiet_outbox_gives_its_room_back() {
        let sink = Mutex::new(Vec::new());
        let mut outbox = Outbox::default();
        // A burst grows the batch, and the batch keeps that room...
        outbox.frames.resize(3 * ACK_BATCH_CAP / 2, b'x');
        outbox.flush(&sink).unwrap();
        assert!(outbox.frames.capacity() >= 3 * ACK_BATCH_CAP / 2);
        // ...through a run of small flushes shorter than the rule's...
        for _ in 1..QUIET_FLUSHES {
            outbox.frames.extend_from_slice(&[b'y'; QUIET_BYTES]);
            outbox.flush(&sink).unwrap();
        }
        assert!(outbox.frames.capacity() >= 3 * ACK_BATCH_CAP / 2);
        // ...and gives it back once the run is long enough.
        outbox.frames.extend_from_slice(b"{}\n");
        outbox.flush(&sink).unwrap();
        assert!(outbox.frames.capacity() <= QUIET_BYTES);
        // A big flush ends the run: the next burst keeps its room again.
        outbox.frames.resize(2 * QUIET_BYTES, b'z');
        outbox.flush(&sink).unwrap();
        outbox.frames.resize(ACK_BATCH_CAP, b'z');
        outbox.flush(&sink).unwrap();
        assert!(outbox.frames.capacity() >= ACK_BATCH_CAP);
        let written = sink.into_inner().unwrap();
        assert_eq!(
            written.len(),
            3 * ACK_BATCH_CAP / 2 + 63 * QUIET_BYTES + 3 + 2 * QUIET_BYTES + ACK_BATCH_CAP
        );
    }

    /// Regression: a connection thread panicking while it holds a
    /// session lock used to poison the mutex for good — every later
    /// request on every other connection died unwrapping it. The lock
    /// must recover so only the offending connection fails.
    #[test]
    fn a_poisoned_session_mutex_does_not_wedge_other_clients() {
        let server = LtcServer::bind("127.0.0.1:0", test_session()).unwrap();
        let shared = Arc::clone(&server.shared);
        let running = server.spawn().unwrap();

        // Simulate the offending connection: panic while holding the
        // default session's lock, exactly as a request handler would.
        let poisoner = shared.table.default_entry();
        std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = poisoner.lock();
                panic!("connection thread dies mid-request");
            })
            .unwrap()
            .join()
            .unwrap_err();
        assert!(shared.table.default_entry().is_poisoned());

        // Every later client must still get served, end to end.
        let mut client = LtcClient::connect_v2(running.addr()).unwrap();
        let id = client
            .submit_worker(&Worker::new(Point::new(1.0, 1.0), 0.9))
            .unwrap();
        assert_eq!(id.0, 0);
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.n_workers_seen, 1);
        client.shutdown().unwrap();
        running.wait().unwrap();
    }
}
