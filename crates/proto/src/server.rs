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
//! That is `v2`, the only dialect past the connection edge. A `v1`
//! connection is translated there: [`admit`] refuses what `v1` never
//! had (`"sid"`, `"seq"`, the session verbs) and addresses every other
//! frame to the bound default session, which a `v1` connection can
//! therefore never leave; [`Binding::sid`] keeps the sid off every frame
//! it is sent. The `v1` serving model is the single-session special case
//! of the table, with byte-identical frames.
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
//! Windowed submission (`v2`) changes none of this: a client firing up
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
//! submission order — the runtime's collector guarantees it, the
//! forwarder preserves it. The forwarder paces its waits so it can
//! notice a departed peer, a stopping server, or an evicted session
//! instead of blocking forever on an idle stream.
//!
//! ## Lifecycle and shutdown
//!
//! A `v2` `close` evicts **one** named session: its subscribers receive
//! [`Lifecycle::SessionEvicted`](ltc_core::service::Lifecycle::SessionEvicted),
//! the session drains and shuts down
//! ([`Lifecycle::ShuttingDown`](ltc_core::service::Lifecycle::ShuttingDown)
//! ends the streams), and its name becomes free. The idle policy
//! ([`SessionTable::with_factory`]) evicts the same way, from a reaper
//! thread. A `shutdown` request (either dialect) still ends the *whole
//! server*: every session shuts down, subscribers' streams end, the
//! requester gets its response, and then the acceptor stops. Requests
//! on surviving connections get an error response (never a hang); their
//! threads exit when the client disconnects.

use crate::session_table::{SessionConfig, SessionEntry, SessionTable};
use crate::wire::{self, Request, Response};
use ltc_core::service::{EventStream, ServiceError, Session, StreamEvent};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
/// (or, via [`LtcServer::bind`], a single [`Session`] — the `v1`
/// serving model). [`LtcServer::run`] serves on the calling thread
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
/// policy can see live bindings, and moved by the `v2` rebind verbs.
/// Dropping the binding (the connection ended) releases the count and
/// restarts the session's idle clock.
struct Binding {
    entry: Arc<SessionEntry>,
    /// The connection said `v1` in its hello: set by the handshake,
    /// read only by [`admit`] and [`Binding::sid`].
    v1: bool,
}

impl Binding {
    fn new(entry: Arc<SessionEntry>, v1: bool) -> Self {
        entry.bind();
        Self { entry, v1 }
    }

    /// The `"sid"` every frame sent on this connection carries — the
    /// hello, each response, each event: the bound session's on `v2`,
    /// none on `v1`.
    fn sid(&self) -> Option<&str> {
        (!self.v1).then(|| self.entry.name())
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
    let mut reader = BufReader::new(read_half);
    // Frames are written whole under this lock — responses from this
    // thread and events from the forwarder interleave only at frame
    // boundaries.
    let writer = Arc::new(Mutex::new(conn));
    let gone = Arc::new(AtomicBool::new(false));
    let mut forwarder: Option<JoinHandle<()>> = None;

    converse(&mut reader, &writer, &gone, &shared, &mut forwarder);

    gone.store(true, Ordering::SeqCst);
    lock_recovering(&writer).shutdown(Shutdown::Both).ok();
    if let Some(join) = forwarder {
        join.join().ok();
    }
}

/// The request/response loop (separated out so `serve_connection` owns
/// exactly one cleanup path).
fn converse(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    gone: &Arc<AtomicBool>,
    shared: &Arc<Shared>,
    forwarder: &mut Option<JoinHandle<()>>,
) {
    // Handshake: exactly one hello, version-checked. Both dialects bind
    // the default session.
    let Ok(Some(hello)) = wire::read_frame(reader) else {
        return;
    };
    let v1 = match wire::decode_hello(&hello) {
        Ok(wire::PROTO_VERSION_V1) => true,
        Ok(wire::PROTO_VERSION_V2) => false,
        refused => {
            let message = match refused {
                Ok(version) => format!(
                    "unsupported {} version {version} (serving {} and {})",
                    wire::PROTO_NAME,
                    wire::PROTO_VERSION_V1,
                    wire::PROTO_VERSION_V2
                ),
                Err(what) => format!("bad handshake: {what}"),
            };
            write_frame(writer, Response::Err { message }.encode()).ok();
            return;
        }
    };
    let mut binding = Binding::new(shared.table.default_entry(), v1);
    let info = binding.entry.lock().info();
    let reply = match binding.sid() {
        // A `v2` hello advertises the submission window the server
        // honors; `v1`'s stays byte-identical (lockstep).
        Some(sid) => wire::with_sid(
            Response::Hello {
                info,
                win: wire::MAX_WINDOW,
            }
            .encode(),
            sid,
        ),
        None => wire::encode_hello_response_v1(&info),
    };
    if write_frame(writer, reply).is_err() {
        return;
    }

    // Acknowledgements to windowed frames batch here and go out in one
    // `write` when the pipelined burst is exhausted (or a lockstep
    // response needs the wire first) — the server half of the windowed
    // throughput win. The client never blocks on bytes held here: it
    // only awaits acks for frames it finished sending, and the batch is
    // flushed before this thread blocks on the next read.
    let mut acks = String::new();
    // Every request frame is read into this one buffer.
    let mut line = Vec::new();
    loop {
        // About to block? Everything batched must be on the wire first.
        // (A partial frame in the read buffer means its remainder is
        // already in flight from a client that writes whole frames
        // before awaiting, so waiting for it cannot deadlock.)
        if !acks.is_empty() && reader.buffer().is_empty() && flush_batch(writer, &mut acks).is_err()
        {
            return;
        }
        let frame = match wire::read_frame_into(reader, &mut line) {
            Ok(Some(frame)) => frame,
            _ => return, // EOF, socket shutdown, or an oversized frame
        };
        let decoded = Request::decode(frame);
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
        if windowed {
            // Windowed acks (including refusals of windowed frames) are
            // tiny and never `stop_after`; they are encoded straight
            // into the batch, in FIFO position.
            response.encode_into(&mut acks, binding.sid());
            if acks.len() >= ACK_BATCH_CAP && flush_batch(writer, &mut acks).is_err() {
                return;
            }
            continue;
        }
        let mut encoded = response.encode();
        if let Some(sid) = binding.sid() {
            encoded = wire::with_sid(encoded, sid);
        }
        // Lockstep responses keep their immediate write, behind any
        // batched acks still owed (FIFO across the whole connection).
        if !acks.is_empty() && flush_batch(writer, &mut acks).is_err() {
            return;
        }
        // The requester hears the outcome *before* the acceptor stops —
        // a `shutdown` must be acknowledged, not met with a dead socket.
        let written = write_frame(writer, encoded);
        if stop_after {
            shared.stop();
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

/// Flush threshold for a batch of whole frames: windowed
/// acknowledgements on the connection thread, events on the forwarder.
const ACK_BATCH_CAP: usize = 64 * 1024;

/// Writes a batch of whole frames in one locked `write` (responses and
/// events from the two writer threads still interleave only at frame
/// boundaries) and empties it for reuse.
fn flush_batch(writer: &Arc<Mutex<TcpStream>>, batch: &mut String) -> io::Result<()> {
    use std::io::Write as _;
    let mut stream = lock_recovering(writer);
    let result = stream.write_all(batch.as_bytes());
    batch.clear();
    result
}

/// Appends `first`, then every event the stream already has ready, to
/// `batch` as whole `\n`-terminated event frames, encoded in place,
/// each carrying `sid` when there is one ([`Binding::sid`]). Stops once
/// the batch reaches [`ACK_BATCH_CAP`] (at a frame boundary; the rest
/// stays queued for the next batch) or nothing more is ready.
fn fill_event_batch(
    stream: &EventStream,
    first: StreamEvent,
    sid: Option<&str>,
    batch: &mut String,
) {
    let mut next = Some(first);
    while let Some(event) = next {
        wire::encode_event_into(batch, &event, sid);
        if batch.len() >= ACK_BATCH_CAP {
            return;
        }
        next = stream.try_recv();
    }
}

/// The connection edge every decoded request passes before it runs.
/// A `v1` frame is translated onto `v2` first: refused if it uses
/// anything `v1` never had (a session verb, `"sid"`, windowed `"seq"`),
/// otherwise addressed to the bound default session. Then the `v2`
/// rule applies: the frame's `"sid"` must name the bound session —
/// except on open/attach/close, where it *is* the target.
fn admit(request: &Request, sid: Option<&str>, binding: &Binding) -> Result<(), String> {
    let session_verb = matches!(
        request,
        Request::Open { .. } | Request::Attach { .. } | Request::Close { .. } | Request::Sessions
    );
    let sid = if binding.v1 {
        let v2_only = if session_verb {
            Some("session verbs require")
        } else if sid.is_some() {
            Some("`sid` requires")
        } else if matches!(
            request,
            Request::Submit { seq: Some(_), .. } | Request::Post { seq: Some(_), .. }
        ) {
            Some("windowed submission (`seq`) requires")
        } else {
            None
        };
        if let Some(what) = v2_only {
            return Err(format!(
                "{what} {} v{}",
                wire::PROTO_NAME,
                wire::PROTO_VERSION_V2
            ));
        }
        Some(binding.entry.name())
    } else {
        sid
    };
    if matches!(request, Request::Sessions) || !session_verb {
        let bound = binding.entry.name();
        match sid {
            None => return Err("missing `sid` (every v2 request carries one)".into()),
            Some(sid) if sid != bound => {
                return Err(format!(
                    "request sid `{sid}` does not match the bound session `{bound}`"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Writes one already-encoded frame, degrading an oversized one into an
/// error frame first — a response that would overflow the peer's frame
/// cap (a snapshot of an enormous service) must stay recoverable;
/// sending it anyway would kill the connection on the client side.
fn write_frame(writer: &Arc<Mutex<TcpStream>>, frame: String) -> io::Result<()> {
    let frame = if frame.len() >= wire::MAX_FRAME {
        Response::Err {
            message: format!(
                "response of {} bytes exceeds the {}-byte frame cap",
                frame.len(),
                wire::MAX_FRAME
            ),
        }
        .encode()
    } else {
        frame
    };
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
            let stream = {
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
            let sid = binding.sid().map(str::to_owned);
            let join = std::thread::Builder::new()
                .name("ltc-serve-events".into())
                .spawn(move || {
                    // Events that are already waiting go out together in
                    // one locked `write`; the forwarder only blocks (on
                    // the stream) with nothing left to send.
                    let mut batch = String::new();
                    loop {
                        match stream.recv_timeout(FORWARDER_POLL) {
                            Some(event) => {
                                fill_event_batch(&stream, event, sid.as_deref(), &mut batch);
                                if flush_batch(&writer, &mut batch).is_err() {
                                    return;
                                }
                            }
                            // Idle (or the stream ended — the two are
                            // indistinguishable here): keep pacing until
                            // the peer leaves, the session is evicted, or
                            // the server stops, then let the channel
                            // drain one last time and exit.
                            None => {
                                if gone.load(Ordering::SeqCst)
                                    || entry.is_closed()
                                    || shared.stopping.load(Ordering::SeqCst)
                                {
                                    while let Some(event) = stream.try_recv() {
                                        fill_event_batch(
                                            &stream,
                                            event,
                                            sid.as_deref(),
                                            &mut batch,
                                        );
                                        if flush_batch(&writer, &mut batch).is_err() {
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
    use ltc_core::service::ServiceBuilder;
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

    /// Feeds `events` into a fresh stream (the sender is dropped, so
    /// the stream holds exactly these).
    fn stream_of(events: &[StreamEvent]) -> EventStream {
        let (tx, rx) = std::sync::mpsc::channel();
        for event in events {
            tx.send(event.clone()).unwrap();
        }
        EventStream::from_receiver(rx)
    }

    fn posted(n: u32) -> Vec<StreamEvent> {
        (0..n)
            .map(|i| StreamEvent::TaskPosted {
                task: ltc_core::model::TaskId(i),
            })
            .collect()
    }

    /// Splits a batch into its frames, checking every one is whole.
    fn lines(batch: &str) -> Vec<&str> {
        let body = batch
            .strip_suffix('\n')
            .expect("a batch ends on a frame boundary");
        body.split('\n').collect()
    }

    #[test]
    fn an_event_batch_holds_every_ready_event_in_order() {
        let events = posted(40);
        let stream = stream_of(&events);
        let mut batch = String::new();
        let first = stream.try_recv().unwrap();
        fill_event_batch(&stream, first, Some("west"), &mut batch);
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
    fn a_v1_event_batch_is_byte_identical_to_single_frames() {
        let events = posted(5);
        let stream = stream_of(&events);
        let mut batch = String::new();
        fill_event_batch(&stream, stream.try_recv().unwrap(), None, &mut batch);
        let expected: String = events
            .iter()
            .map(|e| format!("{}\n", wire::encode_event(e)))
            .collect();
        assert_eq!(batch, expected);
    }

    #[test]
    fn a_burst_beyond_the_cap_splits_at_a_frame_boundary() {
        let events = posted(10_000);
        let frame_len = wire::encode_event(&events[events.len() - 1]).len() + 1;
        assert!(
            events.len() * frame_len > 2 * ACK_BATCH_CAP,
            "the burst must overflow"
        );
        let stream = stream_of(&events);
        let mut batch = String::new();
        let mut decoded = Vec::new();
        let mut batches = 0;
        while let Some(first) = stream.try_recv() {
            fill_event_batch(&stream, first, None, &mut batch);
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
