//! The remote [`Session`] implementation: a TCP client speaking
//! `ltc-proto v2` (the session namespace and windowed submission) to an
//! `ltc serve` process. The server also serves `v1` clients; this
//! client never speaks it.

use crate::session_table::SessionConfig;
use crate::wire::{self, Request, Response, SessionStat};
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{
    EventStream, RebalanceOutcome, ServiceError, ServiceMetrics, ServiceSnapshot, Session,
    SessionInfo, StreamEvent, WindowAck,
};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one request may wait for its response before the session is
/// declared wedged (override per client with
/// [`LtcClient::with_timeout`]). Generous: a drain of a deep pipeline
/// legitimately takes a while, but a dead server must surface as an
/// error, not a hang (the server's own drain gives up after 60 s, so
/// 90 s covers the full round trip).
pub const DEFAULT_RESPONSE_TIMEOUT: Duration = Duration::from_secs(90);

/// Flush threshold for batched windowed sends — far above a window of
/// small frames, so it only triggers on wide `post` rows.
const SEND_BATCH_CAP: usize = 256 * 1024;

/// What kind of acknowledgement an in-flight windowed frame owes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    Submit,
    Post,
}

/// Locks the subscriber fanout, recovering from poisoning instead of
/// propagating it: a subscriber that panicked mid-send must not wedge
/// the reader thread (and with it every other subscriber) behind a
/// permanently poisoned lock. The guarded `Vec<Sender>` is sound at
/// every point a panic can unwind through — dead receivers are pruned
/// on the next fanout anyway.
fn lock_recovering<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn transport(what: impl Into<String>) -> ServiceError {
    ServiceError::Transport(what.into())
}

/// A remote LTC session over TCP — the [`Session`] implementation that
/// makes `ltc serve` reachable from another process. One connection is
/// one session view: requests are answered in order, and once
/// [`subscribe`](Session::subscribe)d, the server forwards every event
/// (in exact submission order) down the same connection, where a reader
/// thread demultiplexes them from the responses.
///
/// Everything observable is identical to driving the server's
/// [`ServiceHandle`](ltc_core::service::ServiceHandle) in process:
/// floats cross the wire as bit patterns, ids as integers, and the
/// server assigns arrival ids in request-arrival order — the loopback
/// differential tests assert byte-identical NDJSON output through both
/// paths.
///
/// The client is also a citizen of the server's session namespace: it
/// starts bound to the default session and can
/// [`open_session`](LtcClient::open_session) /
/// [`attach_session`](LtcClient::attach_session) to rebind, every frame
/// it sends and receives carrying the bound session's `"sid"`.
///
/// ## Windowed submission
///
/// By default every request is lockstep: one frame out, one response
/// awaited. [`Session::set_window`] negotiates a submission window of
/// up to W (clamped to what the server's hello advertised; a server
/// that advertises nothing stays lockstep), after which
/// [`submit_worker_windowed`](Session::submit_worker_windowed) /
/// [`post_task_windowed`](Session::post_task_windowed) fire their
/// frames immediately and defer the acknowledgements. Each windowed
/// frame carries a `"seq"` correlation number the server echoes back;
/// responses arrive strictly FIFO per connection, and the client
/// verifies every echoed `"seq"` against the head of its in-flight
/// queue — a mismatch is a protocol corruption that fails the session
/// rather than reordering anything. When the window is full, the next
/// windowed call **stalls** on the oldest in-flight ack (back-pressure
/// surfaces as that stall, never as reordering); every lockstep request
/// is a sequence point that first drains the window completely.
#[derive(Debug)]
pub struct LtcClient {
    stream: TcpStream,
    responses: Receiver<Result<Response, String>>,
    subscribers: Arc<Mutex<Vec<Sender<StreamEvent>>>>,
    reader: Option<JoinHandle<()>>,
    info: SessionInfo,
    /// The bound session's id.
    sid: String,
    subscribed: bool,
    closed: bool,
    /// Per-request response deadline ([`DEFAULT_RESPONSE_TIMEOUT`]
    /// unless overridden with [`LtcClient::with_timeout`]).
    timeout: Duration,
    /// The granted submission window (1 = lockstep).
    window: usize,
    /// The largest window the server's hello advertised.
    server_window: usize,
    /// The next windowed frame's `"seq"` correlation number.
    next_seq: u64,
    /// In-flight windowed submissions, oldest first: each owes exactly
    /// one response carrying this `"seq"`.
    pending: VecDeque<(u64, PendingKind)>,
    /// Windowed frames batched for the next send: fires coalesce into
    /// one `write` per blocking wait instead of one per frame, which is
    /// most of the windowed throughput win. Invariant: non-empty only
    /// while `pending` is non-empty, and the client never blocks while
    /// holding unsent frames — the buffer is flushed before every
    /// blocking wait (an ack that already arrived is taken without one:
    /// it answers a frame already sent), so the server never owes a
    /// response to bytes still here.
    send_buf: String,
}

impl LtcClient {
    /// Connects and runs the `ltc-proto v2` handshake. The connection
    /// starts bound to the server's default session and is ready to
    /// submit; [`Session::subscribe`] starts the event flow. A hello
    /// reply in any other version is refused as a transport error.
    pub fn connect_v2(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| transport(format!("connect: {e}")))?;
        stream.set_nodelay(true).ok();
        wire::write_frame(&mut stream, &wire::encode_hello_v2())
            .map_err(|e| transport(format!("handshake send: {e}")))?;

        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| transport(format!("clone socket: {e}")))?,
        );
        let hello = wire::read_frame(&mut reader)
            .map_err(|e| transport(format!("handshake read: {e}")))?
            .ok_or_else(|| transport("server closed during the handshake"))?;
        let (info, advertised) = match Response::decode(&hello).map_err(transport)? {
            Response::Hello { info, win } => (info, win),
            Response::Err { message } => return Err(transport(message)),
            other => return Err(transport(format!("unexpected handshake reply {other:?}"))),
        };

        let (response_tx, responses) = mpsc::channel();
        let subscribers: Arc<Mutex<Vec<Sender<StreamEvent>>>> = Arc::new(Mutex::new(Vec::new()));
        let fanout = Arc::clone(&subscribers);
        let reader = std::thread::Builder::new()
            .name("ltc-client-reader".into())
            .spawn(move || {
                // Every frame is read into this one buffer.
                let mut line = Vec::new();
                loop {
                    match wire::read_frame_into(&mut reader, &mut line) {
                        Ok(Some(frame)) if wire::is_event_frame(frame) => {
                            match wire::decode_event(frame) {
                                Ok(event) => {
                                    let mut subs = lock_recovering(&fanout);
                                    // The usual single subscriber takes the
                                    // decoded event itself; only a real
                                    // fan-out pays for clones.
                                    if let [only] = subs.as_slice() {
                                        if only.send(event).is_err() {
                                            subs.clear();
                                        }
                                    } else {
                                        subs.retain(|tx| tx.send(event.clone()).is_ok());
                                    }
                                }
                                Err(what) => {
                                    response_tx
                                        .send(Err(format!("bad event frame: {what}")))
                                        .ok();
                                    return;
                                }
                            }
                        }
                        Ok(Some(frame)) => {
                            let decoded = Response::decode(frame)
                                .map_err(|what| format!("bad frame: {what}"));
                            let failed = decoded.is_err();
                            response_tx.send(decoded).ok();
                            if failed {
                                return;
                            }
                        }
                        Ok(None) => return, // clean close: drop the channels
                        Err(e) => {
                            response_tx.send(Err(format!("read: {e}"))).ok();
                            return;
                        }
                    }
                }
            })
            .map_err(|_| transport("could not spawn the reader thread"))?;

        Ok(Self {
            stream,
            responses,
            subscribers,
            reader: Some(reader),
            info,
            sid: wire::DEFAULT_SESSION.to_string(),
            subscribed: false,
            closed: false,
            timeout: DEFAULT_RESPONSE_TIMEOUT,
            window: 1,
            server_window: advertised.clamp(1, wire::MAX_WINDOW) as usize,
            next_seq: 0,
            pending: VecDeque::new(),
            send_buf: String::new(),
        })
    }

    /// Replaces the per-request response deadline
    /// ([`DEFAULT_RESPONSE_TIMEOUT`] otherwise): how long any await on
    /// the server — a lockstep response, a deferred windowed ack — may
    /// take before the session is declared wedged. Tests shrink this so
    /// a dead server fails in seconds, not minutes.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The largest submission window the server's hello advertised
    /// (what [`Session::set_window`] requests are clamped to; 1 on a
    /// pre-windowing server).
    pub fn server_window(&self) -> usize {
        self.server_window
    }

    /// The currently granted submission window (1 = lockstep).
    pub fn window(&self) -> usize {
        self.window
    }

    /// How many windowed submissions are in flight right now.
    pub fn window_in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The address of the serving peer.
    pub fn peer_addr(&self) -> Option<std::net::SocketAddr> {
        self.stream.peer_addr().ok()
    }

    /// The session this connection is bound to (`"default"` until a
    /// successful [`open_session`](LtcClient::open_session) or
    /// [`attach_session`](LtcClient::attach_session)).
    pub fn session_id(&self) -> &str {
        &self.sid
    }

    /// Creates (and binds to) a named session on the server — the
    /// `open` verb. Knobs left `None` in `config` inherit the server's
    /// template. Fails after [`subscribe`](Session::subscribe), on a
    /// duplicate or illegal name, and on a full or fixed session table.
    pub fn open_session(
        &mut self,
        sid: &str,
        config: &SessionConfig,
    ) -> Result<SessionInfo, ServiceError> {
        match self.request(&Request::Open {
            sid: sid.to_string(),
            algorithm: config.algorithm,
            shards: config.shards,
            region: config.region,
        })? {
            Response::Open { info } => {
                self.sid = sid.to_string();
                self.info = info.clone();
                Ok(info)
            }
            other => Err(Self::unexpected(other)),
        }
    }

    /// Binds this connection to an existing named session — the
    /// `attach` verb.
    pub fn attach_session(&mut self, sid: &str) -> Result<SessionInfo, ServiceError> {
        match self.request(&Request::Attach {
            sid: sid.to_string(),
        })? {
            Response::Attach { info } => {
                self.sid = sid.to_string();
                self.info = info.clone();
                Ok(info)
            }
            other => Err(Self::unexpected(other)),
        }
    }

    /// Quiesces and evicts a named session — the `close` verb. The
    /// connection's own binding is untouched (closing the bound session
    /// leaves later requests failing with `RuntimeStopped`).
    pub fn close_session(&mut self, sid: &str) -> Result<(), ServiceError> {
        match self.request(&Request::Close {
            sid: sid.to_string(),
        })? {
            Response::Close => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Lists the server's live sessions — the `sessions` verb.
    pub fn list_sessions(&mut self) -> Result<Vec<SessionStat>, ServiceError> {
        match self.request(&Request::Sessions)? {
            Response::Sessions { sessions } => Ok(sessions),
            other => Err(Self::unexpected(other)),
        }
    }

    fn request(&mut self, request: &Request) -> Result<Response, ServiceError> {
        if self.closed {
            return Err(ServiceError::RuntimeStopped("the session is shut down"));
        }
        // Every lockstep request is a sequence point: the in-flight
        // window must drain first so responses keep matching requests
        // one-to-one. A deferred refusal surfaces here, before the new
        // request is sent; ids that matter should have been collected
        // with `flush_window` already.
        while !self.pending.is_empty() {
            self.await_oldest()?;
        }
        let mut frame = request.encode();
        // The session verbs already carry their target `"sid"`;
        // everything else addresses the bound session.
        if !matches!(
            request,
            Request::Open { .. } | Request::Attach { .. } | Request::Close { .. }
        ) {
            frame = wire::with_sid(frame, &self.sid);
        }
        wire::write_frame(&mut (&self.stream), &frame)
            .map_err(|e| transport(format!("send: {e}")))?;
        match self.responses.recv_timeout(self.timeout) {
            Ok(Ok(Response::Err { message })) => Err(transport(message)),
            Ok(Ok(response)) => Ok(response),
            Ok(Err(what)) => Err(transport(what)),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(transport("no response within the timeout — server wedged?"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(transport("the server closed the connection"))
            }
        }
    }

    /// Consumes the oldest in-flight windowed acknowledgement. A server
    /// refusal (`err` frame) consumes the entry and surfaces as the
    /// submission's error; anything that breaks the FIFO/`"seq"`
    /// correspondence — a transport failure, a timeout, or an ack whose
    /// echoed `"seq"` is not the head of the window — is a protocol
    /// corruption that fails the whole session.
    fn await_oldest(&mut self) -> Result<WindowAck, ServiceError> {
        // An ack that already arrived answers a frame already sent
        // (responses are FIFO), so taking it needs no flush. Only a
        // blocking wait must first put the batched fires on the wire.
        let ready = match self.responses.try_recv() {
            Ok(response) => Ok(response),
            Err(mpsc::TryRecvError::Empty) => {
                self.flush_sends()?;
                self.responses.recv_timeout(self.timeout)
            }
            Err(mpsc::TryRecvError::Disconnected) => Err(mpsc::RecvTimeoutError::Disconnected),
        };
        let (seq, kind) = self
            .pending
            .pop_front()
            .expect("await_oldest requires an in-flight window");
        let response = match ready {
            Ok(Ok(response)) => response,
            Ok(Err(what)) => {
                self.closed = true;
                return Err(transport(what));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.closed = true;
                return Err(transport("no response within the timeout — server wedged?"));
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.closed = true;
                return Err(transport("the server closed the connection"));
            }
        };
        match (kind, response) {
            (_, Response::Err { message }) => Err(transport(message)),
            (
                PendingKind::Submit,
                Response::Submit {
                    worker,
                    seq: Some(got),
                },
            ) if got == seq => Ok(WindowAck::Worker(worker)),
            (
                PendingKind::Post,
                Response::Post {
                    task,
                    seq: Some(got),
                },
            ) if got == seq => Ok(WindowAck::Task(task)),
            (_, other) => {
                self.closed = true;
                Err(transport(format!(
                    "window ack out of range: expected seq {seq}, got {other:?}"
                )))
            }
        }
    }

    /// Consumes one deferred windowed acknowledgement, oldest first:
    /// `None` when nothing is in flight, otherwise the submission's
    /// outcome (its [`WindowAck`], or the error it was refused with).
    /// Finer-grained than [`Session::flush_window`] — per-submission
    /// outcomes survive an interleaved refusal.
    pub fn next_window_ack(&mut self) -> Option<Result<WindowAck, ServiceError>> {
        if self.pending.is_empty() {
            return None;
        }
        Some(self.await_oldest())
    }

    /// Fires one windowed frame (stalling on the oldest ack first if
    /// the window is full) and records its pending acknowledgement.
    fn fire_windowed(
        &mut self,
        request: &Request,
        kind: PendingKind,
        seq: u64,
    ) -> Result<Option<WindowAck>, ServiceError> {
        if self.closed {
            return Err(ServiceError::RuntimeStopped("the session is shut down"));
        }
        let acked = if self.pending.len() >= self.window {
            Some(self.await_oldest()?)
        } else {
            None
        };
        request.encode_into(&mut self.send_buf, Some(&self.sid));
        self.pending.push_back((seq, kind));
        // Unusually large batches (posts with wide probability rows) go
        // out early rather than ballooning the buffer.
        if self.send_buf.len() >= SEND_BATCH_CAP {
            self.flush_sends()?;
        }
        Ok(acked)
    }

    /// Puts every batched windowed frame on the wire in one `write`. A
    /// torn send breaks the frame/response correspondence for good —
    /// it fails the session, not just one submission.
    fn flush_sends(&mut self) -> Result<(), ServiceError> {
        if self.send_buf.is_empty() {
            return Ok(());
        }
        use std::io::Write as _;
        let result = (&self.stream).write_all(self.send_buf.as_bytes());
        self.send_buf.clear();
        if let Err(e) = result {
            self.closed = true;
            return Err(transport(format!("send: {e}")));
        }
        Ok(())
    }

    fn unexpected(response: Response) -> ServiceError {
        transport(format!("out-of-order response {response:?}"))
    }
}

impl Session for LtcClient {
    fn info(&self) -> SessionInfo {
        self.info.clone()
    }

    fn submit_worker(&mut self, worker: &Worker) -> Result<WorkerId, ServiceError> {
        match self.request(&Request::Submit {
            worker: *worker,
            seq: None,
        })? {
            Response::Submit { worker, seq: None } => Ok(worker),
            other => Err(Self::unexpected(other)),
        }
    }

    fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError> {
        match self.request(&Request::Post {
            task,
            row: None,
            seq: None,
        })? {
            Response::Post { task, seq: None } => Ok(task),
            other => Err(Self::unexpected(other)),
        }
    }

    fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError> {
        match self.request(&Request::Post {
            task,
            row: Some(accuracies.to_vec()),
            seq: None,
        })? {
            Response::Post { task, seq: None } => Ok(task),
            other => Err(Self::unexpected(other)),
        }
    }

    fn set_window(&mut self, window: usize) -> Result<usize, ServiceError> {
        if self.closed {
            return Err(ServiceError::RuntimeStopped("the session is shut down"));
        }
        // Resizing is a sequence point too: the old window drains under
        // its own discipline before the new one applies.
        while !self.pending.is_empty() {
            self.await_oldest()?;
        }
        self.window = window.clamp(1, self.server_window);
        Ok(self.window)
    }

    fn submit_worker_windowed(
        &mut self,
        worker: &Worker,
    ) -> Result<Option<WindowAck>, ServiceError> {
        if self.window <= 1 {
            return self
                .submit_worker(worker)
                .map(|id| Some(WindowAck::Worker(id)));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fire_windowed(
            &Request::Submit {
                worker: *worker,
                seq: Some(seq),
            },
            PendingKind::Submit,
            seq,
        )
    }

    fn post_task_windowed(&mut self, task: Task) -> Result<Option<WindowAck>, ServiceError> {
        if self.window <= 1 {
            return self.post_task(task).map(|id| Some(WindowAck::Task(id)));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fire_windowed(
            &Request::Post {
                task,
                row: None,
                seq: Some(seq),
            },
            PendingKind::Post,
            seq,
        )
    }

    fn flush_window(&mut self) -> Result<Vec<WindowAck>, ServiceError> {
        let mut acks = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            acks.push(self.await_oldest()?);
        }
        Ok(acks)
    }

    fn subscribe(&mut self) -> Result<EventStream, ServiceError> {
        // Register the local receiver *before* the wire round trip: the
        // server may race an event frame ahead of the Subscribe response
        // (another client's submission committing just after the
        // server-side subscribe), and the reader thread must already
        // have somewhere to deliver it. The server forwards each event
        // once per connection; local subscribers fan out from the reader
        // thread, so only the first subscription crosses the wire.
        let (tx, rx) = mpsc::channel();
        lock_recovering(&self.subscribers).push(tx);
        if !self.subscribed {
            match self.request(&Request::Subscribe) {
                Ok(Response::Subscribe) => self.subscribed = true,
                Ok(other) => {
                    lock_recovering(&self.subscribers).pop();
                    return Err(Self::unexpected(other));
                }
                Err(e) => {
                    lock_recovering(&self.subscribers).pop();
                    return Err(e);
                }
            }
        }
        Ok(EventStream::from_receiver(rx))
    }

    fn drain(&mut self) -> Result<(), ServiceError> {
        match self.request(&Request::Drain)? {
            Response::Drain => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError> {
        match self.request(&Request::Snapshot)? {
            Response::Snapshot { text } => ltc_core::snapshot::read_snapshot(text.as_bytes())
                .map_err(|e| transport(format!("undecodable snapshot from the server: {e}"))),
            other => Err(Self::unexpected(other)),
        }
    }

    fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError> {
        match self.request(&Request::Rebalance)? {
            Response::Rebalance { outcome } => Ok(outcome),
            other => Err(Self::unexpected(other)),
        }
    }

    fn metrics(&mut self) -> Result<ServiceMetrics, ServiceError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(Self::unexpected(other)),
        }
    }

    fn shutdown(&mut self) -> Result<(), ServiceError> {
        if self.closed {
            return Ok(());
        }
        // Settle the window first, swallowing deferred refusals — a
        // shutdown must not be derailed by a submission the server
        // already answered with an error (transport failures mark the
        // client closed and end the loop).
        while !self.pending.is_empty() && !self.closed {
            let _ = self.await_oldest();
        }
        if self.closed {
            return Ok(());
        }
        let result = match self.request(&Request::Shutdown)? {
            Response::Shutdown => Ok(()),
            other => Err(Self::unexpected(other)),
        };
        self.closed = true;
        self.stream.shutdown(Shutdown::Both).ok();
        if let Some(join) = self.reader.take() {
            join.join().ok();
        }
        result
    }
}

impl Drop for LtcClient {
    /// Closes the connection (the server keeps serving its other
    /// clients) and joins the reader thread.
    fn drop(&mut self) {
        self.stream.shutdown(Shutdown::Both).ok();
        if let Some(join) = self.reader.take() {
            join.join().ok();
        }
    }
}
