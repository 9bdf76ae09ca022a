//! The remote [`Session`] implementation: a TCP client speaking
//! `ltc-proto v2` (the session namespace and windowed submission) to an
//! `ltc serve` process.

use crate::session_table::SessionConfig;
use crate::wire::{self, FrameError, FrameReader, Request, Response, SessionStat};
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{
    EventBatch, EventFanout, EventStream, RebalanceOutcome, ServiceError, ServiceMetrics,
    ServiceSnapshot, Session, SessionInfo, WindowAck,
};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write as _};
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
/// permanently poisoned lock. The guarded fanout is sound at every
/// point a panic can unwind through — dropped streams are detached on
/// the next delivery anyway.
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
/// thread demultiplexes them from the responses. The reader delivers
/// the events it has decoded as one batch before it would block on the
/// socket and before it forwards any response, so everything the server
/// sent ahead of a `drain` response is in the streams when
/// [`drain`](Session::drain) returns.
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
    subscribers: Arc<Mutex<EventFanout>>,
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
    /// response to bytes still here. A lockstep request is encoded here
    /// too, once the window has drained, and sent at once.
    send_buf: Vec<u8>,
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
        let subscribers = Arc::new(Mutex::new(EventFanout::default()));
        let fanout = Arc::clone(&subscribers);
        let reader = std::thread::Builder::new()
            .name("ltc-client-reader".into())
            .spawn(move || pump(FrameReader::new(reader), &fanout, &response_tx))
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
            send_buf: Vec::new(),
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
        // The session verbs already carry their target `"sid"`;
        // everything else addresses the bound session. The drained
        // window left `send_buf` empty, so the frame goes out alone.
        let sid = (!matches!(
            request,
            Request::Open { .. } | Request::Attach { .. } | Request::Close { .. }
        ))
        .then_some(self.sid.as_str());
        request.encode_into(&mut self.send_buf, sid);
        self.write_send_buf()
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
        let result = self.write_send_buf();
        if let Err(e) = result {
            self.closed = true;
            return Err(transport(format!("send: {e}")));
        }
        Ok(())
    }

    /// Writes `send_buf` in one `write_all` and empties it, freeing
    /// what a huge frame (a wide `post` row) made it grow past twice the
    /// batch threshold.
    fn write_send_buf(&mut self) -> std::io::Result<()> {
        let result = (&self.stream).write_all(&self.send_buf);
        self.send_buf.clear();
        self.send_buf.shrink_to(2 * SEND_BATCH_CAP);
        result
    }

    fn unexpected(response: Response) -> ServiceError {
        transport(format!("out-of-order response {response:?}"))
    }
}

/// The reader thread's loop, until the connection ends: events decode
/// in place into one batch, which goes to the local streams before the
/// thread would block on the socket and before any response is
/// forwarded; responses go to the awaiting caller in arrival order. A
/// transport failure or an undecodable frame ends the loop, and the
/// failure reaches the caller as one last `Err`.
fn pump<R: Read>(
    mut frames: FrameReader<R>,
    fanout: &Mutex<EventFanout>,
    responses: &Sender<Result<Response, String>>,
) {
    let mut batch = EventBatch::new();
    let failure = loop {
        // About to block on the socket (no whole frame left in the read
        // buffer)? Deliver what is decoded first.
        if !batch.is_empty() && !frames.holds_frame() {
            lock_recovering(fanout).deliver(&mut batch);
        }
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break None, // clean close: drop the channels
            Err(e) => break Some(format!("read: {e}")),
        };
        if wire::is_event_frame(frame) {
            match wire::decode_event_into(frame, &mut batch) {
                Ok(()) => continue,
                Err(FrameError::NotUtf8) => break Some(format!("read: {}", FrameError::NotUtf8)),
                Err(what) => break Some(format!("bad event frame: {what}")),
            }
        }
        // The events the server sent before this response reach the
        // streams before it.
        lock_recovering(fanout).deliver(&mut batch);
        let decoded = match Response::decode_bytes(frame) {
            Err(FrameError::NotUtf8) => break Some(format!("read: {}", FrameError::NotUtf8)),
            decoded => decoded.map_err(|what| format!("bad frame: {what}")),
        };
        let failed = decoded.is_err();
        responses.send(decoded).ok();
        if failed {
            break None;
        }
    };
    lock_recovering(fanout).deliver(&mut batch);
    if let Some(what) = failure {
        responses.send(Err(what)).ok();
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
        // Attach the local stream *before* the wire round trip: the
        // server may race an event frame ahead of the Subscribe response
        // (another client's submission committing just after the
        // server-side subscribe), and the reader thread must already
        // have somewhere to deliver it. The server forwards each event
        // once per connection; local subscribers fan out from the reader
        // thread, so only the first subscription crosses the wire. On a
        // failure the stream is dropped here, which detaches it.
        let stream = lock_recovering(&self.subscribers).subscribe();
        if !self.subscribed {
            match self.request(&Request::Subscribe)? {
                Response::Subscribe => self.subscribed = true,
                other => return Err(Self::unexpected(other)),
            }
        }
        Ok(stream)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_core::model::{ProblemParams, TaskId};
    use ltc_core::service::{ServiceBuilder, StreamEvent};
    use ltc_spatial::{BoundingBox, Point};
    use std::net::TcpListener;

    /// What the reader loop is fed: every frame, event or response,
    /// the server sends per check-in, and a few it sends rarely.
    fn server_frames() -> Vec<Vec<u8>> {
        let sid = Some(wire::DEFAULT_SESSION);
        let worker = WorkerId(7);
        let mut frames = Vec::new();
        for n in 0..6u32 {
            let mut frame = Vec::new();
            let event = match n % 3 {
                0 => StreamEvent::TaskPosted { task: TaskId(n) },
                1 => StreamEvent::Worker {
                    worker,
                    events: vec![ltc_core::service::Event::Assigned {
                        worker,
                        task: TaskId(n),
                        acc: 0.875,
                        gain: 0.25 + f64::from(n),
                    }],
                },
                _ => StreamEvent::Lifecycle(ltc_core::service::Lifecycle::ShuttingDown),
            };
            wire::encode_event_into(&mut frame, (&event).into(), sid);
            frames.push(frame);
            let mut frame = Vec::new();
            let response = match n % 3 {
                0 => Response::Submit {
                    worker: WorkerId(u64::from(n)),
                    seq: Some(u64::from(n)),
                },
                1 => Response::Post {
                    task: TaskId(n),
                    seq: None,
                },
                _ => Response::Err {
                    message: "über capacity".into(),
                },
            };
            response.encode_into(&mut frame, sid);
            frames.push(frame);
        }
        frames
    }

    /// What the reader loop read before [`FrameReader`]: each frame by
    /// `read_frame_into`, events decoded and responses in order, and
    /// then the message the loop ended on, if any.
    fn reference_pump(bytes: &[u8]) -> (Vec<StreamEvent>, Vec<Result<Response, String>>) {
        let mut reader = std::io::Cursor::new(bytes);
        let mut line = Vec::new();
        let (mut events, mut responses) = (Vec::new(), Vec::new());
        loop {
            match wire::read_frame_into(&mut reader, &mut line) {
                Ok(Some(frame)) if wire::is_event_frame(frame) => {
                    events.push(wire::decode_event(frame).unwrap());
                }
                Ok(Some(frame)) => responses.push(Ok(Response::decode(frame).unwrap())),
                Ok(None) => return (events, responses),
                Err(e) => {
                    responses.push(Err(format!("read: {e}")));
                    return (events, responses);
                }
            }
        }
    }

    /// The reader loop run over `bytes` through a buffer of `capacity`.
    fn run_pump(
        bytes: &[u8],
        capacity: usize,
    ) -> (Vec<StreamEvent>, Vec<Result<Response, String>>) {
        let fanout = Mutex::new(EventFanout::default());
        let events = lock_recovering(&fanout).subscribe();
        let (tx, rx) = mpsc::channel();
        let frames = FrameReader::new(BufReader::with_capacity(
            capacity,
            std::io::Cursor::new(bytes),
        ));
        pump(frames, &fanout, &tx);
        drop(tx);
        (
            std::iter::from_fn(|| events.try_recv()).collect(),
            rx.iter().collect(),
        )
    }

    #[test]
    fn the_reader_loop_reads_the_same_stream_at_every_refill_boundary() {
        let frames = server_frames();
        let whole = frames.concat();
        let (events, responses) = reference_pump(&whole);
        assert_eq!((events.len(), responses.len()), (6, 6));
        // Every prefix: a cut mid-frame fails the session after the same
        // deliveries.
        for cut in 0..=whole.len() {
            let stream = &whole[..cut];
            let expected = reference_pump(stream);
            for capacity in [1, 7, 8, 9, 16] {
                assert_eq!(
                    run_pump(stream, capacity),
                    expected,
                    "cut {cut}, capacity {capacity}"
                );
            }
        }
        // A frame that is not UTF-8, event or response, fails the session
        // as a broken read, as it always has.
        for bad in [
            &b"{\"ev\":\"task\",\"task\":1,\"sid\":\"de\xfffault\"}\n"[..],
            b"{\"ok\":\"drain\",\"sid\":\"de\xfffault\"}\n",
        ] {
            let hostile = [&frames[..4].concat(), bad, &frames[0]].concat();
            let expected = reference_pump(&hostile);
            assert_eq!(
                expected.1.last(),
                Some(&Err("read: frame is not UTF-8".to_string()))
            );
            for capacity in [1, 7, 8, 9, 16] {
                assert_eq!(
                    run_pump(&hostile, capacity),
                    expected,
                    "capacity {capacity}"
                );
            }
        }
    }

    /// The client half of `drain`'s happens-before barrier: events that
    /// reached the socket ahead of a response are in the streams when
    /// the client sees the response. A scripted peer sends a burst of
    /// events and the `drain` response in one `write`.
    #[test]
    fn events_sent_before_a_response_are_buffered_when_it_returns() {
        let params = ProblemParams::builder().build().unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let info = ServiceBuilder::new(params, region).start().unwrap().info();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sid = Some(wire::DEFAULT_SESSION);
        // Round `r` sends `20 * r` events ahead of its response.
        let burst = |round: u32| -> Vec<StreamEvent> {
            (0..20 * round)
                .map(|i| StreamEvent::TaskPosted {
                    task: TaskId(round * 1_000 + i),
                })
                .collect()
        };
        let peer = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut out = Vec::new();
            let mut answer = |reply: &Response, events: &[StreamEvent]| {
                wire::read_frame(&mut reader).unwrap().unwrap();
                out.clear();
                for event in events {
                    wire::encode_event_into(&mut out, event.into(), sid);
                }
                reply.encode_into(&mut out, sid);
                (&conn).write_all(&out).unwrap();
            };
            let hello = Response::Hello {
                info,
                win: wire::MAX_WINDOW,
            };
            answer(&hello, &[]);
            answer(&Response::Subscribe, &[]);
            for round in 0..10 {
                answer(&Response::Drain, &burst(round));
            }
            // Wait for the client to hang up.
            wire::read_frame(&mut reader).ok();
        });
        let mut client = LtcClient::connect_v2(addr).unwrap();
        let events = client.subscribe().unwrap();
        for round in 0..10 {
            client.drain().unwrap();
            let buffered: Vec<StreamEvent> = std::iter::from_fn(|| events.try_recv()).collect();
            assert_eq!(buffered, burst(round), "round {round}");
        }
        drop(client);
        peer.join().unwrap();
    }
}
