//! The `ltc-proto` message vocabulary and its NDJSON codec: the `v2`
//! dialect ([`PROTO_VERSION_V2`]), plus the one `v1` frame the server
//! cannot derive from it ([`encode_hello_response_v1`]).
//!
//! ## Framing
//!
//! A connection is a bidirectional stream of **frames**: one JSON object
//! per line, `\n`-delimited, at most [`MAX_FRAME`] bytes (the delimiter
//! bounds each frame; readers enforce the cap *while* reading, so a
//! hostile peer cannot balloon memory). The first frame in each
//! direction is the version handshake:
//!
//! ```text
//! client → {"proto":"ltc-proto","v":2}
//! server → {"proto":"ltc-proto","v":2,"info":{…},"win":W,"sid":"default"}
//!                                                     (or {"err":…} + close)
//! ```
//!
//! After the handshake the client sends [`Request`] frames (`"op"` key)
//! and the server answers each with exactly one [`Response`] frame
//! (`"ok"` or `"err"` key), in request order per connection. Once a
//! connection has subscribed, [`StreamEvent`] frames (`"ev"` key) flow
//! server→client interleaved between responses; the `"ev"`/`"ok"`/
//! `"err"` key is the demultiplexer.
//!
//! ## Sessions
//!
//! A connection speaks to a **named session** on a multi-session
//! server. It starts bound to the [`DEFAULT_SESSION`], and the session
//! verbs [`Request::Open`] / [`Request::Attach`] / [`Request::Close`] /
//! [`Request::Sessions`] manage the server's session table. Every
//! request, response, and event frame carries the session id as a
//! trailing `"sid"` member ([`with_sid`]).
//!
//! ## `v1`
//!
//! The server still serves `v1` clients (`{"proto":"ltc-proto","v":1}`)
//! as a translation at the connection edge: a `v1` connection is bound
//! to the default session, its frames are the `v2` frames without
//! `"sid"`, and `"sid"`, `"seq"` and the session verbs are refused.
//! Every `v1` frame stays byte-identical to what it always was.
//!
//! ## Windowed submission
//!
//! A server advertises the largest submission window it accepts as
//! a `"win"` member of its hello response ([`MAX_WINDOW`]; absent means
//! 1, i.e. lockstep only). A windowed client then fires up to that many
//! `submit`/`post` frames without awaiting their responses, tagging
//! each with a monotonically increasing `"seq"` member; the server
//! echoes the `"seq"` back on the matching response, so the client can
//! verify the FIFO response order against its in-flight window. `"seq"`
//! never changes what an operation does — untagged frames stay lockstep
//! and byte-identical to what they always were.
//!
//! ## Exactness
//!
//! Every `f64` crosses the wire as its 16-hex-digit IEEE-754 bit
//! pattern inside a JSON string (the `ltc-snapshot v2` convention), so
//! a remote session observes bit-identical accuracies, gains, and
//! coordinates — the property the byte-identical NDJSON differential
//! tests rest on. Ids and counters are plain JSON integers (the parser
//! keeps them out of `f64`, so the full `u64` range is safe).
//!
//! ## Compatibility policy
//!
//! See `docs/PROTOCOL.md` for the full grammar. In short: a version
//! evolves by adding optional object members (readers ignore unknown
//! members); anything else bumps `v`, and a server refuses unknown
//! versions in the handshake rather than guessing.

use crate::json::{self, Json};
use ltc_core::hex;
use ltc_core::model::{ProblemParams, QualityModel, Task, TaskId, Worker, WorkerId};
use ltc_core::service::{
    Algorithm, Event, EventBatch, EventRef, Lifecycle, RebalanceOutcome, ServiceMetrics,
    SessionInfo, StreamEvent,
};
use ltc_spatial::{BoundingBox, Point};
use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

/// The protocol name, sent in both handshake frames.
pub const PROTO_NAME: &str = "ltc-proto";
/// The baseline protocol version: one implicit session per server. The
/// server still accepts it in the handshake; nothing else speaks it.
pub const PROTO_VERSION_V1: u64 = 1;
/// The session-namespace protocol version: named sessions behind one
/// server, a `"sid"` member on every frame.
pub const PROTO_VERSION_V2: u64 = 2;
/// The session a fresh connection (and every `v1` one) is bound to.
pub const DEFAULT_SESSION: &str = "default";
/// The largest submission window a server grants (and advertises in its
/// `v2` hello response): how many `submit`/`post` frames one connection
/// may have in flight before it must await an acknowledgement.
pub const MAX_WINDOW: u64 = 256;

/// Whether `name` is a legal session id: 1–64 ASCII characters from
/// `[A-Za-z0-9._-]`. The restriction keeps session ids free of JSON
/// escapes, so they can ride every frame verbatim.
pub fn valid_session_name(name: &str) -> bool {
    is_session_name(name.as_bytes())
}

/// [`valid_session_name`] on bytes, the form the frame scanners check.
// ltc-lint: hot-path
fn is_session_name(name: &[u8]) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// What opens the trailing `"sid"` member every frame carries.
const SID_MEMBER: &[u8] = b",\"sid\":\"";

/// Appends the trailing `"sid"` member every frame carries. The
/// frame must be one JSON object (every encoder here emits exactly
/// that) and the sid a [`valid_session_name`], so no escaping is
/// needed.
pub fn with_sid(frame: String, sid: &str) -> String {
    let mut out = frame.into_bytes();
    push_sid(&mut out, sid);
    text(out)
}

/// [`with_sid`] on the frame that ends `out`.
// ltc-lint: hot-path
fn push_sid(out: &mut Vec<u8>, sid: &str) {
    debug_assert_eq!(out.last(), Some(&b'}'));
    debug_assert!(valid_session_name(sid), "{sid}");
    out.pop();
    out.extend_from_slice(SID_MEMBER);
    out.extend_from_slice(sid.as_bytes());
    out.extend_from_slice(b"\"}");
}

/// Closes a frame an in-place encoder just appended to `out`: the
/// `"sid"` member when there is one, then the `\n` delimiter. The
/// bytes are exactly [`with_sid`] of the `String` encoder's frame,
/// plus `\n`.
// ltc-lint: hot-path
fn finish_frame(out: &mut Vec<u8>, sid: Option<&str>) {
    if let Some(sid) = sid {
        push_sid(out, sid);
    }
    out.push(b'\n');
}

/// A frame a `String` encoder assembled as bytes, as text.
fn text(frame: Vec<u8>) -> String {
    String::from_utf8(frame).expect("the encoders write UTF-8")
}

/// The `"sid"` member of a frame, if present and well-formed.
pub fn frame_sid(v: &Json) -> Result<Option<&str>, WireError> {
    match v.get("sid") {
        None => Ok(None),
        Some(sid) => {
            let sid = sid.as_str().ok_or("non-string `sid`")?;
            if !valid_session_name(sid) {
                return Err(format!("illegal session id `{sid}`"));
            }
            Ok(Some(sid))
        }
    }
}
/// Upper bound on one frame, delimiter included (64 MiB — snapshots of
/// large services travel as a single frame).
pub const MAX_FRAME: usize = 1 << 26;

/// A decode failure: what was wrong with the offending frame.
pub type WireError = String;

/// Why a byte decoder refused a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is not UTF-8: a broken transport, which ends the
    /// connection, as [`read_frame`] does when it meets one.
    NotUtf8,
    /// The frame is text but not a valid message.
    Invalid(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::NotUtf8 => f.write_str(NOT_UTF8),
            FrameError::Invalid(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for FrameError {}

/// The generic JSON route's input: the frame as text, checked here and
/// only here, once the exact-layout scanners have passed on it.
fn utf8(frame: &[u8]) -> Result<&str, FrameError> {
    std::str::from_utf8(frame).map_err(|_| FrameError::NotUtf8)
}

/// Renders an `f64` as its 16-hex-digit IEEE-754 bit pattern — the
/// `ltc-snapshot v2` / `ltc-proto v1` exactness convention, shared by
/// every layer that persists or transmits floats through
/// [`ltc_core::hex`].
pub fn hex(v: f64) -> String {
    hex::f64_digits(v).iter().map(|&b| char::from(b)).collect()
}

/// Appends [`hex`](hex())`(v)` to `out`, the form every in-place
/// encoder uses.
// ltc-lint: hot-path
fn push_hex(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&hex::f64_digits(v));
}

/// Parses a [`hex`](hex())-rendered bit pattern back into the
/// identical `f64`, rejecting anything that is not exactly 16 hex digits
/// inside a JSON string.
pub fn unhex(field: &'static str, v: Option<&Json>) -> Result<f64, WireError> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{field}`"))?;
    hex::parse_f64(s.as_bytes())
        .ok_or_else(|| format!("`{field}` is not a 16-hex-digit f64 bit pattern"))
}

fn uint(field: &'static str, v: Option<&Json>) -> Result<u64, WireError> {
    v.and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{field}`"))
}

fn word<'a>(field: &'static str, v: Option<&'a Json>) -> Result<&'a str, WireError> {
    v.and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{field}`"))
}

// ---------------------------------------------------------------------
// Exact-layout fast paths for the frames that flow once per check-in on
// a streaming connection: the `submit`/`post` request, its
// acknowledgement, and the `worker`/`task` event. Each scans the frame's
// bytes, accepts precisely the layout our own encoders emit (fixed
// member order, canonical integers, optional `"seq"`/`"sid"` tails) and
// decodes to exactly what the generic JSON route would produce, without
// building a `Json` tree or checking UTF-8 (an accepted frame is ASCII);
// any deviation returns `None` and falls back to the generic parser, so
// foreign-but-valid framings still work and hostile input hits the same
// guarded path it always did. The differential unit tests pin the
// agreement.

/// Consumes exactly 16 hex digits (a [`hex`](hex())-rendered `f64`).
// ltc-lint: hot-path
fn eat_hex16(rest: &[u8]) -> Option<(f64, &[u8])> {
    let (digits, rest) = rest.split_first_chunk::<16>()?;
    Some((hex::parse_f64(digits)?, rest))
}

/// Consumes a canonical JSON unsigned integer (no sign, no leading
/// zeros, at most `u64::MAX` — anything else falls back to the generic
/// parser).
// ltc-lint: hot-path
fn eat_u64(rest: &[u8]) -> Option<(u64, &[u8])> {
    let end = rest
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 || (end > 1 && rest[0] == b'0') {
        return None;
    }
    let mut n = 0u64;
    for &digit in &rest[..end] {
        n = n.checked_mul(10)?.checked_add(u64::from(digit - b'0'))?;
    }
    Some((n, &rest[end..]))
}

/// Consumes a task id. Our encoders only ever emit a `u32` there; a
/// larger id falls back to the generic route, which truncates it
/// `as u32`.
// ltc-lint: hot-path
fn eat_task_id(rest: &[u8]) -> Option<(TaskId, &[u8])> {
    let (id, rest) = eat_u64(rest)?;
    Some((TaskId(u32::try_from(id).ok()?), rest))
}

/// Consumes the optional `,"seq":N` tail.
// ltc-lint: hot-path
fn eat_seq(rest: &[u8]) -> Option<(Option<u64>, &[u8])> {
    match rest.strip_prefix(b",\"seq\":") {
        None => Some((None, rest)),
        Some(r) => {
            let (n, r) = eat_u64(r)?;
            Some((Some(n), r))
        }
    }
}

/// Consumes the optional `,"sid":"name"` tail ([`valid_session_name`]
/// enforced, like [`frame_sid`]). The name is ASCII, and stays bytes.
// ltc-lint: hot-path
fn eat_sid(rest: &[u8]) -> Option<(Option<&[u8]>, &[u8])> {
    match rest.strip_prefix(SID_MEMBER) {
        None => Some((None, rest)),
        Some(r) => {
            let quote = r.iter().position(|&b| b == b'"')?;
            let name = &r[..quote];
            is_session_name(name).then_some((Some(name), &r[quote + 1..]))
        }
    }
}

/// The request fast path (see the block comment above): `submit`, and
/// `post` without an accuracy row, each with its optional tails.
// ltc-lint: hot-path
fn fast_request(bytes: &[u8]) -> Option<(Request, Option<&[u8]>)> {
    let (submit, rest) = match bytes.strip_prefix(b"{\"op\":\"submit\",\"x\":\"") {
        Some(rest) => (true, rest),
        None => (false, bytes.strip_prefix(b"{\"op\":\"post\",\"x\":\"")?),
    };
    let (x, rest) = eat_hex16(rest)?;
    let rest = rest.strip_prefix(b"\",\"y\":\"")?;
    let (y, rest) = eat_hex16(rest)?;
    let (acc, rest) = if submit {
        let rest = rest.strip_prefix(b"\",\"acc\":\"")?;
        let (acc, rest) = eat_hex16(rest)?;
        (Some(acc), rest)
    } else {
        (None, rest)
    };
    let rest = rest.strip_prefix(b"\"")?;
    let (seq, rest) = eat_seq(rest)?;
    let request = match acc {
        Some(acc) => Request::Submit {
            worker: Worker::new(Point::new(x, y), acc),
            seq,
        },
        None => Request::Post {
            task: Task::new(Point::new(x, y)),
            row: None,
            seq,
        },
    };
    let (sid, rest) = eat_sid(rest)?;
    (rest == b"}").then_some((request, sid))
}

/// The acknowledgement fast path (see the block comment above): the
/// `submit`/`post` success responses, whose `"sid"` the client ignores
/// exactly like the generic route does.
// ltc-lint: hot-path
fn fast_ack(bytes: &[u8]) -> Option<Response> {
    let (response, rest) = if let Some(rest) = bytes.strip_prefix(b"{\"ok\":\"submit\",\"worker\":")
    {
        let (id, rest) = eat_u64(rest)?;
        let (seq, rest) = eat_seq(rest)?;
        (
            Response::Submit {
                worker: WorkerId(id),
                seq,
            },
            rest,
        )
    } else {
        let rest = bytes.strip_prefix(b"{\"ok\":\"post\",\"task\":")?;
        let (task, rest) = eat_task_id(rest)?;
        let (seq, rest) = eat_seq(rest)?;
        (Response::Post { task, seq }, rest)
    };
    let (_sid, rest) = eat_sid(rest)?;
    (rest == b"}").then_some(response)
}

/// The event fast path (see the block comment above): appends a
/// `worker` frame (`assign`/`done`/`idle` entries) or a `task` frame to
/// `batch`, ignoring its `"sid"` exactly like the generic route does.
/// It writes the events straight into the batch, so a warm batch takes
/// the frame without allocating; on `None` the batch is left as it was.
// ltc-lint: hot-path
fn fast_event_into(bytes: &[u8], batch: &mut EventBatch) -> Option<()> {
    if let Some(rest) = bytes.strip_prefix(b"{\"ev\":\"task\",\"task\":") {
        let (task, rest) = eat_task_id(rest)?;
        let (_sid, rest) = eat_sid(rest)?;
        (rest == b"}").then_some(())?;
        batch.push(EventRef::TaskPosted { task });
        return Some(());
    }
    let rest = bytes.strip_prefix(b"{\"ev\":\"worker\",\"worker\":")?;
    let (id, rest) = eat_u64(rest)?;
    let worker = WorkerId(id);
    let mut rest = rest.strip_prefix(b",\"batch\":[")?;
    batch.push_worker_with(worker, |events| {
        if let Some(r) = rest.strip_prefix(b"]") {
            rest = r;
        } else {
            loop {
                let (event, r) = eat_batch_entry(rest, worker)?;
                events.push(event);
                if let Some(r) = r.strip_prefix(b",") {
                    rest = r;
                } else {
                    rest = r.strip_prefix(b"]")?;
                    break;
                }
            }
        }
        let (_sid, rest) = eat_sid(rest)?;
        (rest == b"}").then_some(())
    })
}

/// [`fast_request`] on text, the `"sid"` as text: the form the
/// differential tests compare against the generic route.
#[cfg(test)]
fn fast_decode_request(frame: &str) -> Option<(Request, Option<&str>)> {
    let (request, sid) = fast_request(frame.as_bytes())?;
    // An accepted `"sid"` is the frame's last member, just before `"}`.
    let end = frame.len() - 2;
    Some((request, sid.map(|sid| &frame[end - sid.len()..end])))
}

/// [`fast_ack`] on text.
#[cfg(test)]
fn fast_decode_ack(frame: &str) -> Option<Response> {
    fast_ack(frame.as_bytes())
}

/// [`fast_event_into`] on text.
#[cfg(test)]
fn fast_decode_into(frame: &str, batch: &mut EventBatch) -> Option<()> {
    fast_event_into(frame.as_bytes(), batch)
}

/// Consumes one entry of a `worker` frame's batch.
// ltc-lint: hot-path
fn eat_batch_entry(rest: &[u8], worker: WorkerId) -> Option<(Event, &[u8])> {
    if let Some(r) = rest.strip_prefix(b"{\"k\":\"assign\",\"task\":") {
        let (task, r) = eat_task_id(r)?;
        let r = r.strip_prefix(b",\"acc\":\"")?;
        let (acc, r) = eat_hex16(r)?;
        let r = r.strip_prefix(b"\",\"gain\":\"")?;
        let (gain, r) = eat_hex16(r)?;
        let r = r.strip_prefix(b"\"}")?;
        Some((
            Event::Assigned {
                worker,
                task,
                acc,
                gain,
            },
            r,
        ))
    } else if let Some(r) = rest.strip_prefix(b"{\"k\":\"done\",\"task\":") {
        let (task, r) = eat_task_id(r)?;
        let r = r.strip_prefix(b",\"latency\":")?;
        let (latency, r) = eat_u64(r)?;
        let r = r.strip_prefix(b"}")?;
        Some((Event::TaskCompleted { task, latency }, r))
    } else {
        let r = rest.strip_prefix(b"{\"k\":\"idle\"}")?;
        Some((Event::WorkerIdle { worker }, r))
    }
}

/// Capacity a reused frame buffer keeps between frames: far above any
/// per-check-in frame, so only a rare large frame (a snapshot) makes
/// [`read_frame_into`] give memory back.
const REUSED_FRAME_KEEP: usize = 64 * 1024;

/// Reads one frame (without its trailing `\n`), enforcing [`MAX_FRAME`]
/// while reading. `Ok(None)` is a clean end of stream at a frame
/// boundary; a frame truncated by EOF or overflowing the cap is an
/// error.
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    Ok(read_frame_into(reader, &mut buf)?.map(str::to_owned))
}

/// [`read_frame`] into a caller-owned buffer, for reader loops: the
/// buffer keeps its capacity from one frame to the next, so a stream
/// of small frames is read without allocating. A buffer a large frame
/// grew past 64 KiB is shrunk back before the next read.
pub fn read_frame_into<'b, R: BufRead>(
    reader: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<&'b str>> {
    buf.clear();
    buf.shrink_to(REUSED_FRAME_KEEP);
    let mut limited = reader.take(MAX_FRAME as u64);
    let n = limited.read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(invalid_data(if n >= MAX_FRAME {
            OVER_CAP
        } else {
            MID_FRAME
        }));
    }
    buf.pop();
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| invalid_data(NOT_UTF8))
}

const OVER_CAP: &str = "frame exceeds the protocol size cap";
const MID_FRAME: &str = "connection closed mid-frame";
const NOT_UTF8: &str = "frame is not UTF-8";

fn invalid_data(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The reader the per-check-in loops use (the server's connection
/// thread, the client's reader thread). It finds each frame's `\n` once,
/// a word at a time, and hands the frame out as bytes straight from the
/// [`BufReader`]'s buffer; only a frame that straddles a refill is
/// copied, into one reused buffer. It returns the frames
/// [`read_frame_into`] returns, under the same [`MAX_FRAME`] cap and with
/// the same errors, except that it leaves UTF-8 to the decoders: their
/// exact-layout scanners accept only ASCII, and their generic route
/// refuses a non-UTF-8 frame with [`FrameError::NotUtf8`].
#[derive(Debug)]
pub struct FrameReader<R> {
    reader: BufReader<R>,
    /// Where a frame that straddles a refill is assembled.
    spill: Vec<u8>,
    /// Bytes of the frame last handed out that are still buffered.
    used: usize,
    /// What is known of the `\n` that ends the next buffered frame.
    next: Scan,
}

/// A [`FrameReader`]'s knowledge of the buffered bytes past the frame it
/// last handed out.
#[derive(Debug, Clone, Copy)]
enum Scan {
    /// Not searched yet.
    Unknown,
    /// The next frame's `\n` is at this offset.
    At(usize),
    /// They hold no `\n`.
    Absent,
}

impl<R: Read> FrameReader<R> {
    /// Reads frames from `reader`, starting with whatever it buffers.
    pub fn new(reader: BufReader<R>) -> Self {
        Self {
            reader,
            spill: Vec::new(),
            used: 0,
            next: Scan::Unknown,
        }
    }

    /// Whether nothing is buffered past the frame last handed out, so
    /// the next [`next_frame`](FrameReader::next_frame) reads from the
    /// underlying reader (and may block).
    pub fn is_drained(&self) -> bool {
        self.reader.buffer().len() == self.used
    }

    /// Whether the next frame lies whole in the buffer, so
    /// [`next_frame`](FrameReader::next_frame) returns it without
    /// reading. The search is kept, not repeated.
    // ltc-lint: hot-path
    pub fn holds_frame(&mut self) -> bool {
        self.settle();
        self.scan().is_some()
    }

    /// The next frame, without its `\n`. `Ok(None)` is a clean end of
    /// stream at a frame boundary; a frame truncated by end of stream or
    /// overflowing [`MAX_FRAME`] is an error.
    // ltc-lint: hot-path
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        self.settle();
        if self.reader.buffer().is_empty() {
            self.next = Scan::Unknown;
            if fill(&mut self.reader)? == 0 {
                return Ok(None);
            }
        }
        let end = self.scan();
        self.next = Scan::Unknown;
        match end {
            Some(end) if end < MAX_FRAME => {
                self.used = end + 1;
                Ok(Some(&self.reader.buffer()[..end]))
            }
            Some(_) => Err(invalid_data(OVER_CAP)),
            None => self.gather().map(Some),
        }
    }

    /// Consumes the frame last handed out.
    fn settle(&mut self) {
        if self.used > 0 {
            self.reader.consume(self.used);
            self.used = 0;
        }
    }

    /// Where the next buffered frame ends, searching at most once.
    fn scan(&mut self) -> Option<usize> {
        if let Scan::Unknown = self.next {
            self.next = match find_newline(self.reader.buffer()) {
                Some(end) => Scan::At(end),
                None => Scan::Absent,
            };
        }
        match self.next {
            Scan::At(end) => Some(end),
            Scan::Unknown | Scan::Absent => None,
        }
    }

    /// Assembles a frame that straddles a refill in `spill`, starting
    /// from the buffered bytes, which hold no `\n`.
    fn gather(&mut self) -> io::Result<&[u8]> {
        self.spill.clear();
        self.spill.shrink_to(REUSED_FRAME_KEEP);
        let mut end = None;
        loop {
            let available = self.reader.buffer();
            let take = end.unwrap_or(available.len());
            // The cap counts the `\n`: a frame must end within it.
            if self.spill.len() + take >= MAX_FRAME {
                return Err(invalid_data(OVER_CAP));
            }
            self.spill.extend_from_slice(&available[..take]);
            if end.is_some() {
                self.reader.consume(take + 1);
                return Ok(&self.spill);
            }
            self.reader.consume(take);
            if fill(&mut self.reader)? == 0 {
                return Err(invalid_data(MID_FRAME));
            }
            end = find_newline(self.reader.buffer());
        }
    }
}

/// Refills an empty buffer, retrying an interrupted read as
/// `read_until` does; returns how much is buffered (0 at end of stream).
fn fill<R: Read>(reader: &mut BufReader<R>) -> io::Result<usize> {
    loop {
        match reader.fill_buf() {
            Ok(buffered) => return Ok(buffered.len()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The offset of the first `\n` in `bytes`, eight bytes per step: a
/// word XORed with `\n` in every byte has a zero byte exactly where the
/// `\n`s are, and the lowest flagged byte of `(x - 0x01…) & !x & 0x80…`
/// is the first zero byte.
// ltc-lint: hot-path
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        let x = u64::from_le_bytes(le) ^ (u64::from(b'\n') * ONES);
        let zeros = x.wrapping_sub(ONES) & !x & (0x80 * ONES);
        if zeros != 0 {
            return Some(at + (zeros.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Writes one frame and flushes it (frames are the unit of progress;
/// buffering across them would deadlock lockstep request/response use).
/// Frame and delimiter go out in a single `write_all`, so an unbuffered
/// `TCP_NODELAY` socket sends one segment, not two.
pub fn write_frame<W: Write>(writer: &mut W, frame: &str) -> io::Result<()> {
    debug_assert!(!frame.contains('\n'), "frames are single lines");
    let mut line = Vec::with_capacity(frame.len() + 1);
    line.extend_from_slice(frame.as_bytes());
    line.push(b'\n');
    writer.write_all(&line)?;
    writer.flush()
}

/// The client half of the version handshake.
pub fn encode_hello_v2() -> String {
    format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION_V2}}}")
}

/// The server half of a `v1` handshake: the [`Response::Hello`] frame
/// with `"v":1` and no window advertisement — exactly what `v1` clients
/// have always been sent.
pub fn encode_hello_response_v1(info: &SessionInfo) -> String {
    let mut out = format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION_V1},\"info\":");
    encode_info(&mut out, info);
    out.push('}');
    out
}

/// Validates a client hello, returning the version it asked for.
pub fn decode_hello(frame: &str) -> Result<u64, WireError> {
    let v = json::parse(frame).map_err(|e| e.to_string())?;
    if word("proto", v.get("proto"))? != PROTO_NAME {
        return Err("not an ltc-proto handshake".into());
    }
    uint("v", v.get("v"))
}

/// A client→server operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `submit_worker`.
    Submit {
        /// The check-in.
        worker: Worker,
        /// Windowed submission: the client's correlation number,
        /// echoed on the response. `None` = lockstep.
        seq: Option<u64>,
    },
    /// `post_task` (with the accuracy-table row under tabular models).
    Post {
        /// The task.
        task: Task,
        /// Per-worker accuracies, when the model is tabular.
        row: Option<Vec<f64>>,
        /// Windowed submission correlation number (see
        /// [`Request::Submit`]).
        seq: Option<u64>,
    },
    /// Start forwarding events on this connection.
    Subscribe,
    /// `drain`.
    Drain,
    /// `snapshot` (the reply embeds `ltc-snapshot v2` text).
    Snapshot,
    /// `rebalance`.
    Rebalance,
    /// `metrics`.
    Metrics,
    /// End the served session.
    Shutdown,
    /// `v2`: create a named session in the server's session table and
    /// bind this connection to it. Absent knobs inherit the server's
    /// template (the configuration its default session was built from).
    Open {
        /// The new session's id.
        sid: String,
        /// Policy override (its seed rides inside
        /// [`Algorithm::Random`]).
        algorithm: Option<Algorithm>,
        /// Shard-count override.
        shards: Option<usize>,
        /// Service-region override.
        region: Option<BoundingBox>,
    },
    /// `v2`: bind this connection to an existing named session.
    Attach {
        /// The target session's id.
        sid: String,
    },
    /// `v2`: quiesce and evict a named session (its subscribers see
    /// [`Lifecycle::SessionEvicted`] and then the stream ends). The
    /// default session cannot be closed — `shutdown` ends the server.
    Close {
        /// The doomed session's id.
        sid: String,
    },
    /// `v2`: list the server's live sessions.
    Sessions,
}

/// Appends the optional `,"seq":N` member of a windowed frame.
// ltc-lint: hot-path
fn push_seq(out: &mut Vec<u8>, seq: Option<u64>) {
    if let Some(seq) = seq {
        out.extend_from_slice(b",\"seq\":");
        json::push_u64(out, seq);
    }
}

impl Request {
    /// Serializes the request as one frame.
    pub fn encode(&self) -> String {
        match self {
            Request::Submit { .. } | Request::Post { .. } => {
                let mut out = Vec::with_capacity(96);
                self.push_hot(&mut out);
                text(out)
            }
            Request::Subscribe => "{\"op\":\"subscribe\"}".into(),
            Request::Drain => "{\"op\":\"drain\"}".into(),
            Request::Snapshot => "{\"op\":\"snapshot\"}".into(),
            Request::Rebalance => "{\"op\":\"rebalance\"}".into(),
            Request::Metrics => "{\"op\":\"metrics\"}".into(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".into(),
            Request::Open {
                sid,
                algorithm,
                shards,
                region,
            } => {
                let mut out = format!("{{\"op\":\"open\",\"sid\":\"{sid}\"");
                if let Some(algorithm) = algorithm {
                    out.push(',');
                    encode_algorithm(&mut out, *algorithm);
                }
                if let Some(shards) = shards {
                    out.push_str(&format!(",\"shards\":{shards}"));
                }
                if let Some(region) = region {
                    out.push_str(&format!(
                        ",\"region\":[\"{}\",\"{}\",\"{}\",\"{}\"]",
                        hex(region.min.x),
                        hex(region.min.y),
                        hex(region.max.x),
                        hex(region.max.y)
                    ));
                }
                out.push('}');
                out
            }
            Request::Attach { sid } => format!("{{\"op\":\"attach\",\"sid\":\"{sid}\"}}"),
            Request::Close { sid } => format!("{{\"op\":\"close\",\"sid\":\"{sid}\"}}"),
            Request::Sessions => "{\"op\":\"sessions\"}".into(),
        }
    }

    /// Appends the request to `out` as one whole frame: the
    /// [`encode`](Request::encode) bytes, then `sid` as
    /// [`with_sid`] would add it, then the `\n` delimiter. The
    /// per-check-in kinds (`submit`, `post`) are written in place, so a
    /// warm buffer takes them without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>, sid: Option<&str>) {
        if !self.push_hot(out) {
            out.extend_from_slice(self.encode().as_bytes());
        }
        finish_frame(out, sid);
    }

    /// Appends the frame in place if it is a per-check-in kind
    /// (`submit`, `post`); `false` leaves `out` untouched.
    // ltc-lint: hot-path
    fn push_hot(&self, out: &mut Vec<u8>) -> bool {
        match self {
            Request::Submit { worker, seq } => {
                out.extend_from_slice(b"{\"op\":\"submit\",\"x\":\"");
                push_hex(out, worker.loc.x);
                out.extend_from_slice(b"\",\"y\":\"");
                push_hex(out, worker.loc.y);
                out.extend_from_slice(b"\",\"acc\":\"");
                push_hex(out, worker.accuracy);
                out.push(b'"');
                push_seq(out, *seq);
            }
            Request::Post { task, row, seq } => {
                out.extend_from_slice(b"{\"op\":\"post\",\"x\":\"");
                push_hex(out, task.loc.x);
                out.extend_from_slice(b"\",\"y\":\"");
                push_hex(out, task.loc.y);
                out.push(b'"');
                if let Some(row) = row {
                    out.extend_from_slice(b",\"row\":[");
                    for (i, &a) in row.iter().enumerate() {
                        if i > 0 {
                            out.push(b',');
                        }
                        out.push(b'"');
                        push_hex(out, a);
                        out.push(b'"');
                    }
                    out.push(b']');
                }
                push_seq(out, *seq);
            }
            _ => return false,
        }
        out.push(b'}');
        true
    }

    /// Parses a request frame, also returning its `"sid"` member — the
    /// session the request addresses (for the session verbs, the
    /// target session); `None` when the frame carries none (every `v1`
    /// frame).
    pub fn decode_with_sid(frame: &str) -> Result<(Request, Option<String>), WireError> {
        let (request, sid) = Self::decode_bytes(frame.as_bytes()).map_err(|e| e.to_string())?;
        let sid = sid.map(|sid| String::from_utf8_lossy(&sid).into_owned());
        Ok((request, sid))
    }

    /// Parses a request frame from its bytes, with the `"sid"` (ASCII,
    /// a [`valid_session_name`]) borrowed from the frame where it can
    /// be: a `submit` or row-less `post` in our own layout decodes
    /// without allocating or checking UTF-8.
    pub fn decode_bytes(frame: &[u8]) -> Result<AddressedRequest<'_>, FrameError> {
        if let Some((request, sid)) = fast_request(frame) {
            return Ok((request, sid.map(Cow::Borrowed)));
        }
        let v = json::parse(utf8(frame)?).map_err(|e| FrameError::Invalid(e.to_string()))?;
        let sid = frame_sid(&v).map_err(FrameError::Invalid)?;
        let sid = sid.map(|sid| Cow::Owned(sid.as_bytes().to_vec()));
        let request = Self::decode_value(&v).map_err(FrameError::Invalid)?;
        Ok((request, sid))
    }

    fn decode_value(v: &Json) -> Result<Request, WireError> {
        match word("op", v.get("op"))? {
            "submit" => Ok(Request::Submit {
                worker: Worker::new(
                    Point::new(unhex("x", v.get("x"))?, unhex("y", v.get("y"))?),
                    unhex("acc", v.get("acc"))?,
                ),
                seq: optional_seq(v)?,
            }),
            "post" => {
                let task = Task::new(Point::new(unhex("x", v.get("x"))?, unhex("y", v.get("y"))?));
                let row = match v.get("row") {
                    None => None,
                    Some(row) => {
                        let items = row.as_arr().ok_or("`row` must be an array")?;
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(unhex("row entry", Some(item))?);
                        }
                        Some(out)
                    }
                };
                Ok(Request::Post {
                    task,
                    row,
                    seq: optional_seq(v)?,
                })
            }
            "subscribe" => Ok(Request::Subscribe),
            "drain" => Ok(Request::Drain),
            "snapshot" => Ok(Request::Snapshot),
            "rebalance" => Ok(Request::Rebalance),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "open" => Ok(Request::Open {
                sid: required_sid(v)?,
                algorithm: match v.get("algo") {
                    None => None,
                    Some(_) => Some(decode_algorithm(v)?),
                },
                shards: match v.get("shards") {
                    None => None,
                    Some(_) => Some(uint("shards", v.get("shards"))? as usize),
                },
                region: match v.get("region") {
                    None => None,
                    Some(region) => {
                        let corners = region.as_arr().filter(|a| a.len() == 4).ok_or(
                            "`region` must be a 4-element [min_x,min_y,max_x,max_y] array",
                        )?;
                        Some(BoundingBox::new(
                            Point::new(
                                unhex("region entry", Some(&corners[0]))?,
                                unhex("region entry", Some(&corners[1]))?,
                            ),
                            Point::new(
                                unhex("region entry", Some(&corners[2]))?,
                                unhex("region entry", Some(&corners[3]))?,
                            ),
                        ))
                    }
                },
            }),
            "attach" => Ok(Request::Attach {
                sid: required_sid(v)?,
            }),
            "close" => Ok(Request::Close {
                sid: required_sid(v)?,
            }),
            "sessions" => Ok(Request::Sessions),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// A request and the `"sid"` member it carries, as bytes borrowed from
/// the frame where they can be ([`Request::decode_bytes`]).
pub type AddressedRequest<'a> = (Request, Option<Cow<'a, [u8]>>);

/// The optional `"seq"` correlation member of a windowed `submit`/
/// `post` frame (and its response). Absent is lockstep; present but
/// malformed is a protocol error, never a silent fallback.
fn optional_seq(v: &Json) -> Result<Option<u64>, WireError> {
    match v.get("seq") {
        None => Ok(None),
        Some(seq) => seq
            .as_u64()
            .map(Some)
            .ok_or_else(|| "non-integer `seq`".into()),
    }
}

/// The mandatory `"sid"` of a session verb.
fn required_sid(v: &Json) -> Result<String, WireError> {
    frame_sid(v)?
        .map(str::to_owned)
        .ok_or_else(|| "missing `sid`".into())
}

/// A server→client reply. Exactly one per [`Request`], in request order
/// per connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The handshake reply, describing the served session (the server
    /// appends the bound session's sid with [`with_sid`], like on every
    /// other frame).
    Hello {
        /// The session description.
        info: SessionInfo,
        /// The largest submission window the server grants (absent on
        /// the wire means 1 — lockstep only; servers built here say
        /// [`MAX_WINDOW`]).
        win: u64,
    },
    /// A worker was accepted under this arrival id.
    Submit {
        /// The service-global arrival id.
        worker: WorkerId,
        /// The windowed request's `"seq"`, echoed back (see
        /// [`Request::Submit`]); `None` on lockstep responses.
        seq: Option<u64>,
    },
    /// A task was accepted under this global id.
    Post {
        /// The service-global task id.
        task: TaskId,
        /// The windowed request's `"seq"`, echoed back.
        seq: Option<u64>,
    },
    /// Events will now flow on this connection.
    Subscribe,
    /// Every prior submission is processed and delivered.
    Drain,
    /// The quiesced session state as `ltc-snapshot v2` text.
    Snapshot {
        /// The snapshot document.
        text: String,
    },
    /// What the rebalance did (`None`: nothing to move).
    Rebalance {
        /// The migration summary.
        outcome: Option<RebalanceOutcome>,
    },
    /// Live operational counters.
    Metrics {
        /// The counters.
        metrics: ServiceMetrics,
    },
    /// The session ended.
    Shutdown,
    /// `v2`: a session was created and this connection bound to it.
    Open {
        /// The new session's description.
        info: SessionInfo,
    },
    /// `v2`: this connection is now bound to the named session.
    Attach {
        /// The bound session's description.
        info: SessionInfo,
    },
    /// `v2`: the named session was quiesced and evicted.
    Close,
    /// `v2`: the server's live sessions.
    Sessions {
        /// One entry per live session, in session-name order.
        sessions: Vec<SessionStat>,
    },
    /// The operation failed; the session (and connection) remain usable
    /// unless the message says otherwise.
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

/// One row of a `v2` `sessions` listing.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStat {
    /// The session's id.
    pub sid: String,
    /// The policy it runs.
    pub algorithm: Algorithm,
    /// Its shard count.
    pub n_shards: usize,
    /// Tasks it currently holds.
    pub n_tasks: u64,
    /// Connections currently bound to it.
    pub attached: u64,
}

fn encode_algorithm(out: &mut String, algorithm: Algorithm) {
    let (name, seed) = match algorithm {
        Algorithm::Laf => ("laf", None),
        Algorithm::Aam => ("aam", None),
        Algorithm::AamLgf => ("aam-lgf", None),
        Algorithm::AamLrf => ("aam-lrf", None),
        Algorithm::Random { seed } => ("random", Some(seed)),
    };
    out.push_str(&format!("\"algo\":\"{name}\""));
    if let Some(seed) = seed {
        out.push_str(&format!(",\"seed\":{seed}"));
    }
}

fn decode_algorithm(v: &Json) -> Result<Algorithm, WireError> {
    match word("algo", v.get("algo"))? {
        "laf" => Ok(Algorithm::Laf),
        "aam" => Ok(Algorithm::Aam),
        "aam-lgf" => Ok(Algorithm::AamLgf),
        "aam-lrf" => Ok(Algorithm::AamLrf),
        "random" => Ok(Algorithm::Random {
            seed: uint("seed", v.get("seed"))?,
        }),
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

fn encode_info(out: &mut String, info: &SessionInfo) {
    out.push('{');
    encode_algorithm(out, info.algorithm);
    let p = &info.params;
    out.push_str(&format!(
        ",\"shards\":{},\"tasks\":{},\"params\":{{\"epsilon\":\"{}\",\"capacity\":{},\
         \"d_max\":\"{}\",\"min_accuracy\":\"{}\",\"eligibility\":\"{}\",\"quality\":",
        info.n_shards,
        info.n_tasks,
        hex(p.epsilon),
        p.capacity,
        hex(p.d_max),
        hex(p.min_accuracy),
        match p.eligibility {
            ltc_core::model::Eligibility::WithinRange => "within",
            ltc_core::model::Eligibility::Unrestricted => "unrestricted",
        },
    ));
    match p.quality {
        QualityModel::Hoeffding => out.push_str("\"hoeffding\""),
        QualityModel::FixedThreshold(th) => out.push_str(&format!("{{\"fixed\":\"{}\"}}", hex(th))),
    }
    out.push_str("}}");
}

fn decode_info(v: &Json) -> Result<SessionInfo, WireError> {
    let algorithm = decode_algorithm(v)?;
    let p = v.get("params").ok_or("missing `params`")?;
    let params = ProblemParams {
        epsilon: unhex("epsilon", p.get("epsilon"))?,
        capacity: uint("capacity", p.get("capacity"))? as u32,
        d_max: unhex("d_max", p.get("d_max"))?,
        min_accuracy: unhex("min_accuracy", p.get("min_accuracy"))?,
        eligibility: match word("eligibility", p.get("eligibility"))? {
            "within" => ltc_core::model::Eligibility::WithinRange,
            "unrestricted" => ltc_core::model::Eligibility::Unrestricted,
            other => return Err(format!("unknown eligibility `{other}`")),
        },
        quality: match p.get("quality") {
            Some(Json::Str(s)) if s == "hoeffding" => QualityModel::Hoeffding,
            Some(q) if q.get("fixed").is_some() => {
                QualityModel::FixedThreshold(unhex("fixed", q.get("fixed"))?)
            }
            _ => return Err("missing or unknown `quality`".into()),
        },
    };
    Ok(SessionInfo {
        algorithm,
        params,
        n_shards: uint("shards", v.get("shards"))? as usize,
        n_tasks: uint("tasks", v.get("tasks"))?,
    })
}

fn push_u64_array(out: &mut String, key: &str, values: &[u64]) {
    out.push_str(&format!(",\"{key}\":["));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn u64_array(field: &'static str, v: Option<&Json>) -> Result<Vec<u64>, WireError> {
    let items = v
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array `{field}`"))?;
    items
        .iter()
        .map(|i| {
            i.as_u64()
                .ok_or_else(|| format!("non-integer in `{field}`"))
        })
        .collect()
}

fn usize_array(field: &'static str, v: Option<&Json>) -> Result<Vec<usize>, WireError> {
    Ok(u64_array(field, v)?
        .into_iter()
        .map(|v| v as usize)
        .collect())
}

impl Response {
    /// Serializes the response as one frame.
    pub fn encode(&self) -> String {
        match self {
            Response::Hello { info, win } => {
                let mut out =
                    format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION_V2},\"info\":");
                encode_info(&mut out, info);
                out.push_str(&format!(",\"win\":{win}}}"));
                out
            }
            Response::Submit { .. } | Response::Post { .. } => {
                let mut out = Vec::with_capacity(64);
                self.push_hot(&mut out);
                text(out)
            }
            Response::Subscribe => "{\"ok\":\"subscribe\"}".into(),
            Response::Drain => "{\"ok\":\"drain\"}".into(),
            Response::Snapshot { text } => {
                let mut out = String::with_capacity(text.len() + 32);
                out.push_str("{\"ok\":\"snapshot\",\"data\":");
                json::push_escaped(&mut out, text);
                out.push('}');
                out
            }
            Response::Rebalance { outcome } => match outcome {
                None => "{\"ok\":\"rebalance\",\"outcome\":null}".into(),
                Some(o) => {
                    let mut out = format!(
                        "{{\"ok\":\"rebalance\",\"outcome\":{{\"moved\":{}",
                        o.moved_tasks
                    );
                    push_u64_array(&mut out, "loads", &o.live_loads);
                    let starts: Vec<u64> = o.stripe_starts.iter().map(|&s| s as u64).collect();
                    push_u64_array(&mut out, "starts", &starts);
                    out.push_str("}}");
                    out
                }
            },
            Response::Metrics { metrics: m } => {
                let mut out = format!(
                    "{{\"ok\":\"metrics\",\"workers\":{},\"assignments\":{},\"tasks\":{},\
                     \"completed\":{},\"clamped\":{},\"rebalances\":{}",
                    m.n_workers_seen,
                    m.n_assignments,
                    m.n_tasks,
                    m.n_completed,
                    m.clamped_insertions,
                    m.rebalances
                );
                push_u64_array(&mut out, "loads", &m.shard_loads);
                match m.latency {
                    Some(l) => out.push_str(&format!(",\"latency\":{l}")),
                    None => out.push_str(",\"latency\":null"),
                }
                out.push_str(&format!(
                    ",\"wal\":{},\"checkpoints\":{},\"sessions_open\":{},\
                     \"sessions_evicted\":{}}}",
                    m.wal_records, m.checkpoints, m.sessions_open, m.sessions_evicted
                ));
                out
            }
            Response::Shutdown => "{\"ok\":\"shutdown\"}".into(),
            Response::Open { info } => {
                let mut out = String::from("{\"ok\":\"open\",\"info\":");
                encode_info(&mut out, info);
                out.push('}');
                out
            }
            Response::Attach { info } => {
                let mut out = String::from("{\"ok\":\"attach\",\"info\":");
                encode_info(&mut out, info);
                out.push('}');
                out
            }
            Response::Close => "{\"ok\":\"close\"}".into(),
            Response::Sessions { sessions } => {
                let mut out = String::from("{\"ok\":\"sessions\",\"sessions\":[");
                for (i, s) in sessions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"sid\":\"{}\",", s.sid));
                    encode_algorithm(&mut out, s.algorithm);
                    out.push_str(&format!(
                        ",\"shards\":{},\"tasks\":{},\"attached\":{}}}",
                        s.n_shards, s.n_tasks, s.attached
                    ));
                }
                out.push_str("]}");
                out
            }
            Response::Err { message } => {
                let mut out = String::from("{\"err\":");
                json::push_escaped(&mut out, message);
                out.push('}');
                out
            }
        }
    }

    /// Appends the response to `out` as one whole frame: the
    /// [`encode`](Response::encode) bytes, then `sid` as [`with_sid`]
    /// would add it, then the `\n` delimiter. The `submit`/`post`
    /// acknowledgements are written in place, so a warm buffer takes
    /// them without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>, sid: Option<&str>) {
        if !self.push_hot(out) {
            out.extend_from_slice(self.encode().as_bytes());
        }
        finish_frame(out, sid);
    }

    /// Appends the frame in place if it is a `submit`/`post`
    /// acknowledgement; `false` leaves `out` untouched.
    // ltc-lint: hot-path
    fn push_hot(&self, out: &mut Vec<u8>) -> bool {
        match self {
            Response::Submit { worker, seq } => {
                out.extend_from_slice(b"{\"ok\":\"submit\",\"worker\":");
                json::push_u64(out, worker.0);
                push_seq(out, *seq);
            }
            Response::Post { task, seq } => {
                out.extend_from_slice(b"{\"ok\":\"post\",\"task\":");
                json::push_u64(out, u64::from(task.0));
                push_seq(out, *seq);
            }
            _ => return false,
        }
        out.push(b'}');
        true
    }

    /// Parses a response frame (which must not be an event frame):
    /// [`decode_bytes`](Response::decode_bytes) on text.
    pub fn decode(frame: &str) -> Result<Response, WireError> {
        Self::decode_bytes(frame.as_bytes()).map_err(|e| e.to_string())
    }

    /// Parses a response frame from its bytes: a `submit`/`post`
    /// acknowledgement in our own layout without checking UTF-8, any
    /// other frame by the generic route.
    pub fn decode_bytes(frame: &[u8]) -> Result<Response, FrameError> {
        if let Some(response) = fast_ack(frame) {
            return Ok(response);
        }
        Self::decode_generic(utf8(frame)?).map_err(FrameError::Invalid)
    }

    /// The generic JSON route [`Response::decode`] falls back to when
    /// the frame is not a hot-path acknowledgement (also exercised
    /// directly by the fast-path differential test).
    fn decode_generic(frame: &str) -> Result<Response, WireError> {
        let v = json::parse(frame).map_err(|e| e.to_string())?;
        if let Some(message) = v.get("err") {
            return Ok(Response::Err {
                message: message.as_str().unwrap_or("unspecified failure").into(),
            });
        }
        if v.get("proto").is_some() {
            // The client only ever says `v2`: any other version in the
            // reply is a peer that does not speak our dialect.
            let version = uint("v", v.get("v"))?;
            if version != PROTO_VERSION_V2 {
                return Err(format!(
                    "server answered {PROTO_NAME} v{version} to a v{PROTO_VERSION_V2} hello"
                ));
            }
            return Ok(Response::Hello {
                info: decode_info(v.get("info").ok_or("missing `info`")?)?,
                // Absent on pre-windowing servers: lockstep only, per
                // the add-optional-members policy.
                // Present-but-malformed is refused, not coerced — a
                // garbled advertisement means a garbled peer.
                win: match v.get("win") {
                    None => 1,
                    Some(w) => w.as_u64().ok_or("non-integer `win`")?.max(1),
                },
            });
        }
        match word("ok", v.get("ok"))? {
            "submit" => Ok(Response::Submit {
                worker: WorkerId(uint("worker", v.get("worker"))?),
                seq: optional_seq(&v)?,
            }),
            "post" => Ok(Response::Post {
                task: TaskId(uint("task", v.get("task"))? as u32),
                seq: optional_seq(&v)?,
            }),
            "subscribe" => Ok(Response::Subscribe),
            "drain" => Ok(Response::Drain),
            "snapshot" => Ok(Response::Snapshot {
                text: word("data", v.get("data"))?.to_string(),
            }),
            "rebalance" => {
                let outcome = v.get("outcome").ok_or("missing `outcome`")?;
                if outcome.is_null() {
                    Ok(Response::Rebalance { outcome: None })
                } else {
                    Ok(Response::Rebalance {
                        outcome: Some(RebalanceOutcome {
                            moved_tasks: uint("moved", outcome.get("moved"))?,
                            live_loads: u64_array("loads", outcome.get("loads"))?,
                            stripe_starts: usize_array("starts", outcome.get("starts"))?,
                        }),
                    })
                }
            }
            "metrics" => Ok(Response::Metrics {
                metrics: ServiceMetrics {
                    n_workers_seen: uint("workers", v.get("workers"))?,
                    n_assignments: uint("assignments", v.get("assignments"))?,
                    n_tasks: uint("tasks", v.get("tasks"))?,
                    n_completed: uint("completed", v.get("completed"))?,
                    clamped_insertions: uint("clamped", v.get("clamped"))?,
                    rebalances: uint("rebalances", v.get("rebalances"))?,
                    shard_loads: u64_array("loads", v.get("loads"))?,
                    latency: match v.get("latency") {
                        Some(Json::Null) => None,
                        other => Some(uint("latency", other)?),
                    },
                    // Added after v1 shipped: absent on frames from
                    // older peers, so default rather than reject.
                    wal_records: v.get("wal").and_then(Json::as_u64).unwrap_or(0),
                    checkpoints: v.get("checkpoints").and_then(Json::as_u64).unwrap_or(0),
                    sessions_open: v.get("sessions_open").and_then(Json::as_u64).unwrap_or(0),
                    sessions_evicted: v
                        .get("sessions_evicted")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                },
            }),
            "shutdown" => Ok(Response::Shutdown),
            "open" => Ok(Response::Open {
                info: decode_info(v.get("info").ok_or("missing `info`")?)?,
            }),
            "attach" => Ok(Response::Attach {
                info: decode_info(v.get("info").ok_or("missing `info`")?)?,
            }),
            "close" => Ok(Response::Close),
            "sessions" => {
                let items = v
                    .get("sessions")
                    .and_then(Json::as_arr)
                    .ok_or("missing or non-array `sessions`")?;
                let mut sessions = Vec::with_capacity(items.len());
                for s in items {
                    sessions.push(SessionStat {
                        sid: required_sid(s)?,
                        algorithm: decode_algorithm(s)?,
                        n_shards: uint("shards", s.get("shards"))? as usize,
                        n_tasks: uint("tasks", s.get("tasks"))?,
                        attached: uint("attached", s.get("attached"))?,
                    });
                }
                Ok(Response::Sessions { sessions })
            }
            other => Err(format!("unknown response `{other}`")),
        }
    }
}

/// Whether a frame is an event frame (`"ev"` key) — the server→client
/// demultiplexer: event frames interleave between responses once a
/// connection subscribes.
// ltc-lint: hot-path
pub fn is_event_frame<F: AsRef<[u8]> + ?Sized>(frame: &F) -> bool {
    // Cheap structural probe; the real parse happens in decode_event.
    frame.as_ref().starts_with(b"{\"ev\":")
}

/// Serializes one subscription delivery as an event frame.
pub fn encode_event(event: &StreamEvent) -> String {
    let mut out = Vec::with_capacity(128);
    push_event(&mut out, event.into());
    text(out)
}

/// Appends one event frame to `out`: the [`encode_event`] bytes, then
/// `sid` as [`with_sid`] would add it, then the `\n` delimiter. The
/// delivery is borrowed (from an [`EventBatch`], or from a
/// [`StreamEvent`] through `EventRef::from`) and every kind is written
/// in place, so a warm buffer takes it without allocating.
// ltc-lint: hot-path
pub fn encode_event_into(out: &mut Vec<u8>, event: EventRef<'_>, sid: Option<&str>) {
    push_event(out, event);
    finish_frame(out, sid);
}

/// Appends the event frame itself, the layout [`encode_event`] and
/// [`encode_event_into`] share.
// ltc-lint: hot-path
fn push_event(out: &mut Vec<u8>, event: EventRef<'_>) {
    match event {
        EventRef::Worker { worker, events } => {
            out.extend_from_slice(b"{\"ev\":\"worker\",\"worker\":");
            json::push_u64(out, worker.0);
            out.extend_from_slice(b",\"batch\":[");
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                match e {
                    Event::Assigned {
                        task, acc, gain, ..
                    } => {
                        out.extend_from_slice(b"{\"k\":\"assign\",\"task\":");
                        json::push_u64(out, u64::from(task.0));
                        out.extend_from_slice(b",\"acc\":\"");
                        push_hex(out, *acc);
                        out.extend_from_slice(b"\",\"gain\":\"");
                        push_hex(out, *gain);
                        out.extend_from_slice(b"\"}");
                    }
                    Event::TaskCompleted { task, latency } => {
                        out.extend_from_slice(b"{\"k\":\"done\",\"task\":");
                        json::push_u64(out, u64::from(task.0));
                        out.extend_from_slice(b",\"latency\":");
                        json::push_u64(out, *latency);
                        out.push(b'}');
                    }
                    Event::WorkerIdle { .. } => out.extend_from_slice(b"{\"k\":\"idle\"}"),
                }
            }
            out.extend_from_slice(b"]}");
        }
        EventRef::TaskPosted { task } => {
            out.extend_from_slice(b"{\"ev\":\"task\",\"task\":");
            json::push_u64(out, u64::from(task.0));
            out.push(b'}');
        }
        EventRef::Lifecycle(l) => {
            out.extend_from_slice(b"{\"ev\":\"life\",\"kind\":");
            match &l {
                Lifecycle::Drained { workers_seen } => {
                    out.extend_from_slice(b"\"drained\",\"workers\":");
                    json::push_u64(out, *workers_seen);
                }
                Lifecycle::ShardStalled { shard, capacity } => {
                    out.extend_from_slice(b"\"stalled\",\"shard\":");
                    json::push_u64(out, *shard as u64);
                    out.extend_from_slice(b",\"capacity\":");
                    json::push_u64(out, *capacity as u64);
                }
                Lifecycle::TaskOutOfRegion { task } => {
                    out.extend_from_slice(b"\"oor\",\"task\":");
                    json::push_u64(out, u64::from(task.0));
                }
                Lifecycle::Rebalanced {
                    moved_tasks,
                    max_load,
                    mean_load,
                } => {
                    out.extend_from_slice(b"\"rebalanced\",\"moved\":");
                    json::push_u64(out, *moved_tasks);
                    out.extend_from_slice(b",\"max\":");
                    json::push_u64(out, *max_load);
                    out.extend_from_slice(b",\"mean\":\"");
                    push_hex(out, *mean_load);
                    out.push(b'"');
                }
                Lifecycle::Checkpointed { seq } => {
                    out.extend_from_slice(b"\"checkpointed\",\"seq\":");
                    json::push_u64(out, *seq);
                }
                Lifecycle::SessionEvicted => out.extend_from_slice(b"\"evicted\""),
                Lifecycle::ShuttingDown => out.extend_from_slice(b"\"bye\""),
            }
            out.push(b'}');
        }
    }
}

/// Parses an event frame back into the typed delivery: the owned
/// counterpart of [`decode_event_into`].
pub fn decode_event(frame: &str) -> Result<StreamEvent, WireError> {
    let mut batch = EventBatch::new();
    decode_event_into(frame.as_bytes(), &mut batch).map_err(|e| e.to_string())?;
    let event = batch.iter().next().map(StreamEvent::from);
    event.ok_or_else(|| "an event frame decoded to no delivery".to_string())
}

/// Parses an event frame from its bytes and appends the delivery to
/// `batch`. A `worker` or `task` frame in our own encoders' layout is
/// decoded straight into the batch, without allocating once the batch is
/// warm and without checking UTF-8; any other frame takes the generic
/// JSON route. On an error the batch is left as it was.
pub fn decode_event_into(frame: &[u8], batch: &mut EventBatch) -> Result<(), FrameError> {
    if fast_event_into(frame, batch).is_none() {
        let event = decode_event_generic(utf8(frame)?).map_err(FrameError::Invalid)?;
        batch.push(EventRef::from(&event));
    }
    Ok(())
}

/// The generic JSON route [`decode_event_into`] falls back to when the
/// frame is not a hot-path event (also exercised directly by the
/// fast-path differential test).
fn decode_event_generic(frame: &str) -> Result<StreamEvent, WireError> {
    let v = json::parse(frame).map_err(|e| e.to_string())?;
    match word("ev", v.get("ev"))? {
        "worker" => {
            let worker = WorkerId(uint("worker", v.get("worker"))?);
            let batch = v
                .get("batch")
                .and_then(Json::as_arr)
                .ok_or("missing or non-array `batch`")?;
            let mut events = Vec::with_capacity(batch.len());
            for e in batch {
                events.push(match word("k", e.get("k"))? {
                    "assign" => Event::Assigned {
                        worker,
                        task: TaskId(uint("task", e.get("task"))? as u32),
                        acc: unhex("acc", e.get("acc"))?,
                        gain: unhex("gain", e.get("gain"))?,
                    },
                    "done" => Event::TaskCompleted {
                        task: TaskId(uint("task", e.get("task"))? as u32),
                        latency: uint("latency", e.get("latency"))?,
                    },
                    "idle" => Event::WorkerIdle { worker },
                    other => return Err(format!("unknown batch entry `{other}`")),
                });
            }
            Ok(StreamEvent::Worker { worker, events })
        }
        "task" => Ok(StreamEvent::TaskPosted {
            task: TaskId(uint("task", v.get("task"))? as u32),
        }),
        "life" => Ok(StreamEvent::Lifecycle(match word("kind", v.get("kind"))? {
            "drained" => Lifecycle::Drained {
                workers_seen: uint("workers", v.get("workers"))?,
            },
            "stalled" => Lifecycle::ShardStalled {
                shard: uint("shard", v.get("shard"))? as usize,
                capacity: uint("capacity", v.get("capacity"))? as usize,
            },
            "oor" => Lifecycle::TaskOutOfRegion {
                task: TaskId(uint("task", v.get("task"))? as u32),
            },
            "rebalanced" => Lifecycle::Rebalanced {
                moved_tasks: uint("moved", v.get("moved"))?,
                max_load: uint("max", v.get("max"))?,
                mean_load: unhex("mean", v.get("mean"))?,
            },
            "checkpointed" => Lifecycle::Checkpointed {
                seq: uint("seq", v.get("seq"))?,
            },
            "evicted" => Lifecycle::SessionEvicted,
            "bye" => Lifecycle::ShuttingDown,
            other => return Err(format!("unknown lifecycle kind `{other}`")),
        })),
        other => Err(format!("unknown event `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_core::model::Eligibility;

    /// One request of every kind, hot kinds with and without their tails.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Submit {
                worker: Worker::new(Point::new(1.5, -0.25), 0.875),
                seq: None,
            },
            Request::Submit {
                worker: Worker::new(Point::new(1.5, -0.25), 0.875),
                seq: Some(u64::MAX),
            },
            Request::Post {
                task: Task::new(Point::new(f64::MIN_POSITIVE, 1e300)),
                row: None,
                seq: None,
            },
            Request::Post {
                task: Task::new(Point::new(0.1, 0.2)),
                row: Some(vec![0.9, 0.5 + f64::EPSILON, 0.0]),
                seq: Some(0),
            },
            Request::Subscribe,
            Request::Drain,
            Request::Snapshot,
            Request::Rebalance,
            Request::Metrics,
            Request::Shutdown,
            Request::Open {
                sid: "region-7".into(),
                algorithm: None,
                shards: None,
                region: None,
            },
            Request::Open {
                sid: "a".into(),
                algorithm: Some(Algorithm::Random { seed: 42 }),
                shards: Some(4),
                region: Some(ltc_spatial::BoundingBox::new(
                    Point::new(-1.5, 0.0),
                    Point::new(1e300, 2.25),
                )),
            },
            Request::Attach { sid: "a".into() },
            Request::Close { sid: "a".into() },
            Request::Sessions,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let frame = req.encode();
            assert_eq!(Request::decode_with_sid(&frame).unwrap().0, req, "{frame}");
        }
    }

    #[test]
    fn sid_rides_any_frame_and_round_trips() {
        let framed = with_sid(Request::Drain.encode(), "s-1");
        assert_eq!(framed, "{\"op\":\"drain\",\"sid\":\"s-1\"}");
        let (req, sid) = Request::decode_with_sid(&framed).unwrap();
        assert_eq!(req, Request::Drain);
        assert_eq!(sid.as_deref(), Some("s-1"));
        // A frame without the member decodes to no sid.
        assert_eq!(
            Request::decode_with_sid(&Request::Drain.encode())
                .unwrap()
                .1,
            None
        );
        // The session verbs surface their target through the same member.
        let (_, sid) = Request::decode_with_sid("{\"op\":\"attach\",\"sid\":\"x\"}").unwrap();
        assert_eq!(sid.as_deref(), Some("x"));
        // Responses and events take the member the same way.
        let ok = with_sid(Response::Drain.encode(), "s-1");
        assert_eq!(ok, "{\"ok\":\"drain\",\"sid\":\"s-1\"}");
        assert_eq!(Response::decode(&ok).unwrap(), Response::Drain);
        let ev = with_sid(
            encode_event(&StreamEvent::TaskPosted { task: TaskId(3) }),
            "s-1",
        );
        assert!(is_event_frame(&ev), "{ev}");
        assert_eq!(
            decode_event(&ev).unwrap(),
            StreamEvent::TaskPosted { task: TaskId(3) }
        );
        // Illegal ids are rejected, not smuggled.
        assert!(Request::decode_with_sid("{\"op\":\"drain\",\"sid\":\"a b\"}").is_err());
        assert!(Request::decode_with_sid("{\"op\":\"attach\",\"sid\":7}").is_err());
        assert!(Request::decode_with_sid("{\"op\":\"attach\"}").is_err());
        assert!(!valid_session_name(""));
        assert!(!valid_session_name(&"x".repeat(65)));
        assert!(!valid_session_name("a\"b"));
        assert!(valid_session_name("Region_7.east-2"));
    }

    /// One response of every kind, hot kinds with and without `"seq"`.
    fn sample_responses() -> Vec<Response> {
        let info = SessionInfo {
            algorithm: Algorithm::Random { seed: u64::MAX },
            params: ProblemParams {
                epsilon: 0.3,
                capacity: 2,
                d_max: 30.0,
                min_accuracy: 0.66,
                eligibility: Eligibility::WithinRange,
                quality: QualityModel::Hoeffding,
            },
            n_shards: 4,
            n_tasks: 17,
        };
        let info2 = info.clone();
        let info3 = info.clone();
        let info4 = info.clone();
        vec![
            Response::Hello { info, win: 1 },
            Response::Hello {
                info: info4,
                win: MAX_WINDOW,
            },
            Response::Submit {
                worker: WorkerId(u64::MAX),
                seq: None,
            },
            Response::Submit {
                worker: WorkerId(3),
                seq: Some(17),
            },
            Response::Post {
                task: TaskId(7),
                seq: None,
            },
            Response::Post {
                task: TaskId(7),
                seq: Some(u64::MAX),
            },
            Response::Subscribe,
            Response::Drain,
            Response::Snapshot {
                text: "ltc-snapshot v2\nparams …\nend\n".into(),
            },
            Response::Rebalance { outcome: None },
            Response::Rebalance {
                outcome: Some(RebalanceOutcome {
                    moved_tasks: 9,
                    live_loads: vec![3, 0, 5],
                    stripe_starts: vec![0, 4, 9],
                }),
            },
            Response::Metrics {
                metrics: ServiceMetrics {
                    n_workers_seen: 100,
                    n_assignments: 42,
                    n_tasks: 10,
                    n_completed: 10,
                    clamped_insertions: 3,
                    rebalances: 1,
                    shard_loads: vec![0, 0],
                    latency: Some(97),
                    wal_records: 1234,
                    checkpoints: 5,
                    sessions_open: 3,
                    sessions_evicted: 2,
                },
            },
            Response::Metrics {
                metrics: ServiceMetrics::default(),
            },
            Response::Shutdown,
            Response::Open { info: info2 },
            Response::Attach { info: info3 },
            Response::Close,
            Response::Sessions { sessions: vec![] },
            Response::Sessions {
                sessions: vec![
                    SessionStat {
                        sid: "default".into(),
                        algorithm: Algorithm::Laf,
                        n_shards: 1,
                        n_tasks: 24,
                        attached: 2,
                    },
                    SessionStat {
                        sid: "region-7".into(),
                        algorithm: Algorithm::Random { seed: 9 },
                        n_shards: 4,
                        n_tasks: 0,
                        attached: 0,
                    },
                ],
            },
            Response::Err {
                message: "engine error: task has a non-finite location".into(),
            },
        ]
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let frame = resp.encode();
            assert!(!frame.contains('\n'), "{frame}");
            assert_eq!(Response::decode(&frame).unwrap(), resp, "{frame}");
        }
    }

    /// Every event kind: `worker` frames with each entry kind (and an
    /// empty batch), `task`, and every [`Lifecycle`].
    fn sample_events() -> Vec<StreamEvent> {
        let w = WorkerId(3);
        vec![
            StreamEvent::Worker {
                worker: w,
                events: vec![
                    Event::Assigned {
                        worker: w,
                        task: TaskId(1),
                        acc: 0.951_234_567_890_123_4,
                        gain: (2.0 * 0.951_234_567_890_123_4f64 - 1.0).powi(2),
                    },
                    Event::TaskCompleted {
                        task: TaskId(1),
                        latency: 4,
                    },
                ],
            },
            StreamEvent::Worker {
                worker: w,
                events: vec![Event::WorkerIdle { worker: w }],
            },
            StreamEvent::Worker {
                worker: WorkerId(u64::MAX),
                events: vec![],
            },
            StreamEvent::TaskPosted { task: TaskId(0) },
            StreamEvent::TaskPosted {
                task: TaskId(u32::MAX),
            },
            StreamEvent::Lifecycle(Lifecycle::Drained { workers_seen: 12 }),
            StreamEvent::Lifecycle(Lifecycle::ShardStalled {
                shard: 2,
                capacity: 1024,
            }),
            StreamEvent::Lifecycle(Lifecycle::TaskOutOfRegion { task: TaskId(5) }),
            StreamEvent::Lifecycle(Lifecycle::Rebalanced {
                moved_tasks: 6,
                max_load: 3,
                mean_load: 2.5,
            }),
            StreamEvent::Lifecycle(Lifecycle::Checkpointed { seq: u64::MAX }),
            StreamEvent::Lifecycle(Lifecycle::SessionEvicted),
            StreamEvent::Lifecycle(Lifecycle::ShuttingDown),
        ]
    }

    #[test]
    fn events_round_trip_bit_exactly() {
        for event in sample_events() {
            let frame = encode_event(&event);
            assert!(is_event_frame(&frame), "{frame}");
            assert_eq!(decode_event(&frame).unwrap(), event, "{frame}");
        }
    }

    #[test]
    fn metrics_frames_without_durability_fields_still_decode() {
        // A pre-durability v1 peer omits `wal`/`checkpoints`; the
        // compatibility policy (ignore unknown, default absent) makes
        // that a zero, not an error.
        let frame = "{\"ok\":\"metrics\",\"workers\":1,\"assignments\":0,\"tasks\":0,\
                     \"completed\":0,\"clamped\":0,\"rebalances\":0,\"loads\":[0],\
                     \"latency\":null}";
        match Response::decode(frame).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.wal_records, 0);
                assert_eq!(metrics.checkpoints, 0);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn handshake_frames_validate() {
        assert_eq!(decode_hello(&encode_hello_v2()).unwrap(), PROTO_VERSION_V2);
        assert_eq!(
            decode_hello("{\"proto\":\"ltc-proto\",\"v\":1}").unwrap(),
            PROTO_VERSION_V1
        );
        assert!(decode_hello("{\"proto\":\"other\",\"v\":1}").is_err());
        assert!(decode_hello("{\"v\":1}").is_err());
        assert!(decode_hello("garbage").is_err());
        // A future version parses (the *server* decides to refuse it).
        assert_eq!(
            decode_hello("{\"proto\":\"ltc-proto\",\"v\":9}").unwrap(),
            9
        );
    }

    #[test]
    fn frame_reader_enforces_the_cap_and_boundaries() {
        let mut ok = io::Cursor::new(b"{\"op\":\"drain\"}\n{\"op\":\"metrics\"}\n".to_vec());
        assert_eq!(
            read_frame(&mut ok).unwrap().as_deref(),
            Some("{\"op\":\"drain\"}")
        );
        assert_eq!(
            read_frame(&mut ok).unwrap().as_deref(),
            Some("{\"op\":\"metrics\"}")
        );
        assert_eq!(read_frame(&mut ok).unwrap(), None);

        let mut truncated = io::Cursor::new(b"{\"op\":\"dra".to_vec());
        assert!(read_frame(&mut truncated).is_err());

        let mut oversized = io::Cursor::new(vec![b'x'; MAX_FRAME + 10]);
        assert!(read_frame(&mut oversized).is_err());

        let mut non_utf8 = io::Cursor::new(vec![0xFF, 0xFE, b'\n']);
        assert!(read_frame(&mut non_utf8).is_err());
    }

    /// Buffer capacities that put refills at every offset of the short
    /// frames and inside every long one, plus the default.
    const CAPACITIES: [usize; 6] = [1, 7, 8, 9, 16, 8 * 1024];

    /// Every frame `read_frame_into` reads from `bytes`, then how the
    /// stream ended: `None` cleanly, or the error's kind and text.
    fn reference_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, Option<(io::ErrorKind, String)>) {
        let mut reader = io::Cursor::new(bytes);
        let mut line = Vec::new();
        let mut frames = Vec::new();
        loop {
            match read_frame_into(&mut reader, &mut line) {
                Ok(Some(frame)) => frames.push(frame.as_bytes().to_vec()),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some((e.kind(), e.to_string()))),
            }
        }
    }

    /// [`reference_frames`] through a [`FrameReader`] over a buffer of
    /// `capacity` bytes.
    fn frame_reader_frames(
        bytes: &[u8],
        capacity: usize,
    ) -> (Vec<Vec<u8>>, Option<(io::ErrorKind, String)>) {
        let mut reader =
            FrameReader::new(BufReader::with_capacity(capacity, io::Cursor::new(bytes)));
        let mut frames = Vec::new();
        loop {
            // Asking first, as the client's reader does while it holds
            // undelivered events, must not change what is read next.
            if frames.len() % 2 == 1 {
                let held = reader.holds_frame();
                assert!(!held || !reader.is_drained(), "a held frame is buffered");
            }
            match reader.next_frame() {
                Ok(Some(frame)) => frames.push(frame.to_vec()),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some((e.kind(), e.to_string()))),
            }
        }
    }

    #[test]
    fn the_frame_reader_reads_read_frame_intos_frames_at_every_refill_boundary() {
        let mut text: Vec<String> = sample_requests().iter().map(Request::encode).collect();
        text.extend(sample_responses().iter().map(Response::encode));
        text.extend(sample_events().iter().map(encode_event));
        text.extend(["".to_string(), "x".to_string(), "{}".to_string()]);
        let mut bytes = Vec::new();
        for (i, frame) in text.iter().enumerate() {
            let frame = if i % 2 == 0 && frame.ends_with('}') {
                with_sid(frame.clone(), "s-1")
            } else {
                frame.clone()
            };
            bytes.extend_from_slice(frame.as_bytes());
            bytes.push(b'\n');
        }
        // Cuts of the stream at every frame boundary and every third
        // byte: a clean end at a boundary, or the mid-frame error after
        // the same frames.
        let cuts = (0..=bytes.len()).filter(|&cut| cut % 3 == 0 || bytes[cut - 1] == b'\n');
        for cut in cuts {
            let stream = &bytes[..cut];
            let expected = reference_frames(stream);
            if cut == bytes.len() {
                assert_eq!(expected.0.len(), text.len());
                assert_eq!(expected.1, None);
            }
            for capacity in CAPACITIES {
                assert_eq!(
                    frame_reader_frames(stream, capacity),
                    expected,
                    "cut {cut}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn the_frame_reader_keeps_the_cap_and_its_error() {
        // The largest legal frame, `\n` included, is `MAX_FRAME` bytes;
        // one byte more is refused, whether it ends or not.
        let mut largest = vec![b'x'; MAX_FRAME - 1];
        largest.push(b'\n');
        largest.extend_from_slice(b"{}\n");
        let mut over = vec![b'x'; MAX_FRAME];
        over.push(b'\n');
        let unended = vec![b'x'; MAX_FRAME + 10];
        // Through a buffer the frames straddle, and for the frame one
        // byte over, through one that holds it whole.
        for (stream, capacities) in [
            (&largest, &[4096][..]),
            (&over, &[4096, MAX_FRAME + 16]),
            (&unended, &[4096]),
        ] {
            let expected = reference_frames(stream);
            for &capacity in capacities {
                assert_eq!(
                    frame_reader_frames(stream, capacity),
                    expected,
                    "{} bytes, capacity {capacity}",
                    stream.len()
                );
            }
        }
        assert_eq!(reference_frames(&largest).0.len(), 2);
        let (frames, error) = reference_frames(&over);
        assert!(frames.is_empty());
        assert_eq!(
            error,
            Some((io::ErrorKind::InvalidData, OVER_CAP.to_string()))
        );
    }

    #[test]
    fn newlines_are_found_at_every_offset() {
        // Every other byte value around a `\n` at every offset (and a
        // second `\n` after it), then random bytes, which mix the
        // lanes of each word.
        for filler in (0..=255u8).filter(|&b| b != b'\n') {
            for len in 0..20 {
                for at in 0..=len {
                    let mut bytes = vec![filler; len];
                    if at < len {
                        bytes[at] = b'\n';
                    }
                    if at + 3 < len {
                        bytes[at + 3] = b'\n';
                    }
                    let expected = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&bytes), expected, "{bytes:?}");
                }
            }
        }
        let mut rng = XorShift(0x1CDE_2018_0000_0004);
        for _ in 0..4096 {
            let len = (rng.next() % 40) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.next() % 8 {
                    0 => b'\n',
                    _ => (rng.next() >> 32) as u8,
                })
                .collect();
            let expected = bytes.iter().position(|&b| b == b'\n');
            assert_eq!(find_newline(&bytes), expected, "{bytes:?}");
        }
    }

    #[test]
    fn a_non_utf8_frame_is_refused_as_such_by_every_byte_decoder() {
        for frame in [
            &b"{\"op\":\"drain\",\"sid\":\"\xff\"}"[..],
            b"{\"ok\":\"submit\",\"worker\":3\xc3}",
            b"{\"ev\":\"task\",\"task\":3,\"sid\":\"\xe2\x82\"}",
        ] {
            assert_eq!(Request::decode_bytes(frame), Err(FrameError::NotUtf8));
            assert_eq!(Response::decode_bytes(frame), Err(FrameError::NotUtf8));
            let mut batch = EventBatch::new();
            assert_eq!(
                decode_event_into(frame, &mut batch),
                Err(FrameError::NotUtf8)
            );
            assert!(batch.is_empty());
        }
        assert_eq!(FrameError::NotUtf8.to_string(), NOT_UTF8);
    }

    /// A `Write` that records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write() {
        // On a `TCP_NODELAY` socket every `write` is a segment: the frame
        // and its delimiter must leave together.
        for frame in [
            encode_hello_v2(),
            Request::Drain.encode(),
            encode_event(&StreamEvent::TaskPosted { task: TaskId(7) }),
        ] {
            let mut sink = CountingWriter::default();
            write_frame(&mut sink, &frame).unwrap();
            assert_eq!(sink.writes, vec![format!("{frame}\n").into_bytes()]);
        }
    }

    #[test]
    fn malformed_wire_input_errors_cleanly() {
        for frame in [
            "",
            "{}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"submit\",\"x\":\"zz\"}",
            "{\"op\":\"submit\",\"x\":1.5,\"y\":\"0\",\"acc\":\"0\"}",
            "{\"op\":\"post\",\"x\":\"3ff0000000000000\",\"y\":\"3ff0000000000000\",\"row\":3}",
        ] {
            assert!(
                Request::decode_with_sid(frame).is_err(),
                "accepted {frame:?}"
            );
        }
        for frame in [
            "",
            "{}",
            "{\"ok\":\"nope\"}",
            "{\"ok\":\"submit\"}",
            "{\"ok\":\"rebalance\"}",
            "{\"proto\":\"ltc-proto\",\"v\":2,\"info\":{}}",
        ] {
            assert!(Response::decode(frame).is_err(), "accepted {frame:?}");
        }
        for frame in ["{\"ev\":\"worker\"}", "{\"ev\":\"life\",\"kind\":\"??\"}"] {
            assert!(decode_event(frame).is_err(), "accepted {frame:?}");
        }
    }

    /// The generic route's verdict on a request frame, sid owned.
    fn generic_request(frame: &str) -> Result<(Request, Option<String>), WireError> {
        let v = json::parse(frame).map_err(|e| e.to_string())?;
        Ok((
            Request::decode_value(&v)?,
            frame_sid(&v)?.map(str::to_owned),
        ))
    }

    /// The fast paths' one rule: whatever a fast decoder accepts, the
    /// generic route decodes to the identical value.
    fn assert_fast_implies_generic(frame: &str) {
        if let Some((request, sid)) = fast_decode_request(frame) {
            let fast = (request, sid.map(str::to_owned));
            assert_eq!(generic_request(frame), Ok(fast), "{frame:?}");
        }
        if let Some(ack) = fast_decode_ack(frame) {
            assert_eq!(Response::decode_generic(frame), Ok(ack), "{frame:?}");
        }
        if let Some(event) = fast_decode_event(frame) {
            assert_eq!(decode_event_generic(frame), Ok(event), "{frame:?}");
        }
    }

    /// The batch decoder's verdict on `frame`, decoded into a batch that
    /// already holds a worker's delivery: the one delivery it appended,
    /// or `None` with the batch exactly as it was.
    fn fast_decode_event(frame: &str) -> Option<StreamEvent> {
        let earlier = WorkerId(98);
        let mut batch = EventBatch::new();
        batch.push(EventRef::Worker {
            worker: earlier,
            events: &[Event::WorkerIdle { worker: earlier }],
        });
        let before = batch.clone();
        if fast_decode_into(frame, &mut batch).is_none() {
            assert_eq!(
                batch, before,
                "a refused frame changed the batch: {frame:?}"
            );
            return None;
        }
        let mut deliveries = batch.iter();
        assert_eq!(deliveries.next(), before.iter().next(), "{frame:?}");
        let decoded = deliveries.next().map(StreamEvent::from);
        assert_eq!(deliveries.next(), None, "{frame:?}");
        decoded
    }

    #[test]
    fn fast_paths_agree_with_the_generic_parser() {
        // Requests: every hot-frame variant (seq/sid tails, windowed or
        // not) plus near-misses that must fall back — the fast path may
        // only ever accept frames the generic route parses identically.
        let requests = [
            Request::Submit {
                worker: Worker::new(Point::new(325.0, -0.125), 0.83),
                seq: None,
            }
            .encode(),
            Request::Submit {
                worker: Worker::new(Point::new(f64::MIN_POSITIVE, 1e300), 1.0),
                seq: Some(0),
            }
            .encode(),
            with_sid(
                Request::Submit {
                    worker: Worker::new(Point::new(1.5, 2.5), 0.99),
                    seq: Some(u64::MAX),
                }
                .encode(),
                "Region_7.east-2",
            ),
            Request::Post {
                task: Task::new(Point::new(-0.0, 7.5)),
                row: None,
                seq: None,
            }
            .encode(),
            with_sid(
                Request::Post {
                    task: Task::new(Point::new(12.5, 1e-300)),
                    row: None,
                    seq: Some(17),
                }
                .encode(),
                "default",
            ),
        ];
        for frame in &requests {
            let generic = generic_request(frame).unwrap();
            let (request, sid) = fast_decode_request(frame).expect(frame);
            assert_eq!((request, sid.map(str::to_owned)), generic, "{frame}");
            assert_eq!(Request::decode_with_sid(frame).unwrap(), generic, "{frame}");
        }
        // Foreign-but-valid framings (reordered members, whitespace,
        // uppercase keys, leading zeros, a `post` row) must fall back;
        // the generic route still parses the valid ones.
        for (frame, valid) in [
            ("{\"x\":\"4074400000000000\",\"op\":\"submit\",\"y\":\"4074400000000000\",\"acc\":\"3feA000000000000\"}", true),
            ("{\"op\":\"submit\", \"x\":\"4074400000000000\",\"y\":\"4074400000000000\",\"acc\":\"3fea000000000000\"}", true),
            ("{\"op\":\"submit\",\"X\":\"4074400000000000\",\"y\":\"4074400000000000\",\"acc\":\"3fea000000000000\"}", false),
            ("{\"op\":\"post\",\"x\":\"4074400000000000\",\"y\":\"4074400000000000\",\"seq\":007}", true),
            ("{\"op\":\"post\",\"y\":\"4074400000000000\",\"x\":\"4074400000000000\",\"seq\":7}", true),
            ("{\"op\":\"post\",\"x\":\"4074400000000000\",\"y\":\"4074400000000000\",\"row\":[],\"seq\":7}", true),
            ("{\"op\":\"post\",\"x\":\"4074400000000000\",\"y\":\"4074400000000000\",\"seq\":18446744073709551616}", false),
        ] {
            assert_eq!(fast_decode_request(frame), None, "{frame}");
            assert_eq!(Request::decode_with_sid(frame).is_ok(), valid, "{frame}");
        }
        // Acknowledgements, both verbs, all tail combinations.
        let acks = [
            Response::Submit {
                worker: WorkerId(0),
                seq: None,
            }
            .encode(),
            with_sid(
                Response::Submit {
                    worker: WorkerId(u64::MAX),
                    seq: Some(41),
                }
                .encode(),
                "default",
            ),
            Response::Post {
                task: TaskId(7),
                seq: Some(u64::MAX),
            }
            .encode(),
            with_sid(
                Response::Post {
                    task: TaskId(u32::MAX),
                    seq: None,
                }
                .encode(),
                "s-1",
            ),
        ];
        for frame in &acks {
            let generic = Response::decode_generic(frame).unwrap();
            assert_eq!(fast_decode_ack(frame), Some(generic.clone()), "{frame}");
            assert_eq!(Response::decode(frame).unwrap(), generic, "{frame}");
        }
        // Near-misses fall back to the generic route's verdict.
        for (frame, valid) in [
            ("{\"ok\":\"submit\",\"worker\":007}", true),
            ("{\"ok\":\"submit\",\"worker\":3,\"seq\":-1}", false),
            ("{\"ok\":\"post\",\"task\":3,\"sid\":\"no spaces\"}", true),
            ("{\"OK\":\"submit\",\"worker\":3}", false),
            ("{\"ok\":\"submit\", \"worker\":3}", true),
            ("{\"worker\":3,\"ok\":\"submit\"}", true),
            ("{\"ok\":\"post\",\"task\":4294967296}", true),
        ] {
            assert_eq!(fast_decode_ack(frame), None, "{frame}");
            assert_eq!(Response::decode(frame).is_ok(), valid, "{frame}");
        }
        // Above `u32::MAX` a task id truncates on the generic route.
        assert_eq!(
            Response::decode("{\"ok\":\"post\",\"task\":4294967297}").unwrap(),
            Response::Post {
                task: TaskId(1),
                seq: None
            }
        );
        // Events: every `worker` and `task` frame, with and without sid.
        for event in sample_events() {
            for sid in [None, Some("Region_7.east-2")] {
                let mut frame = encode_event(&event);
                if let Some(sid) = sid {
                    frame = with_sid(frame, sid);
                }
                let generic = decode_event_generic(&frame).unwrap();
                let hot = matches!(
                    event,
                    StreamEvent::Worker { .. } | StreamEvent::TaskPosted { .. }
                );
                let fast = fast_decode_event(&frame);
                assert_eq!(fast.is_some(), hot, "{frame}");
                if let Some(fast) = fast {
                    assert_eq!(fast, generic, "{frame}");
                }
                assert_eq!(decode_event(&frame).unwrap(), generic, "{frame}");
            }
        }
        for (frame, valid) in [
            ("{\"ev\":\"task\", \"task\":3}", true),
            ("{\"task\":3,\"ev\":\"task\"}", true),
            ("{\"ev\":\"task\",\"Task\":3}", false),
            ("{\"ev\":\"task\",\"task\":03}", true),
            ("{\"ev\":\"task\",\"task\":4294967296}", true),
            ("{\"ev\":\"worker\",\"Worker\":3,\"batch\":[]}", false),
            ("{\"ev\":\"worker\",\"worker\":03,\"batch\":[{\"k\":\"idle\"}]}", true),
            ("{\"ev\":\"worker\",\"batch\":[{\"k\":\"idle\"}],\"worker\":3}", true),
            ("{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"IDLE\"}]}", false),
            ("{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"idle\"} ]}", true),
            ("{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"idle\"},]}", false),
            ("{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"task\":1,\"k\":\"done\",\"latency\":4}]}", true),
            ("{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"done\",\"task\":4294967297,\"latency\":4}]}", true),
            ("{\"ev\":\"worker\",\"worker\":18446744073709551616,\"batch\":[]}", false),
            ("{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"assign\",\"task\":1,\"acc\":\"+fe0000000000000\",\"gain\":\"3fe0000000000000\"}]}", false),
        ] {
            assert_eq!(fast_decode_event(frame), None, "{frame}");
            assert_eq!(decode_event(frame).is_ok(), valid, "{frame}");
        }
        assert_eq!(
            decode_event("{\"ev\":\"task\",\"task\":4294967297}").unwrap(),
            StreamEvent::TaskPosted { task: TaskId(1) }
        );
    }

    #[test]
    fn in_place_encoders_write_the_string_encoders_bytes() {
        // Each in-place encoder appends exactly `with_sid(encode(..))`
        // plus `\n`, after whatever the buffer already holds.
        for sid in [None, Some("s-1")] {
            let frame = |encoded: String| match sid {
                Some(sid) => format!("prior\n{}\n", with_sid(encoded, sid)).into_bytes(),
                None => format!("prior\n{encoded}\n").into_bytes(),
            };
            for event in sample_events() {
                let mut out = b"prior\n".to_vec();
                encode_event_into(&mut out, (&event).into(), sid);
                assert_eq!(out, frame(encode_event(&event)));
            }
            for request in sample_requests() {
                let mut out = b"prior\n".to_vec();
                request.encode_into(&mut out, sid);
                assert_eq!(out, frame(request.encode()));
            }
            for response in sample_responses() {
                let mut out = b"prior\n".to_vec();
                response.encode_into(&mut out, sid);
                assert_eq!(out, frame(response.encode()));
            }
        }
    }

    #[test]
    fn hot_frames_keep_their_byte_layout() {
        // The exact bytes the per-check-in frames have always had; the
        // fast decoders scan for precisely these layouts.
        let w = WorkerId(12);
        let cases = [
            (
                Request::Submit {
                    worker: Worker::new(Point::new(1.0, -2.0), 0.5),
                    seq: Some(7),
                }
                .encode(),
                r#"{"op":"submit","x":"3ff0000000000000","y":"c000000000000000","acc":"3fe0000000000000","seq":7}"#,
            ),
            (
                Request::Post {
                    task: Task::new(Point::new(0.5, 0.25)),
                    row: Some(vec![1.0, 0.0]),
                    seq: None,
                }
                .encode(),
                r#"{"op":"post","x":"3fe0000000000000","y":"3fd0000000000000","row":["3ff0000000000000","0000000000000000"]}"#,
            ),
            (
                Response::Submit {
                    worker: WorkerId(40),
                    seq: Some(3),
                }
                .encode(),
                r#"{"ok":"submit","worker":40,"seq":3}"#,
            ),
            (
                Response::Post {
                    task: TaskId(9),
                    seq: None,
                }
                .encode(),
                r#"{"ok":"post","task":9}"#,
            ),
            (
                encode_event(&StreamEvent::Worker {
                    worker: w,
                    events: vec![
                        Event::Assigned {
                            worker: w,
                            task: TaskId(5),
                            acc: 0.75,
                            gain: 0.25,
                        },
                        Event::TaskCompleted {
                            task: TaskId(5),
                            latency: 12,
                        },
                    ],
                }),
                r#"{"ev":"worker","worker":12,"batch":[{"k":"assign","task":5,"acc":"3fe8000000000000","gain":"3fd0000000000000"},{"k":"done","task":5,"latency":12}]}"#,
            ),
            (
                encode_event(&StreamEvent::Worker {
                    worker: w,
                    events: vec![Event::WorkerIdle { worker: w }],
                }),
                r#"{"ev":"worker","worker":12,"batch":[{"k":"idle"}]}"#,
            ),
            (
                encode_event(&StreamEvent::TaskPosted { task: TaskId(0) }),
                r#"{"ev":"task","task":0}"#,
            ),
            (
                encode_event(&StreamEvent::Lifecycle(Lifecycle::ShardStalled {
                    shard: 1,
                    capacity: 1024,
                })),
                r#"{"ev":"life","kind":"stalled","shard":1,"capacity":1024}"#,
            ),
            (
                encode_event(&StreamEvent::Lifecycle(Lifecycle::Rebalanced {
                    moved_tasks: 6,
                    max_load: 3,
                    mean_load: 2.5,
                })),
                r#"{"ev":"life","kind":"rebalanced","moved":6,"max":3,"mean":"4004000000000000"}"#,
            ),
            (
                encode_event(&StreamEvent::Lifecycle(Lifecycle::ShuttingDown)),
                r#"{"ev":"life","kind":"bye"}"#,
            ),
        ];
        for (encoded, expected) in cases {
            assert_eq!(encoded, expected);
        }
    }

    #[test]
    fn unhex_takes_exactly_sixteen_hex_digits() {
        let ok = Json::Str("3fe0000000000000".into());
        assert_eq!(unhex("x", Some(&ok)), Ok(0.5));
        let upper = Json::Str("3FE0000000000000".into());
        assert_eq!(unhex("x", Some(&upper)), Ok(0.5));
        // `from_str_radix` would read `+3fe000000000000` (16 bytes, 15
        // digits) as 0x03fe000000000000.
        for bad in [
            "+3fe000000000000",
            "-3fe000000000000",
            " 3fe000000000000",
            "3fe000000000000",
            "3fe00000000000000",
            "0x3fe00000000000",
        ] {
            let v = Json::Str(bad.into());
            assert!(unhex("x", Some(&v)).is_err(), "accepted {bad:?}");
        }
    }

    /// xorshift64* — a deterministic corpus generator, so every fuzz
    /// failure below reproduces from the constant seed in the test
    /// (printed in the assertion) without an RNG dev-dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// Every decoder entry point the server or client feeds untrusted
    /// bytes into. Returning `Err` is fine; panicking or wedging is the
    /// failure mode under test, and so is a fast path accepting a frame
    /// the generic route decodes differently.
    fn exercise_decoders(frame: &str) {
        assert_fast_implies_generic(frame);
        let _ = Request::decode_with_sid(frame);
        let _ = Response::decode(frame);
        let _ = decode_event(frame);
        let _ = decode_hello(frame);
        let _ = is_event_frame(frame);
    }

    #[test]
    fn fuzz_random_bytes_never_panic_reader_or_decoders() {
        // Hostile-input sweep: raw random bytes through the frame reader
        // (arbitrary split points, missing delimiters, non-UTF-8), and
        // random printable JSON-ish garbage through every decoder. The
        // generator is seeded, so `iter` in a failure message pins the
        // exact offending input.
        let mut rng = XorShift(0x1CDE_2018_0000_0001);
        const JSONISH: &[u8] = br#"{}[]":,.-0123456789aeflnopqrstuvx\ "#;
        for iter in 0..4096u32 {
            let len = (rng.next() % 160) as usize;
            let raw: Vec<u8> = (0..len).map(|_| (rng.next() >> 32) as u8).collect();
            let mut cursor = io::Cursor::new(raw.clone());
            while let Ok(Some(_)) = read_frame(&mut cursor) {}
            let jsonish: String = (0..len)
                .map(|_| JSONISH[(rng.next() as usize) % JSONISH.len()] as char)
                .collect();
            exercise_decoders(&jsonish);
            exercise_decoders(&String::from_utf8_lossy(&raw));
            debug_assert!(len < 160, "iter {iter}: corpus length out of bounds");
        }
    }

    #[test]
    fn fuzz_truncations_and_mutations_of_valid_frames_error_cleanly() {
        // Every prefix and a spray of single-byte corruptions of real
        // frames (every hot frame included) must decode to a clean error
        // or a different valid value — never a panic, and never a fast
        // path disagreeing with the generic route. Truncated frames fed
        // to the reader without their delimiter must surface the
        // mid-frame error, not hang or fabricate a frame.
        let w = WorkerId(1 << 40);
        let corpus: Vec<String> = vec![
            Request::Submit {
                worker: Worker::new(Point::new(13.25, -4.5), 0.875),
                seq: Some(41),
            }
            .encode(),
            with_sid(
                Request::Post {
                    task: Task::new(Point::new(0.5, 99.0)),
                    row: Some(vec![0.25, 1.0]),
                    seq: Some(u64::MAX),
                }
                .encode(),
                "sess-9",
            ),
            encode_hello_v2(),
            Response::Submit {
                worker: WorkerId(7),
                seq: Some(7),
            }
            .encode(),
            Response::Err {
                message: "over capacity".into(),
            }
            .encode(),
            encode_event(&StreamEvent::Lifecycle(Lifecycle::SessionEvicted)),
            encode_event(&StreamEvent::Worker {
                worker: w,
                events: vec![
                    Event::Assigned {
                        worker: w,
                        task: TaskId(90),
                        acc: 0.875,
                        gain: 0.5625,
                    },
                    Event::TaskCompleted {
                        task: TaskId(90),
                        latency: 1 << 40,
                    },
                ],
            }),
            with_sid(
                encode_event(&StreamEvent::Worker {
                    worker: w,
                    events: vec![
                        Event::Assigned {
                            worker: w,
                            task: TaskId(3),
                            acc: 0.75,
                            gain: 0.25,
                        },
                        Event::WorkerIdle { worker: w },
                    ],
                }),
                "sess-9",
            ),
            with_sid(
                encode_event(&StreamEvent::Worker {
                    worker: w,
                    events: vec![Event::WorkerIdle { worker: w }],
                }),
                "default",
            ),
            encode_event(&StreamEvent::TaskPosted { task: TaskId(12) }),
            with_sid(
                encode_event(&StreamEvent::TaskPosted { task: TaskId(12) }),
                "sess-9",
            ),
            with_sid(
                Request::Post {
                    task: Task::new(Point::new(-3.5, 99.0)),
                    row: None,
                    seq: Some(1 << 33),
                }
                .encode(),
                "sess-9",
            ),
            with_sid(
                Response::Post {
                    task: TaskId(12),
                    seq: Some(1 << 33),
                }
                .encode(),
                "sess-9",
            ),
        ];
        let mut rng = XorShift(0x1CDE_2018_0000_0002);
        for frame in &corpus {
            for cut in 0..frame.len() {
                exercise_decoders(&frame[..cut]);
                if cut > 0 {
                    let mut truncated = io::Cursor::new(frame.as_bytes()[..cut].to_vec());
                    let err = read_frame(&mut truncated)
                        .expect_err("a frame cut before its delimiter must error");
                    assert!(err.to_string().contains("mid-frame"), "{err}");
                }
            }
            for _ in 0..256 {
                let mut bytes = frame.clone().into_bytes();
                let at = (rng.next() as usize) % bytes.len();
                bytes[at] = (rng.next() >> 32) as u8;
                exercise_decoders(&String::from_utf8_lossy(&bytes));
            }
        }
        // A second spray replaces with bytes that keep a mutated frame
        // close to a valid one, so the fast paths meet near-misses, not
        // just garbage.
        const NEAR: &[u8] = b"0123456789abcdefABCDEF+-\",:{}[] ";
        let mut rng = XorShift(0x1CDE_2018_0000_0003);
        for frame in &corpus {
            for _ in 0..256 {
                let mut bytes = frame.clone().into_bytes();
                let at = (rng.next() as usize) % bytes.len();
                bytes[at] = NEAR[(rng.next() as usize) % NEAR.len()];
                exercise_decoders(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"));
            }
        }
    }

    #[test]
    fn hostile_sids_and_seqs_are_refused() {
        // Malformed session ids: wrong type, empty, over-long, or
        // containing bytes outside the sid alphabet — all refused by the
        // sid layer before any verb dispatch.
        let long = format!("{{\"op\":\"drain\",\"sid\":\"{}\"}}", "a".repeat(65));
        for frame in [
            "{\"op\":\"drain\",\"sid\":5}",
            "{\"op\":\"drain\",\"sid\":\"\"}",
            "{\"op\":\"drain\",\"sid\":\"no spaces\"}",
            "{\"op\":\"drain\",\"sid\":\"semi;colon\"}",
            "{\"op\":\"attach\"}",
            long.as_str(),
        ] {
            assert!(Request::decode_with_sid(frame).is_err(), "accepted {frame}");
        }
        // Hostile `"seq"` members: anything but a JSON unsigned integer
        // is refused on both directions of the wire (a float, string, or
        // negative seq could silently desynchronize a window).
        for seq in ["-1", "1.5", "\"7\"", "null", "18446744073709551616"] {
            let request = format!(
                "{{\"op\":\"submit\",\"x\":\"{x}\",\"y\":\"{x}\",\"acc\":\"{x}\",\"seq\":{seq}}}",
                x = hex(1.0)
            );
            assert!(
                Request::decode_with_sid(&request).is_err(),
                "accepted {request}"
            );
            let response = format!("{{\"ok\":\"submit\",\"worker\":3,\"seq\":{seq}}}");
            assert!(Response::decode(&response).is_err(), "accepted {response}");
        }
        // The window advertisement is equally guarded: present but
        // malformed is a refused hello, not a silent lockstep fallback.
        let info = SessionInfo {
            algorithm: Algorithm::Laf,
            params: ProblemParams::builder().build().unwrap(),
            n_shards: 1,
            n_tasks: 0,
        };
        let hello = Response::Hello {
            info,
            win: MAX_WINDOW,
        }
        .encode();
        assert!(matches!(
            Response::decode(&hello).unwrap(),
            Response::Hello { win, .. } if win == MAX_WINDOW
        ));
        let garbled = hello.replace(&format!("\"win\":{MAX_WINDOW}"), "\"win\":\"lots\"");
        assert_ne!(garbled, hello);
        let err = Response::decode(&garbled).expect_err("a non-integer `win` must be refused");
        assert!(err.contains("win"), "{err}");
    }
}
