//! `ltc-proto` — the wire protocol that lifts the
//! [`Session`](ltc_core::service::Session) API onto a transport, so
//! requesters and workers can be remote processes instead of linking
//! `ltc_core`. It speaks one dialect, `v2` (a session namespace); a
//! hello asking for any other version is refused by name.
//!
//! Four layers, bottom up:
//!
//! * [`json`] — a minimal, hostile-input-safe JSON reader/writer (the
//!   offline build has no serde; numbers stay text so 64-bit ids never
//!   pass through `f64`).
//! * [`wire`] — the versioned message vocabulary and NDJSON framing:
//!   one JSON object per `\n`-delimited frame (size-capped), a
//!   `{"proto":"ltc-proto","v":N}` handshake, [`wire::Request`] /
//!   [`wire::Response`] / event frames, every `f64` as its IEEE-754 bit
//!   pattern so remote observations are **bit-identical** to local
//!   ones. Frames carry a trailing `"sid"` member naming their session.
//!   `submit`/`post` frames may additionally carry a `"seq"`
//!   member for **windowed** submission — up to a negotiated W frames
//!   in flight before the client awaits an acknowledgement, FIFO-
//!   matched by the echoed `"seq"`, with back-pressure surfacing as
//!   window stalls (never reordering) and output byte-identical to
//!   lockstep at any W.
//! * [`session_table`] — the server-side registry of named sessions:
//!   a fixed default session, a [`SessionFactory`] that `open` spawns
//!   fresh services through, per-session lifecycle (spawn → serve →
//!   quiesce → evict) with capacity and idle-timeout policies.
//! * [`server`] / [`client`] — [`LtcServer`] multiplexes N concurrent
//!   TCP clients onto a [`SessionTable`] (global submission order *per
//!   session* = connection-interleaved arrival order, decided by one
//!   mutex per session), and [`LtcClient`] implements the same
//!   [`Session`](ltc_core::service::Session) trait remotely — one code
//!   path drives in-process and remote runs, checked against the bare
//!   engine (the root package's `tests/conform/`, and the CLI),
//!   with the session verbs ([`LtcClient::open_session`] /
//!   `attach_session` / `close_session` / `list_sessions`) on top.
//!
//! The CLI front-ends: `ltc serve --addr … --shards …
//! [--max-sessions N [--idle-timeout SECS]]` runs the server,
//! `ltc stream --connect HOST:PORT [--session NAME] [--pipeline D]`
//! drives one of its sessions (windowed past `--pipeline 1`),
//! `ltc sessions --connect HOST:PORT` lists them.
//! `docs/PROTOCOL.md` has the full grammar, ordering/back-pressure
//! semantics, and the compatibility policy.
//!
//! ```no_run
//! use ltc_core::model::{ProblemParams, Task, Worker};
//! use ltc_core::service::{ServiceBuilder, Session};
//! use ltc_proto::{LtcClient, LtcServer};
//! use ltc_spatial::{BoundingBox, Point};
//!
//! // Server side (usually `ltc serve`):
//! let params = ProblemParams::builder().epsilon(0.3).build().unwrap();
//! let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
//! let handle = ServiceBuilder::new(params, region).start().unwrap();
//! let server = LtcServer::bind("127.0.0.1:0", handle).unwrap().spawn().unwrap();
//!
//! // Client side (any process):
//! let mut session = LtcClient::connect_v2(server.addr()).unwrap();
//! let events = session.subscribe().unwrap();
//! session.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
//! session.submit_worker(&Worker::new(Point::new(10.5, 10.0), 0.95)).unwrap();
//! session.drain().unwrap();
//! assert!(events.try_recv().is_some());
//! session.shutdown().unwrap(); // ends the served session
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod server;
pub mod session_table;
pub mod wire;

pub use client::LtcClient;
pub use server::{LtcServer, RunningServer};
pub use session_table::{SessionConfig, SessionEntry, SessionFactory, SessionTable};
