//! Durability for LTC sessions: a write-ahead event log, periodic
//! checkpoints, and bit-exact crash recovery.
//!
//! The engine underneath [`ServiceHandle`] is deterministic: the same
//! submission sequence always produces the same assignments, the same
//! event stream, and the same `ltc-snapshot v2` text. That determinism
//! is the whole durability story — nothing about the engine's *state*
//! has to reach disk on the hot path, only the *inputs*. This crate
//! packages that observation as three pieces:
//!
//! * [`wal`] — the `ltc-wal v2` append-only event log. Every
//!   state-changing session call (worker check-in, task post,
//!   rebalance) is appended as one NDJSON record *before* it is applied,
//!   with floats carried as bit patterns exactly like the `ltc-proto`
//!   wire format, and sealed with a CRC-32 of its own bytes. A
//!   configurable [`SyncPolicy`] decides how eagerly records reach the
//!   kernel and the platter: the eager policies survive `kill -9`
//!   record by record, while the default `Os` policy buffers between
//!   the session's quiesce points (drain, snapshot, checkpoint,
//!   shutdown) and keeps the hot path syscall-free.
//! * [`checkpoint`] — periodic snapshots taken at drained quiesce
//!   points, written atomically next to the log. A checkpoint covering
//!   sequence number `S` makes every log record below `S` dead weight,
//!   so the log rotates to a fresh segment at each checkpoint and fully
//!   covered segments are deleted. Checkpoints are the engine's own
//!   `ltc-snapshot v2` text.
//! * [`recover`](recover()) — restores the newest readable checkpoint,
//!   truncates a torn final record if the crash left one, and replays
//!   the surviving log suffix through the ordinary session API. The
//!   result is *byte-identical* (as snapshot text) to the state an
//!   uninterrupted run would hold after the same prefix of operations.
//!
//! [`DurableHandle`] ties the pieces together behind the
//! [`Session`](ltc_core::service::Session) trait, so the TCP server and
//! the CLI wrap durability around an in-process service without either
//! knowing it is there.
//!
//! [`ServiceHandle`]: ltc_core::service::ServiceHandle

pub mod checkpoint;
mod recovery;
mod session;
pub mod wal;

pub use recovery::{recover, Recovery};
pub use session::{DurableHandle, DurableOptions, ResumeReport, DEFAULT_CHECKPOINT_EVERY};
pub use wal::SyncPolicy;

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong while logging, checkpointing, or
/// recovering.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// A log segment or checkpoint exists but does not decode; carries
    /// the offending path and a description. Raised only for damage
    /// that recovery must *not* paper over (a torn final record is
    /// repaired silently, a corrupt interior record is not).
    Corrupt { path: PathBuf, what: String },
    /// The restored service itself rejected a replayed operation for a
    /// non-deterministic reason (runtime stopped, bad snapshot).
    Service(ltc_core::service::ServiceError),
    /// The directory holds no readable checkpoint to restore from.
    NoCheckpoint(PathBuf),
    /// A checkpoint is snapshot text of a format version this build does
    /// not read (carries the path and the file's header line). Unlike a
    /// damaged checkpoint it is not skipped: recovery stops, and touches
    /// nothing.
    UnsupportedCheckpoint { path: PathBuf, header: String },
    /// [`DurableHandle::create`] refused a directory that already holds
    /// a log; resume it instead of silently clobbering history.
    AlreadyInitialized(PathBuf),
    /// [`DurableHandle::resume`] (or [`recover`](recover())) was
    /// pointed at a directory with no log in it.
    NotInitialized(PathBuf),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability i/o error: {e}"),
            DurableError::Corrupt { path, what } => {
                write!(f, "corrupt durable state in {}: {what}", path.display())
            }
            DurableError::Service(e) => write!(f, "replay rejected: {e}"),
            DurableError::NoCheckpoint(dir) => {
                write!(f, "no readable checkpoint in {}", dir.display())
            }
            DurableError::UnsupportedCheckpoint { path, header } => write!(
                f,
                "checkpoint {} is `{header}` text, and this build reads only `{}`: \
                 recover the directory with the build that wrote it",
                path.display(),
                ltc_core::snapshot::SNAPSHOT_HEADER
            ),
            DurableError::AlreadyInitialized(dir) => write!(
                f,
                "{} already holds a write-ahead log; resume it instead of creating over it",
                dir.display()
            ),
            DurableError::NotInitialized(dir) => {
                write!(f, "{} holds no write-ahead log", dir.display())
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<ltc_core::service::ServiceError> for DurableError {
    fn from(e: ltc_core::service::ServiceError) -> Self {
        DurableError::Service(e)
    }
}
