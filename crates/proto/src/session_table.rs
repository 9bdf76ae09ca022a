//! The server-side session registry: named, independently-lived
//! sessions behind one `ltc serve` process.
//!
//! A [`SessionTable`] owns every session the server hosts. Each entry
//! is its own [`Session`] behind its own mutex — sessions never
//! serialize against each other, and *within* one session the lock
//! order is still the global submission order (the `v1` ordering
//! contract, now per session). The table always holds the
//! **default session** (the one `v1` clients bind through the version
//! handshake and fresh `v2` connections start on); additional sessions
//! come and go through the `v2` `open`/`close` verbs or the idle
//! reaper.
//!
//! ## Lifecycle
//!
//! ```text
//! open → serve → quiesce → evict
//! ```
//!
//! `open` builds a new session from the table's **factory** (the
//! server template, with optional per-session algorithm/shard/region
//! overrides) and registers it under its name. Eviction — an explicit
//! `close`, or the idle policy firing — removes the entry from the
//! registry first (so no new connection can bind it), then announces
//! [`Lifecycle::SessionEvicted`] to its subscribers, and shuts the
//! session down (which drains, delivers the final
//! `Lifecycle::ShuttingDown`, and stops its runtime threads). The
//! default session is immune: it is closed only by server `shutdown`.
//!
//! ## Idle policy
//!
//! A session with **zero bound connections** whose last activity is
//! older than the configured idle timeout is evicted by
//! [`SessionTable::evict_idle`] (the server runs it periodically).
//! Sessions with live bindings never expire, however quiet.

use crate::wire;
use ltc_core::service::{Algorithm, Lifecycle, ServiceError, Session};
use ltc_spatial::BoundingBox;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The boxed session a table entry serves — any [`Session`]
/// implementation: the in-process
/// [`ServiceHandle`](ltc_core::service::ServiceHandle), or a wrapper
/// (durability, instrumentation) layered over it.
pub type BoxedSession = Box<dyn Session + Send>;

/// What a `v2` `open` may override relative to the server's template.
/// `None` everywhere reproduces the default session's configuration
/// (fresh state, same knobs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionConfig {
    /// Policy override (a random policy's seed rides inside
    /// [`Algorithm::Random`]).
    pub algorithm: Option<Algorithm>,
    /// Shard-count override.
    pub shards: Option<usize>,
    /// Service-region override.
    pub region: Option<BoundingBox>,
}

/// Builds a fresh session for a `v2` `open` — the server template,
/// parameterized by the request's [`SessionConfig`].
pub type SessionFactory =
    Box<dyn Fn(&SessionConfig) -> Result<BoxedSession, ServiceError> + Send + Sync>;

type EvictHook = Box<dyn Fn(&str) + Send + Sync>;

fn lock_recovering<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn refuse(what: impl Into<String>) -> ServiceError {
    ServiceError::Session(what.into())
}

/// One named session in the table. Connections hold an
/// `Arc<SessionEntry>` as their binding; the entry outlives its
/// registry slot, so a connection never dangles across an eviction —
/// it just starts seeing `RuntimeStopped` errors from the shut-down
/// session.
pub struct SessionEntry {
    name: String,
    session: Mutex<BoxedSession>,
    /// Connections currently bound to this session.
    attached: AtomicU64,
    /// Set the moment eviction begins; forwarders drain and exit on it.
    closed: AtomicBool,
    /// Last bind, unbind, or locked request — the idle clock.
    last_used: Mutex<Instant>,
}

impl SessionEntry {
    fn new(name: String, session: BoxedSession) -> Arc<Self> {
        Arc::new(Self {
            name,
            session: Mutex::new(session),
            attached: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            // ltc-lint: allow(L006) idle-eviction clock: wall-time by contract (idle_timeout is a real-time bound, never replayed)
            last_used: Mutex::new(Instant::now()),
        })
    }

    /// The session's id.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Locks the session for one request, stamping the idle clock. The
    /// lock *is* this session's global submission order; poisoning is
    /// recovered so one panicked connection cannot wedge the rest.
    pub fn lock(&self) -> MutexGuard<'_, BoxedSession> {
        *lock_recovering(&self.last_used) = Instant::now(); // ltc-lint: allow(L006) idle-eviction clock stamp, not decision input
        lock_recovering(&self.session)
    }

    /// Whether eviction has begun (event forwarders drain and exit).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Whether a holder of the session lock panicked (test support:
    /// [`lock`](SessionEntry::lock) itself recovers).
    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.session.is_poisoned()
    }

    /// Records one more bound connection.
    pub fn bind(&self) {
        self.attached.fetch_add(1, Ordering::SeqCst);
        *lock_recovering(&self.last_used) = Instant::now(); // ltc-lint: allow(L006) idle-eviction clock stamp, not decision input
    }

    /// Records a departed connection (restarting the idle clock).
    pub fn unbind(&self) {
        self.attached.fetch_sub(1, Ordering::SeqCst);
        *lock_recovering(&self.last_used) = Instant::now(); // ltc-lint: allow(L006) idle-eviction clock stamp, not decision input
    }

    fn idle_for(&self) -> (u64, Duration) {
        let attached = self.attached.load(Ordering::SeqCst);
        let idle = lock_recovering(&self.last_used).elapsed();
        (attached, idle)
    }

    /// Quiesce and stop: drain, announce the eviction to subscribers,
    /// then shut the session down (drain → `ShuttingDown` → threads
    /// join). The explicit drain *before* the announcement makes the
    /// eviction boundary deterministic for subscribers: every
    /// submission that won the session lock ahead of this eviction has
    /// fully applied and its events are already ordered ahead of
    /// `SessionEvicted`; everything after the lock is refused whole —
    /// a racing submission is never half-visible.
    fn evict(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut session = lock_recovering(&self.session);
        session.drain().ok();
        session.announce_lifecycle(Lifecycle::SessionEvicted);
        session.shutdown().ok();
    }
}

/// The registry of named sessions one server process hosts. See the
/// module docs for the lifecycle; see `LtcServer::bind_table` for
/// serving one.
pub struct SessionTable {
    entries: Mutex<BTreeMap<String, Arc<SessionEntry>>>,
    factory: Option<SessionFactory>,
    max_sessions: usize,
    idle_timeout: Option<Duration>,
    evicted: AtomicU64,
    evict_hook: Option<EvictHook>,
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("sessions_open", &self.open_count())
            .field("sessions_evicted", &self.evicted_count())
            .field("max_sessions", &self.max_sessions)
            .field("idle_timeout", &self.idle_timeout)
            .finish_non_exhaustive()
    }
}

impl SessionTable {
    /// A fixed single-session table: just the default session, no
    /// factory — `open` is refused. This is what `LtcServer::bind`
    /// wraps a bare session in, preserving the `v1` serving model.
    pub fn single(default: impl Session + Send + 'static) -> Self {
        Self {
            entries: Mutex::new(BTreeMap::from([(
                wire::DEFAULT_SESSION.to_string(),
                SessionEntry::new(wire::DEFAULT_SESSION.to_string(), Box::new(default)),
            )])),
            factory: None,
            max_sessions: 1,
            idle_timeout: None,
            evicted: AtomicU64::new(0),
            evict_hook: None,
        }
    }

    /// A dynamic table: the default session plus up to
    /// `max_sessions - 1` factory-built ones (`max_sessions` counts the
    /// default; it is clamped to at least 1). `idle_timeout = None`
    /// disables the idle policy.
    pub fn with_factory(
        default: impl Session + Send + 'static,
        factory: SessionFactory,
        max_sessions: usize,
        idle_timeout: Option<Duration>,
    ) -> Self {
        Self {
            factory: Some(factory),
            max_sessions: max_sessions.max(1),
            idle_timeout,
            ..Self::single(default)
        }
    }

    /// Registers a hook observing every eviction (explicit `close` and
    /// idle expiry alike) with the evicted session's name — the CLI
    /// announces them as serve-banner NDJSON lines.
    pub fn on_evict(mut self, hook: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.evict_hook = Some(Box::new(hook));
        self
    }

    /// The configured idle timeout (the server sizes its reaper's poll
    /// from it).
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// The session a `v1` hello (or a fresh `v2` connection) binds.
    pub fn default_entry(&self) -> Arc<SessionEntry> {
        Arc::clone(
            lock_recovering(&self.entries)
                .get(wire::DEFAULT_SESSION)
                .expect("the default session is never removed"),
        )
    }

    /// Looks up a live session by name (`attach`).
    pub fn get(&self, name: &str) -> Result<Arc<SessionEntry>, ServiceError> {
        lock_recovering(&self.entries)
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| refuse(format!("no session `{name}`")))
    }

    /// Creates a named session through the factory (`open`). Refused
    /// when the name is taken or illegal, the table is full, or the
    /// server hosts a fixed session set.
    pub fn open(
        &self,
        name: &str,
        config: &SessionConfig,
    ) -> Result<Arc<SessionEntry>, ServiceError> {
        if !wire::valid_session_name(name) {
            return Err(refuse(format!("illegal session id `{name}`")));
        }
        let factory = self
            .factory
            .as_ref()
            .ok_or_else(|| refuse("this server hosts a fixed session set"))?;
        let mut entries = lock_recovering(&self.entries);
        if entries.contains_key(name) {
            return Err(refuse(format!("session `{name}` already exists")));
        }
        if entries.len() >= self.max_sessions {
            return Err(refuse(format!(
                "session capacity reached ({} of {})",
                entries.len(),
                self.max_sessions
            )));
        }
        let entry = SessionEntry::new(name.to_string(), factory(config)?);
        entries.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Evicts a named session (`close`): unregisters it, announces
    /// [`Lifecycle::SessionEvicted`] to its subscribers, and shuts it
    /// down. The default session is protected (server `shutdown` is the
    /// way to end it).
    pub fn close(&self, name: &str) -> Result<(), ServiceError> {
        if name == wire::DEFAULT_SESSION {
            return Err(refuse(
                "the default session cannot be closed (shutdown ends the server)",
            ));
        }
        let entry = lock_recovering(&self.entries)
            .remove(name)
            .ok_or_else(|| refuse(format!("no session `{name}`")))?;
        self.finish_eviction(&entry);
        Ok(())
    }

    /// Applies the idle policy once: every non-default session with no
    /// bound connections that has been idle past the timeout is
    /// evicted. Returns the evicted names (already announced through
    /// the hook). A no-op without a configured timeout.
    pub fn evict_idle(&self) -> Vec<String> {
        let Some(timeout) = self.idle_timeout else {
            return Vec::new();
        };
        let expired: Vec<Arc<SessionEntry>> = {
            let entries = lock_recovering(&self.entries);
            entries
                .values()
                .filter(|e| {
                    if e.name() == wire::DEFAULT_SESSION {
                        return false;
                    }
                    let (attached, idle) = e.idle_for();
                    attached == 0 && idle >= timeout
                })
                .map(Arc::clone)
                .collect()
        };
        let mut names = Vec::with_capacity(expired.len());
        for entry in expired {
            // Re-check under the registry lock: a connection may have
            // bound (or a close raced) since the scan.
            let still_idle = {
                let mut entries = lock_recovering(&self.entries);
                let (attached, idle) = entry.idle_for();
                if attached == 0 && idle >= timeout && entries.contains_key(entry.name()) {
                    entries.remove(entry.name());
                    true
                } else {
                    false
                }
            };
            if still_idle {
                self.finish_eviction(&entry);
                names.push(entry.name().to_string());
            }
        }
        names
    }

    fn finish_eviction(&self, entry: &SessionEntry) {
        entry.evict();
        self.evicted.fetch_add(1, Ordering::SeqCst);
        if let Some(hook) = &self.evict_hook {
            hook(entry.name());
        }
    }

    /// Live sessions right now (the default included).
    pub fn open_count(&self) -> u64 {
        lock_recovering(&self.entries).len() as u64
    }

    /// Sessions evicted over the server's lifetime (closes + idle
    /// expiries; server shutdown is not an eviction).
    pub fn evicted_count(&self) -> u64 {
        self.evicted.load(Ordering::SeqCst)
    }

    /// One [`wire::SessionStat`] per live session, in name order (the
    /// `sessions` admin verb). Briefly locks each session for its
    /// description.
    pub fn list(&self) -> Vec<wire::SessionStat> {
        let entries: Vec<Arc<SessionEntry>> = lock_recovering(&self.entries)
            .values()
            .map(Arc::clone)
            .collect();
        entries
            .iter()
            .map(|e| {
                let info = e.lock().info();
                wire::SessionStat {
                    sid: e.name().to_string(),
                    algorithm: info.algorithm,
                    n_shards: info.n_shards,
                    n_tasks: info.n_tasks,
                    attached: e.attached.load(Ordering::SeqCst),
                }
            })
            .collect()
    }

    /// Shuts every session down (server `shutdown` / stop). Sessions
    /// stay registered so late metrics requests still resolve their
    /// binding — they answer `RuntimeStopped` from the dead sessions.
    pub fn shutdown_all(&self) -> Result<(), ServiceError> {
        let entries: Vec<Arc<SessionEntry>> = lock_recovering(&self.entries)
            .values()
            .map(Arc::clone)
            .collect();
        let mut result = Ok(());
        for entry in entries {
            entry.closed.store(true, Ordering::SeqCst);
            let outcome = lock_recovering(&entry.session).shutdown();
            if result.is_ok() {
                result = outcome;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_core::model::ProblemParams;
    use ltc_core::service::ServiceBuilder;
    use ltc_spatial::{BoundingBox, Point};
    use std::num::NonZeroUsize;

    fn handle() -> ltc_core::service::ServiceHandle {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        ServiceBuilder::new(params, region).start().unwrap()
    }

    fn factory() -> SessionFactory {
        Box::new(|config: &SessionConfig| {
            let params = ProblemParams::builder()
                .epsilon(0.3)
                .capacity(1)
                .build()
                .unwrap();
            let region = config
                .region
                .unwrap_or_else(|| BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0)));
            let mut builder = ServiceBuilder::new(params, region);
            if let Some(algorithm) = config.algorithm {
                builder = builder.algorithm(algorithm);
            }
            if let Some(shards) = config.shards {
                let shards = NonZeroUsize::new(shards)
                    .ok_or(ServiceError::Session("shards must be positive".into()))?;
                builder = builder.shards(shards);
            }
            Ok(Box::new(builder.start()?) as BoxedSession)
        })
    }

    #[test]
    fn fixed_tables_refuse_session_verbs_and_protect_the_default() {
        let table = SessionTable::single(handle());
        assert_eq!(table.open_count(), 1);
        assert!(matches!(
            table.open("extra", &SessionConfig::default()),
            Err(ServiceError::Session(_))
        ));
        assert!(matches!(
            table.close(wire::DEFAULT_SESSION),
            Err(ServiceError::Session(_))
        ));
        assert!(matches!(table.get("nope"), Err(ServiceError::Session(_))));
        table.shutdown_all().unwrap();
    }

    #[test]
    fn open_close_lifecycle_counts_and_caps() {
        let table = SessionTable::with_factory(handle(), factory(), 3, None);
        let a = table.open("a", &SessionConfig::default()).unwrap();
        table
            .open(
                "b",
                &SessionConfig {
                    shards: Some(2),
                    ..SessionConfig::default()
                },
            )
            .unwrap();
        assert_eq!(table.open_count(), 3);
        // Full: the default counts against the cap.
        assert!(table.open("c", &SessionConfig::default()).is_err());
        // Duplicate and illegal names are refused.
        assert!(table.open("a", &SessionConfig::default()).is_err());
        assert!(table.open("a b", &SessionConfig::default()).is_err());

        // Close announces the eviction to subscribers, then ends the
        // stream.
        let events = a.lock().subscribe().unwrap();
        table.close("a").unwrap();
        let seen: Vec<_> = events.collect();
        assert!(seen.contains(&ltc_core::service::StreamEvent::Lifecycle(
            Lifecycle::SessionEvicted
        )));
        assert_eq!(
            seen.last(),
            Some(&ltc_core::service::StreamEvent::Lifecycle(
                Lifecycle::ShuttingDown
            ))
        );
        assert!(a.is_closed());
        assert_eq!(table.open_count(), 2);
        assert_eq!(table.evicted_count(), 1);
        assert!(table.close("a").is_err(), "already gone");

        // The slot is reusable.
        table.open("c", &SessionConfig::default()).unwrap();
        let stats = table.list();
        assert_eq!(
            stats.iter().map(|s| s.sid.as_str()).collect::<Vec<_>>(),
            vec!["b", "c", wire::DEFAULT_SESSION]
        );
        assert_eq!(stats[0].n_shards, 2);
        table.shutdown_all().unwrap();
    }

    #[test]
    fn idle_policy_spares_bound_and_fresh_sessions() {
        let evicted_log = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&evicted_log);
        let table =
            SessionTable::with_factory(handle(), factory(), 8, Some(Duration::from_millis(0)))
                .on_evict(move |name| log.lock().unwrap().push(name.to_string()));
        let bound = table.open("bound", &SessionConfig::default()).unwrap();
        bound.bind();
        table.open("idle", &SessionConfig::default()).unwrap();
        let evicted = table.evict_idle();
        assert_eq!(evicted, vec!["idle".to_string()]);
        assert_eq!(*evicted_log.lock().unwrap(), vec!["idle".to_string()]);
        assert_eq!(table.open_count(), 2, "default + bound survive");
        bound.unbind();
        assert_eq!(table.evict_idle(), vec!["bound".to_string()]);
        assert_eq!(table.evicted_count(), 2);
        table.shutdown_all().unwrap();
    }
}
