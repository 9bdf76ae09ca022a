//! Loopback tests for the `ltc-proto` transport (the `v2` session
//! namespace, and `v1` frames at the edge). That one client's session,
//! lockstep or windowed, is event for event and bit for bit what the
//! bare engine decides is checked by the conformance harness
//! (`tests/conform/` in the root package). Here: concurrent
//! clients must equal a replay of their interleaving, sessions
//! co-hosted on one table must be bit-identical to dedicated servers,
//! `v1` clients must see byte-identical frames against either, and
//! wedged servers, hostile frames, mid-frame drops and shutdown must end
//! cleanly.
//!
//! CI runs this file in the timeout-guarded job: a wedged connection or
//! a deadlocked quiesce must fail loudly, never hang the build.

use ltc_core::model::{ProblemParams, Task, Worker, WorkerId};
use ltc_core::service::{
    Algorithm, Lifecycle, ServiceBuilder, ServiceError, ServiceHandle, Session, StreamEvent,
    WindowAck,
};
use ltc_proto::wire;
use ltc_proto::{LtcClient, LtcServer, SessionConfig, SessionFactory, SessionTable};
use ltc_spatial::{BoundingBox, Point};
use std::io::BufReader;
use std::num::NonZeroUsize;
use std::time::Duration;

/// Per-event wait while collecting; far above any healthy delivery,
/// far below the CI job timeout.
const EVENT_TIMEOUT: Duration = Duration::from_secs(20);

fn params() -> ProblemParams {
    ProblemParams::builder()
        .epsilon(0.25)
        .capacity(2)
        .d_max(30.0)
        .build()
        .unwrap()
}

fn region() -> BoundingBox {
    BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
}

fn tasks() -> Vec<Task> {
    (0..24)
        .map(|i| {
            Task::new(Point::new(
                (i % 8) as f64 * 125.0 + 20.0,
                (i / 8) as f64 * 300.0,
            ))
        })
        .collect()
}

fn workers(n: usize, salt: u64) -> Vec<Worker> {
    (0..n)
        .map(|i| {
            let i = i as u64 + salt * 10_007;
            Worker::new(
                Point::new((i % 41) as f64 * 25.0, (i % 37) as f64 * 27.0),
                0.7 + 0.29 * ((i % 13) as f64 / 13.0),
            )
        })
        .collect()
}

fn handle(n_shards: usize, algorithm: Algorithm) -> ServiceHandle {
    ServiceBuilder::new(params(), region())
        .tasks(tasks())
        .shards(NonZeroUsize::new(n_shards).unwrap())
        .algorithm(algorithm)
        .start()
        .unwrap()
}

/// Drains `session`, then collects the ordered deliveries (worker
/// batches and task posts; advisory lifecycle notices dropped) up to the
/// drain marker covering `expect_workers` released check-ins.
fn collect_ordered(
    session: &mut dyn Session,
    events: &ltc_core::service::EventStream,
    expect_workers: u64,
) -> Vec<StreamEvent> {
    session.drain().unwrap();
    let mut out = Vec::new();
    loop {
        match events
            .recv_timeout(EVENT_TIMEOUT)
            .expect("event delivery timed out — transport wedged?")
        {
            StreamEvent::Lifecycle(Lifecycle::Drained { workers_seen })
                if workers_seen >= expect_workers =>
            {
                return out;
            }
            StreamEvent::Lifecycle(_) => {}
            ordered => out.push(ordered),
        }
    }
}

#[test]
fn two_concurrent_clients_equal_a_single_session_replay() {
    let server = LtcServer::bind("127.0.0.1:0", handle(4, Algorithm::Laf))
        .unwrap()
        .spawn()
        .unwrap();

    // The observer subscribes before any submission, so it sees the
    // complete interleaved history.
    let mut observer = LtcClient::connect_v2(server.addr()).unwrap();
    let events = observer.subscribe().unwrap();

    let submit = |salt: u64| {
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut client = LtcClient::connect_v2(addr).unwrap();
            let mut sent = Vec::new();
            for w in workers(150, salt) {
                let id = client.submit_worker(&w).unwrap();
                sent.push((id, w));
            }
            sent
        })
    };
    let a = submit(1);
    let b = submit(2);
    let mut order: Vec<(ltc_core::model::WorkerId, Worker)> = a.join().unwrap();
    order.extend(b.join().unwrap());
    order.sort_by_key(|&(id, _)| id);
    // The server allocated each arrival id exactly once, densely.
    assert_eq!(order.len(), 300);
    assert!(order
        .iter()
        .enumerate()
        .all(|(i, (id, _))| id.0 == i as u64));

    let observed = collect_ordered(&mut observer, &events, 300);

    // Replay the reconstructed interleaving through a fresh in-process
    // session: the concurrent run must match it event for event.
    let mut replay = handle(4, Algorithm::Laf);
    let replay_events = replay.subscribe().unwrap();
    for (_, w) in &order {
        Session::submit_worker(&mut replay, w).unwrap();
    }
    let expect = collect_ordered(&mut replay, &replay_events, 300);
    assert_eq!(
        observed, expect,
        "concurrent interleaving diverged from its replay"
    );

    observer.shutdown().unwrap();
    server.wait().unwrap();
    Session::shutdown(&mut replay).unwrap();
}

#[test]
fn remote_rebalance_and_metrics_round_trip() {
    let server = LtcServer::bind("127.0.0.1:0", handle(4, Algorithm::Laf))
        .unwrap()
        .spawn()
        .unwrap();
    let mut remote = LtcClient::connect_v2(server.addr()).unwrap();
    // Skew the pool: an out-of-region cluster on the right.
    for i in 0..16 {
        remote
            .post_task(Task::new(Point::new(4000.0 + i as f64 * 10.0, 500.0)))
            .unwrap();
    }
    let before = remote.metrics().unwrap();
    assert_eq!(before.n_tasks, 24 + 16);
    assert_eq!(before.clamped_insertions, 16);
    assert_eq!(before.shard_loads.len(), 4);

    let outcome = remote
        .rebalance()
        .unwrap()
        .expect("the far cluster skews the load");
    assert!(outcome.moved_tasks > 0);
    let after = remote.metrics().unwrap();
    assert_eq!(after.rebalances, 1);
    assert_eq!(
        after.clamped_insertions, before.clamped_insertions,
        "clamp telemetry must survive a remote rebalance"
    );
    // A rebalance with nothing further to move reports None.
    assert_eq!(remote.rebalance().unwrap(), None);

    remote.shutdown().unwrap();
    server.wait().unwrap();
}

#[test]
fn version_mismatch_is_refused_cleanly() {
    let server = LtcServer::bind("127.0.0.1:0", handle(1, Algorithm::Laf))
        .unwrap()
        .spawn()
        .unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    wire::write_frame(&mut conn, "{\"proto\":\"ltc-proto\",\"v\":99}").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let reply = wire::read_frame(&mut reader).unwrap().unwrap();
    match wire::Response::decode(&reply).unwrap() {
        wire::Response::Err { message } => {
            assert!(message.contains("version 99"), "{message}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    // The connection is closed after the refusal.
    assert_eq!(wire::read_frame(&mut reader).unwrap(), None);
    drop(reader);

    // A well-versed client still gets in afterwards.
    let mut ok = LtcClient::connect_v2(server.addr()).unwrap();
    ok.drain().unwrap();
    ok.shutdown().unwrap();
    server.wait().unwrap();
}

/// The factory a multi-session test server opens named sessions
/// through: same fixture parameters/tasks as [`handle`], with the open
/// request's overrides applied.
fn session_factory() -> SessionFactory {
    Box::new(|config: &SessionConfig| {
        let shards = NonZeroUsize::new(config.shards.unwrap_or(1))
            .ok_or_else(|| ServiceError::Session("shards must be positive".into()))?;
        let built = ServiceBuilder::new(params(), config.region.unwrap_or_else(region))
            .tasks(tasks())
            .shards(shards)
            .algorithm(config.algorithm.unwrap_or(Algorithm::Laf))
            .start()?;
        Ok(Box::new(built))
    })
}

#[test]
fn two_sessions_on_one_server_equal_two_dedicated_servers() {
    // The tentpole differential: two named sessions co-hosted on one
    // multi-session server, driven in lockstep with two dedicated
    // single-session servers, must be observationally identical — same
    // arrival ids, same event streams bit for bit, same metrics (modulo
    // the table-level session counters) — at 1 and 4 shards.
    for n_shards in [1usize, 4] {
        let table =
            SessionTable::with_factory(handle(1, Algorithm::Laf), session_factory(), 3, None);
        let shared = LtcServer::bind_table("127.0.0.1:0", table)
            .unwrap()
            .spawn()
            .unwrap();
        let dedicated_a = LtcServer::bind("127.0.0.1:0", handle(n_shards, Algorithm::Laf))
            .unwrap()
            .spawn()
            .unwrap();
        let dedicated_b = LtcServer::bind("127.0.0.1:0", handle(n_shards, Algorithm::Aam))
            .unwrap()
            .spawn()
            .unwrap();

        let config = |algorithm| SessionConfig {
            algorithm: Some(algorithm),
            shards: Some(n_shards),
            region: None,
        };
        let mut sess_a = LtcClient::connect_v2(shared.addr()).unwrap();
        sess_a.open_session("a", &config(Algorithm::Laf)).unwrap();
        let mut sess_b = LtcClient::connect_v2(shared.addr()).unwrap();
        sess_b.open_session("b", &config(Algorithm::Aam)).unwrap();
        let mut solo_a = LtcClient::connect_v2(dedicated_a.addr()).unwrap();
        let mut solo_b = LtcClient::connect_v2(dedicated_b.addr()).unwrap();
        assert_eq!(Session::info(&sess_a), Session::info(&solo_a));
        assert_eq!(Session::info(&sess_b), Session::info(&solo_b));

        let ev_a = sess_a.subscribe().unwrap();
        let ev_b = sess_b.subscribe().unwrap();
        let solo_ev_a = solo_a.subscribe().unwrap();
        let solo_ev_b = solo_b.subscribe().unwrap();

        // Interleave submissions across the co-hosted sessions so any
        // cross-session leakage would surface in both streams.
        let stream_a = workers(160, 7);
        let stream_b = workers(160, 8);
        for (wa, wb) in stream_a.iter().zip(&stream_b) {
            assert_eq!(
                sess_a.submit_worker(wa).unwrap(),
                solo_a.submit_worker(wa).unwrap()
            );
            assert_eq!(
                sess_b.submit_worker(wb).unwrap(),
                solo_b.submit_worker(wb).unwrap()
            );
        }
        let got_a = collect_ordered(&mut sess_a, &ev_a, 160);
        let got_b = collect_ordered(&mut sess_b, &ev_b, 160);
        assert_eq!(
            got_a,
            collect_ordered(&mut solo_a, &solo_ev_a, 160),
            "{n_shards} shards: co-hosted session `a` diverged"
        );
        assert_eq!(
            got_b,
            collect_ordered(&mut solo_b, &solo_ev_b, 160),
            "{n_shards} shards: co-hosted session `b` diverged"
        );

        // Metrics match too; the session counters are the one designed
        // difference (the co-hosting table carries three sessions).
        let mut shared_metrics = sess_a.metrics().unwrap();
        let solo_metrics = solo_a.metrics().unwrap();
        assert_eq!(shared_metrics.sessions_open, 3);
        assert_eq!(solo_metrics.sessions_open, 1);
        shared_metrics.sessions_open = solo_metrics.sessions_open;
        assert_eq!(shared_metrics, solo_metrics);

        sess_a.shutdown().unwrap();
        shared.wait().unwrap();
        solo_a.shutdown().unwrap();
        dedicated_a.wait().unwrap();
        solo_b.shutdown().unwrap();
        dedicated_b.wait().unwrap();
    }
}

#[test]
fn concurrent_clients_per_session_match_their_replays() {
    // Per-session replay equivalence under concurrency: two writers per
    // session, racing across two co-hosted sessions. Each session must
    // allocate its own dense arrival-id space, and each observer's
    // interleaved history must replay exactly on a fresh in-process
    // session.
    let table = SessionTable::with_factory(handle(4, Algorithm::Laf), session_factory(), 3, None);
    let server = LtcServer::bind_table("127.0.0.1:0", table)
        .unwrap()
        .spawn()
        .unwrap();

    let observe = |sid: &str| {
        let mut observer = LtcClient::connect_v2(server.addr()).unwrap();
        observer
            .open_session(
                sid,
                &SessionConfig {
                    shards: Some(4),
                    ..SessionConfig::default()
                },
            )
            .unwrap();
        let events = observer.subscribe().unwrap();
        (observer, events)
    };
    let (mut obs_a, ev_a) = observe("a");
    let (mut obs_b, ev_b) = observe("b");

    let submit = |sid: &'static str, salt: u64| {
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut client = LtcClient::connect_v2(addr).unwrap();
            client.attach_session(sid).unwrap();
            let mut sent = Vec::new();
            for w in workers(120, salt) {
                sent.push((client.submit_worker(&w).unwrap(), w));
            }
            sent
        })
    };
    let writers = [
        ("a", submit("a", 1)),
        ("b", submit("b", 2)),
        ("a", submit("a", 3)),
        ("b", submit("b", 4)),
    ];
    let mut order_a = Vec::new();
    let mut order_b = Vec::new();
    for (sid, writer) in writers {
        let sent = writer.join().unwrap();
        match sid {
            "a" => order_a.extend(sent),
            _ => order_b.extend(sent),
        }
    }
    for (sid, order, observer, events) in [
        ("a", &mut order_a, &mut obs_a, &ev_a),
        ("b", &mut order_b, &mut obs_b, &ev_b),
    ] {
        order.sort_by_key(|&(id, _)| id);
        // Dense per-session id spaces: isolation means neither session
        // sees the other's arrivals.
        assert_eq!(order.len(), 240, "session `{sid}`");
        assert!(
            order
                .iter()
                .enumerate()
                .all(|(i, (id, _))| id.0 == i as u64),
            "session `{sid}`: arrival ids not dense"
        );
        let observed = collect_ordered(&mut *observer, events, 240);
        let mut replay = handle(4, Algorithm::Laf);
        let replay_events = replay.subscribe().unwrap();
        for (_, w) in order.iter() {
            Session::submit_worker(&mut replay, w).unwrap();
        }
        let expect = collect_ordered(&mut replay, &replay_events, 240);
        assert_eq!(
            observed, expect,
            "session `{sid}`: concurrent interleaving diverged from its replay"
        );
        Session::shutdown(&mut replay).unwrap();
    }

    obs_a.shutdown().unwrap();
    server.wait().unwrap();
}

/// One raw frame-level connection: writes literal request frames and
/// reads the reply to each, setting aside any event frames that arrive
/// in between (their order against a response is not fixed).
struct RawConn {
    conn: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
    events: Vec<String>,
}

impl RawConn {
    fn open(addr: std::net::SocketAddr) -> Self {
        let conn = std::net::TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Self {
            conn,
            reader,
            events: Vec::new(),
        }
    }

    fn ask(&mut self, frame: &str) -> String {
        wire::write_frame(&mut self.conn, frame).unwrap();
        loop {
            let reply = wire::read_frame(&mut self.reader)
                .unwrap()
                .expect("a reply");
            if !wire::is_event_frame(&reply) {
                return reply;
            }
            self.events.push(reply);
        }
    }

    fn next_event(&mut self) -> String {
        if !self.events.is_empty() {
            return self.events.remove(0);
        }
        let event = wire::read_frame(&mut self.reader)
            .unwrap()
            .expect("an event");
        assert!(wire::is_event_frame(&event), "{event}");
        event
    }
}

#[test]
fn v1_clients_bind_the_default_session_with_unchanged_frames() {
    // Backward-compat regression: a whole raw v1 conversation — the
    // literal frames an external v1 client writes and reads — binds the
    // default session and gets byte-identical replies. No `sid` ever
    // rides a v1 frame, and `"sid"`, `"seq"` and the four v2 session
    // verbs are refused with a pointer at v2, changing nothing.
    let server = LtcServer::bind("127.0.0.1:0", handle(1, Algorithm::Laf))
        .unwrap()
        .spawn()
        .unwrap();
    let mut v1 = RawConn::open(server.addr());
    const PARAMS: &str = "\"params\":{\"epsilon\":\"3fd0000000000000\",\"capacity\":2,\
                          \"d_max\":\"403e000000000000\",\"min_accuracy\":\"3fe51eb851eb851f\",\
                          \"eligibility\":\"within\",\"quality\":\"hoeffding\"}";

    assert_eq!(
        v1.ask("{\"proto\":\"ltc-proto\",\"v\":1}"),
        format!(
            "{{\"proto\":\"ltc-proto\",\"v\":1,\"info\":{{\"algo\":\"laf\",\"shards\":1,\
             \"tasks\":24,{PARAMS}}}}}"
        )
    );

    // The state-touching verbs answer with the exact pre-session literals.
    let submit = "{\"op\":\"submit\",\"x\":\"4040000000000000\",\
                  \"y\":\"4040000000000000\",\"acc\":\"3fee666666666666\"}";
    assert_eq!(v1.ask(submit), "{\"ok\":\"submit\",\"worker\":0}");
    assert_eq!(
        v1.ask("{\"op\":\"post\",\"x\":\"4080000000000000\",\"y\":\"4080000000000000\"}"),
        "{\"ok\":\"post\",\"task\":24}"
    );
    assert_eq!(v1.ask("{\"op\":\"drain\"}"), "{\"ok\":\"drain\"}");

    // Session verbs, explicit sids and windowed `"seq"` are v2-only.
    let verbs = "{\"err\":\"session verbs require ltc-proto v2\"}";
    let sid = "{\"err\":\"`sid` requires ltc-proto v2\"}";
    let seq = "{\"err\":\"windowed submission (`seq`) requires ltc-proto v2\"}";
    for (refused, reply) in [
        ("{\"op\":\"open\",\"sid\":\"fresh\"}", verbs),
        ("{\"op\":\"attach\",\"sid\":\"default\"}", verbs),
        ("{\"op\":\"close\",\"sid\":\"fresh\"}", verbs),
        ("{\"op\":\"sessions\"}", verbs),
        ("{\"op\":\"drain\",\"sid\":\"default\"}", sid),
        (
            "{\"op\":\"submit\",\"x\":\"4040000000000000\",\"y\":\"4040000000000000\",\
             \"acc\":\"3fee666666666666\",\"seq\":0}",
            seq,
        ),
        (
            "{\"op\":\"post\",\"x\":\"4080000000000000\",\"y\":\"4080000000000000\",\"seq\":1}",
            seq,
        ),
    ] {
        assert_eq!(v1.ask(refused), reply, "{refused}");
    }

    // The refusals applied nothing: one worker, 24 + 1 tasks.
    assert_eq!(
        v1.ask("{\"op\":\"metrics\"}"),
        "{\"ok\":\"metrics\",\"workers\":1,\"assignments\":0,\"tasks\":25,\"completed\":0,\
         \"clamped\":0,\"rebalances\":0,\"loads\":[25],\"latency\":null,\"wal\":0,\
         \"checkpoints\":0,\"sessions_open\":1,\"sessions_evicted\":0}"
    );
    assert_eq!(
        v1.ask("{\"op\":\"rebalance\"}"),
        "{\"ok\":\"rebalance\",\"outcome\":null}"
    );
    let task_xy: String = (0..24)
        .map(|i| {
            let t = &tasks()[i];
            format!(" {} {}", wire::hex(t.loc.x), wire::hex(t.loc.y))
        })
        .collect();
    assert_eq!(
        v1.ask("{\"op\":\"snapshot\"}"),
        format!(
            "{{\"ok\":\"snapshot\",\"data\":\"ltc-snapshot v3\\n\
             params 3fd0000000000000 2 403e000000000000 3fe51eb851eb851f within hoeffding\\n\
             region 0000000000000000 0000000000000000 408f400000000000 408f400000000000\\n\
             config laf 403e000000000000 1024 1\\n\
             posted 25\\n\
             shard 0 25 index 403e000000000000 0000000000000000 0000000000000000 \
             408f400000000000 408f400000000000\\n\
             ids{}\\n\
             tasks{task_xy} 4080000000000000 4080000000000000\\n\
             quality{}\\n\
             accuracy sigmoid\\n\
             assigned 0\\n\
             end\\n\"}}",
            (0..25).map(|t| format!(" {t}")).collect::<String>(),
            " 0000000000000000".repeat(25),
        )
    );

    // Events reach a v1 subscriber in the v1 shape: the v2 frame for
    // the same event minus its session id.
    let mut v2 = RawConn::open(server.addr());
    v2.ask("{\"proto\":\"ltc-proto\",\"v\":2}");
    assert_eq!(
        v2.ask("{\"op\":\"subscribe\",\"sid\":\"default\"}"),
        "{\"ok\":\"subscribe\",\"sid\":\"default\"}"
    );
    assert_eq!(v1.ask("{\"op\":\"subscribe\"}"), "{\"ok\":\"subscribe\"}");
    let mut feeder = LtcClient::connect_v2(server.addr()).unwrap();
    feeder
        .submit_worker(&Worker::new(Point::new(20.0, 10.0), 0.95))
        .unwrap();
    let event = v1.next_event();
    assert_eq!(
        event,
        "{\"ev\":\"worker\",\"worker\":1,\"batch\":[{\"k\":\"assign\",\"task\":0,\
         \"acc\":\"3fee666665594805\",\"gain\":\"3fe9eb851aef7e27\"}]}"
    );
    assert_eq!(v2.next_event().replace(",\"sid\":\"default\"", ""), event);

    // `shutdown` is acknowledged; whatever farewell events make it out
    // before the socket closes are v1-shaped lifecycle frames.
    assert_eq!(v1.ask("{\"op\":\"shutdown\"}"), "{\"ok\":\"shutdown\"}");
    for event in &v1.events {
        assert!(
            [
                "{\"ev\":\"life\",\"kind\":\"drained\",\"workers\":2}",
                "{\"ev\":\"life\",\"kind\":\"bye\"}"
            ]
            .contains(&event.as_str()),
            "{event}"
        );
    }
    drop(feeder);
    server.wait().unwrap();
}

/// Unwraps a batch of window acks into worker arrival ids (these tests
/// submit only workers through the window).
fn worker_ids(acks: Vec<WindowAck>) -> Vec<WorkerId> {
    acks.into_iter()
        .map(|ack| match ack {
            WindowAck::Worker(id) => id,
            WindowAck::Task(id) => panic!("unexpected task ack {id:?}"),
        })
        .collect()
}

#[test]
fn windowed_concurrent_clients_equal_a_single_session_replay() {
    // The 2-client replay harness, windowed: two writers race deep
    // submission windows into one session; the acks reconstruct each
    // writer's arrival ids, and the merged interleaving must replay
    // exactly on a fresh in-process session.
    let server = LtcServer::bind("127.0.0.1:0", handle(4, Algorithm::Laf))
        .unwrap()
        .spawn()
        .unwrap();
    let mut observer = LtcClient::connect_v2(server.addr()).unwrap();
    let events = observer.subscribe().unwrap();

    let submit = |salt: u64, window: usize| {
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut client = LtcClient::connect_v2(addr).unwrap();
            assert_eq!(client.set_window(window).unwrap(), window);
            let submitted = workers(150, salt);
            let mut acks = Vec::new();
            for w in &submitted {
                if let Some(ack) = client.submit_worker_windowed(w).unwrap() {
                    acks.push(ack);
                }
            }
            acks.extend(client.flush_window().unwrap());
            worker_ids(acks)
                .into_iter()
                .zip(submitted)
                .collect::<Vec<_>>()
        })
    };
    let a = submit(1, 32);
    let b = submit(2, 256);
    let mut order = a.join().unwrap();
    order.extend(b.join().unwrap());
    order.sort_by_key(|&(id, _)| id);
    assert_eq!(order.len(), 300);
    assert!(order
        .iter()
        .enumerate()
        .all(|(i, (id, _))| id.0 == i as u64));

    let observed = collect_ordered(&mut observer, &events, 300);
    let mut replay = handle(4, Algorithm::Laf);
    let replay_events = replay.subscribe().unwrap();
    for (_, w) in &order {
        Session::submit_worker(&mut replay, w).unwrap();
    }
    let expect = collect_ordered(&mut replay, &replay_events, 300);
    assert_eq!(
        observed, expect,
        "windowed concurrent interleaving diverged from its replay"
    );

    observer.shutdown().unwrap();
    server.wait().unwrap();
    Session::shutdown(&mut replay).unwrap();
}

#[test]
fn eviction_racing_windowed_submissions_resolves_deterministically() {
    // Regression: a session evicted while a submission window is in
    // flight (the idle reaper and the v2 `close` verb share the same
    // eviction path — quiesce, announce, shut down) must resolve every
    // in-flight submission deterministically. The acked prefix fully
    // applies, its events ordered ahead of the `SessionEvicted` notice;
    // everything after the eviction is refused whole. No partial state,
    // no interleaving, no hang.
    let table = SessionTable::with_factory(
        handle(2, Algorithm::Laf),
        session_factory(),
        4,
        Some(Duration::from_secs(3600)),
    );
    let server = LtcServer::bind_table("127.0.0.1:0", table)
        .unwrap()
        .spawn()
        .unwrap();

    let config = SessionConfig {
        shards: Some(2),
        ..SessionConfig::default()
    };
    let mut submitter = LtcClient::connect_v2(server.addr())
        .unwrap()
        .with_timeout(Duration::from_secs(10));
    submitter.open_session("racy", &config).unwrap();
    assert_eq!(submitter.set_window(256).unwrap(), 256);

    let mut observer = LtcClient::connect_v2(server.addr()).unwrap();
    observer.attach_session("racy").unwrap();
    let events = observer.subscribe().unwrap();

    // The eviction races the submission stream from another connection.
    let closer = {
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut closer = LtcClient::connect_v2(addr).unwrap();
            std::thread::sleep(Duration::from_millis(15));
            closer.close_session("racy").unwrap();
        })
    };

    let stream = workers(2000, 9);
    let mut acked: Vec<WorkerId> = Vec::new();
    let mut refusals: usize = 0;
    for w in &stream {
        match submitter.submit_worker_windowed(w) {
            Ok(Some(ack)) => acked.extend(worker_ids(vec![ack])),
            Ok(None) => {}
            Err(_) => {
                refusals += 1;
                break;
            }
        }
    }
    // Per-submission outcomes for whatever is still in flight, oldest
    // first: the deterministic shape is all-acks-then-all-refusals.
    while let Some(outcome) = submitter.next_window_ack() {
        match outcome {
            Ok(ack) => {
                assert_eq!(
                    refusals, 0,
                    "a submission applied after an earlier one was refused"
                );
                acked.extend(worker_ids(vec![ack]));
            }
            Err(_) => refusals += 1,
        }
    }
    closer.join().unwrap();
    // The session is gone: one more submission must be refused (so the
    // test is never vacuous even if the close won the whole race).
    assert!(
        submitter.submit_worker(&stream[0]).is_err(),
        "the evicted session accepted a submission"
    );

    // The acked prefix is exactly the session's arrival-id space.
    assert!(
        acked.iter().enumerate().all(|(i, id)| id.0 == i as u64),
        "acked ids not a dense prefix: {acked:?}"
    );

    // The observer's stream: every acked worker's events, *then* the
    // eviction notice, then the farewell — nothing after, nothing
    // interleaved, nothing partial.
    let mut observed = Vec::new();
    while let Some(event) = events.recv_timeout(EVENT_TIMEOUT) {
        observed.push(event);
    }
    let evicted_at = observed
        .iter()
        .position(|e| *e == StreamEvent::Lifecycle(Lifecycle::SessionEvicted))
        .expect("subscribers must see the eviction");
    let ordered: Vec<&StreamEvent> = observed
        .iter()
        .filter(|e| !matches!(e, StreamEvent::Lifecycle(_)))
        .collect();
    assert!(
        observed[evicted_at..]
            .iter()
            .all(|e| matches!(e, StreamEvent::Lifecycle(_))),
        "ordered events after the eviction notice"
    );
    assert_eq!(
        ordered.len(),
        acked.len(),
        "delivered worker batches must match the acked prefix exactly"
    );

    // And the acked prefix replays bit-exactly in process: the eviction
    // cut the stream, never a submission in half.
    let mut replay = handle(2, Algorithm::Laf);
    let replay_events = replay.subscribe().unwrap();
    for w in &stream[..acked.len()] {
        Session::submit_worker(&mut replay, w).unwrap();
    }
    let expect = collect_ordered(&mut replay, &replay_events, acked.len() as u64);
    assert_eq!(
        ordered,
        expect.iter().collect::<Vec<_>>(),
        "the acked prefix diverged from its replay"
    );
    Session::shutdown(&mut replay).unwrap();

    let mut admin = LtcClient::connect_v2(server.addr()).unwrap();
    admin.shutdown().unwrap();
    server.wait().unwrap();
}

/// A hand-rolled server for hostile-transport tests: accepts one
/// connection, replies to the handshake with `hello`, then hands the
/// connection to `script`.
fn fake_server(
    hello: String,
    script: impl FnOnce(std::net::TcpStream, BufReader<std::net::TcpStream>) + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let join = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        wire::read_frame(&mut reader).unwrap().expect("a handshake");
        wire::write_frame(&mut conn, &hello).unwrap();
        script(conn, reader);
    });
    (addr, join)
}

fn fake_info() -> ltc_core::service::SessionInfo {
    ltc_core::service::SessionInfo {
        algorithm: Algorithm::Laf,
        params: params(),
        n_shards: 1,
        n_tasks: 0,
    }
}

#[test]
fn with_timeout_fails_a_wedged_server_in_seconds() {
    // Satellite fix: the response deadline is configurable, so a wedged
    // server fails a test suite in well under a second instead of the
    // default 90 s.
    let hello = wire::Response::Hello {
        info: fake_info(),
        win: 1,
    }
    .encode();
    let (addr, join) = fake_server(hello, |_conn, mut reader| {
        // Swallow every request, answer nothing, keep the socket open
        // until the client gives up and disconnects.
        while let Ok(Some(_)) = wire::read_frame(&mut reader) {}
    });
    let mut client = LtcClient::connect_v2(addr)
        .unwrap()
        .with_timeout(Duration::from_millis(250));
    let started = std::time::Instant::now();
    let err = client.drain().expect_err("a wedged server must time out");
    let waited = started.elapsed();
    assert!(
        err.to_string().contains("wedged"),
        "unexpected error: {err}"
    );
    assert!(
        waited >= Duration::from_millis(250) && waited < Duration::from_secs(10),
        "timed out after {waited:?}, configured 250ms"
    );
    drop(client);
    join.join().unwrap();
}

#[test]
fn a_v1_hello_reply_to_a_v2_hello_is_refused() {
    // The client speaks only v2: a server answering its hello in v1 is
    // a protocol violation, refused as a transport error at connect.
    let hello = wire::encode_hello_response_v1(&fake_info());
    let (addr, join) = fake_server(hello, |_conn, _reader| {});
    let err = LtcClient::connect_v2(addr).expect_err("a v1 reply must be refused");
    assert!(
        matches!(&err, ServiceError::Transport(what) if what.contains("v1")),
        "unexpected error: {err}"
    );
    join.join().unwrap();
}

#[test]
fn out_of_range_window_acks_fail_the_session_cleanly() {
    // Hostile-input satellite: a server echoing a `"seq"` that is not
    // the head of the in-flight window is a protocol corruption — the
    // client must fail the session (never reorder, never hang), and
    // later calls must fail fast instead of touching the broken wire.
    let hello = wire::Response::Hello {
        info: fake_info(),
        win: wire::MAX_WINDOW,
    }
    .encode();
    let (addr, join) = fake_server(hello, |mut conn, mut reader| {
        // Answer the first windowed submit with a shifted seq, then
        // drain the socket until the client leaves.
        if let Ok(Some(frame)) = wire::read_frame(&mut reader) {
            let seq = match wire::Request::decode_with_sid(&frame) {
                Ok((wire::Request::Submit { seq: Some(seq), .. }, _)) => seq,
                other => panic!("expected a windowed submit, got {other:?}"),
            };
            let lie = wire::Response::Submit {
                worker: WorkerId(0),
                seq: Some(seq + 7),
            }
            .encode();
            wire::write_frame(&mut conn, &lie).unwrap();
        }
        while let Ok(Some(_)) = wire::read_frame(&mut reader) {}
    });
    let mut client = LtcClient::connect_v2(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(5));
    assert_eq!(client.set_window(8).unwrap(), 8);
    let w = workers(1, 2)[0];
    assert_eq!(client.submit_worker_windowed(&w).unwrap(), None);
    let err = client
        .flush_window()
        .expect_err("a shifted seq must be refused");
    assert!(
        err.to_string().contains("window ack"),
        "unexpected error: {err}"
    );
    // The session is condemned: no hang, no retry against broken state.
    let started = std::time::Instant::now();
    assert!(client.submit_worker(&w).is_err());
    assert!(client.drain().is_err());
    assert!(started.elapsed() < Duration::from_secs(1), "must fail fast");
    drop(client);
    join.join().unwrap();
}

/// The windowed-flush tests' window, and how many submits they make
/// (ten full windows).
const FLUSH_WINDOW: u64 = 8;
const FLUSH_TOTAL: u64 = 10 * FLUSH_WINDOW;

/// A fake server script for the windowed-flush tests: reads
/// [`FLUSH_TOTAL`] windowed submits and acks them in groups — `first`
/// frames first, then a window at a time (the last group takes what is
/// left) — never answering a group before it has read all of it.
fn ack_in_groups(
    first: u64,
) -> impl FnOnce(std::net::TcpStream, BufReader<std::net::TcpStream>) + Send + 'static {
    move |mut conn, mut reader| {
        use std::io::Write as _;
        let mut read = 0;
        let mut group = first;
        while read < FLUSH_TOTAL {
            let mut acks = String::new();
            for _ in 0..group.min(FLUSH_TOTAL - read) {
                let frame = wire::read_frame(&mut reader)
                    .unwrap()
                    .expect("the client sends every frame it awaits");
                let seq = match wire::Request::decode_with_sid(&frame) {
                    Ok((wire::Request::Submit { seq: Some(seq), .. }, _)) => seq,
                    other => panic!("expected a windowed submit, got {other:?}"),
                };
                assert_eq!(seq, read, "frames arrive in order");
                let ack = wire::Response::Submit {
                    worker: WorkerId(seq),
                    seq: Some(seq),
                };
                acks.push_str(&ack.encode());
                acks.push('\n');
                read += 1;
            }
            conn.write_all(acks.as_bytes()).unwrap();
            group = FLUSH_WINDOW;
        }
        while let Ok(Some(_)) = wire::read_frame(&mut reader) {}
    }
}

/// Drives ten full windows of submits plus a final `flush_window`
/// against `script`: the client must put every frame it awaits on the
/// wire, so this finishes promptly with every `seq` verified — a frame
/// stranded in the send batch would show up as the 5 s timeout.
fn windowed_run_against(
    script: impl FnOnce(std::net::TcpStream, BufReader<std::net::TcpStream>) + Send + 'static,
) {
    let hello = wire::Response::Hello {
        info: fake_info(),
        win: wire::MAX_WINDOW,
    }
    .encode();
    let (addr, join) = fake_server(hello, script);
    let timeout = Duration::from_secs(5);
    let mut client = LtcClient::connect_v2(addr).unwrap().with_timeout(timeout);
    let window = FLUSH_WINDOW as usize;
    assert_eq!(client.set_window(window).unwrap(), window);
    let started = std::time::Instant::now();
    let mut acked = Vec::new();
    for w in workers(FLUSH_TOTAL as usize, 9) {
        if let Some(ack) = client.submit_worker_windowed(&w).unwrap() {
            acked.push(ack);
        }
    }
    acked.extend(client.flush_window().unwrap());
    assert!(
        started.elapsed() < timeout / 2,
        "took {:?}",
        started.elapsed()
    );
    assert_eq!(
        worker_ids(acked),
        (0..FLUSH_TOTAL).map(WorkerId).collect::<Vec<_>>()
    );
    drop(client);
    join.join().unwrap();
}

#[test]
fn a_windowed_client_flushes_before_awaiting_a_withheld_window() {
    // The server answers nothing until it has read a whole window.
    windowed_run_against(ack_in_groups(FLUSH_WINDOW));
}

#[test]
fn a_ready_ack_never_strands_the_send_batch() {
    // The first ack comes at once, later ones only per whole window
    // read: acks taken while already ready skip the flush, and a later
    // wait must then put the batched frames on the wire.
    windowed_run_against(ack_in_groups(1));
}

#[test]
fn mid_frame_connection_drop_is_a_clean_error() {
    // Hostile-input satellite: a connection torn down halfway through a
    // response frame surfaces as a clean transport error on the very
    // call that awaited it.
    let hello = wire::Response::Hello {
        info: fake_info(),
        win: 1,
    }
    .encode();
    let (addr, join) = fake_server(hello, |mut conn, mut reader| {
        wire::read_frame(&mut reader).unwrap();
        use std::io::Write as _;
        conn.write_all(b"{\"ok\":\"submit\",\"wor").unwrap();
        conn.flush().unwrap();
        conn.shutdown(std::net::Shutdown::Both).ok();
    });
    let mut client = LtcClient::connect_v2(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(5));
    let err = client
        .submit_worker(&workers(1, 3)[0])
        .expect_err("a torn frame must fail the call");
    assert!(
        err.to_string().contains("mid-frame"),
        "unexpected error: {err}"
    );
    drop(client);
    join.join().unwrap();
}

#[test]
fn shutdown_ends_the_session_for_every_client() {
    let server = LtcServer::bind("127.0.0.1:0", handle(2, Algorithm::Laf))
        .unwrap()
        .spawn()
        .unwrap();
    let mut a = LtcClient::connect_v2(server.addr()).unwrap();
    let mut b = LtcClient::connect_v2(server.addr()).unwrap();
    let b_events = b.subscribe().unwrap();
    a.submit_worker(&workers(1, 3)[0]).unwrap();
    a.shutdown().unwrap();
    server.wait().unwrap();

    // B's subscription delivers the farewell and then ends; B's next
    // request fails instead of hanging.
    let mut saw_bye = false;
    while let Some(event) = b_events.recv_timeout(EVENT_TIMEOUT) {
        if event == StreamEvent::Lifecycle(Lifecycle::ShuttingDown) {
            saw_bye = true;
        }
    }
    assert!(saw_bye, "subscribers must be told the session ended");
    assert!(b.drain().is_err());
}
