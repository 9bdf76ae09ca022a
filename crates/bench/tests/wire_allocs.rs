//! Allocation gates for `ltc-proto`'s per-check-in frames.
//!
//! A check-in crosses the wire as three frames: the `submit` (or
//! `post`) request, its acknowledgement, and the `worker` (or `task`)
//! event. Windowed or lockstep, each is encoded straight into a reused
//! buffer and decoded by an exact-layout scan from a reused read
//! buffer, so in steady state:
//!
//! * decoding a `worker` or `task` event frame into a warm
//!   [`EventBatch`] (the client reader's) allocates nothing;
//! * decoding a `submit` or `post`, or an acknowledgement, allocates
//!   nothing;
//! * encoding any of them into a warm buffer allocates nothing, events
//!   borrowed from an `EventBatch` (the server forwarder's) included.
//!
//! The counts are the per-thread allocation events of the
//! [`CountingAllocator`](ltc_bench::alloc), so they are exact under the
//! parallel test harness.

use ltc_bench::alloc::thread_alloc_count;
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{Event, EventBatch, EventRef, Lifecycle, StreamEvent};
use ltc_proto::wire::{self, Request, Response};
use ltc_spatial::Point;
use std::io::Cursor;

const SID: &str = "default";

/// A check-in's event: `assigns` assignments (every other one
/// completing its task), or an idle entry when there are none.
fn worker_event(id: u64, assigns: u32) -> StreamEvent {
    let worker = WorkerId(id);
    let mut events = Vec::new();
    for k in 0..assigns {
        let task = TaskId(1_000 + k);
        events.push(Event::Assigned {
            worker,
            task,
            acc: 0.5 + f64::from(k) / 64.0,
            gain: 0.25 / f64::from(k + 1),
        });
        if k % 2 == 1 {
            events.push(Event::TaskCompleted { task, latency: id });
        }
    }
    if events.is_empty() {
        events.push(Event::WorkerIdle { worker });
    }
    StreamEvent::Worker { worker, events }
}

fn submit(n: u64, seq: Option<u64>) -> Request {
    Request::Submit {
        worker: Worker::new(Point::new(12.5 + n as f64, 80.25), 0.9),
        seq,
    }
}

fn post(n: u64, seq: Option<u64>) -> Request {
    Request::Post {
        task: Task::new(Point::new(3.0, 4.0 + n as f64)),
        row: None,
        seq,
    }
}

fn windowed_submit(seq: u64) -> Request {
    submit(seq, Some(seq))
}

fn windowed_post(seq: u64) -> Request {
    post(seq, Some(seq))
}

/// `frames` as one byte stream, each with the session id and `\n`.
fn stream_of(frames: &[String]) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|f| format!("{}\n", wire::with_sid(f.clone(), SID)).into_bytes())
        .collect()
}

#[test]
fn decoding_event_frames_into_a_warm_batch_allocates_nothing() {
    let events: Vec<StreamEvent> = (0..64)
        .map(|i| match i % 4 {
            3 => StreamEvent::TaskPosted { task: TaskId(i) },
            _ => worker_event(u64::from(i) << 20, i % 7),
        })
        .collect();
    let bytes = stream_of(&events.iter().map(wire::encode_event).collect::<Vec<_>>());
    let mut line = Vec::new();
    let mut batch = EventBatch::new();
    // Warm-up pass: the read buffer reaches the longest frame's length,
    // and the batch the size of the whole run.
    let mut warm = Cursor::new(bytes.as_slice());
    while let Some(frame) = wire::read_frame_into(&mut warm, &mut line).unwrap() {
        wire::decode_event_into(frame, &mut batch).unwrap();
    }
    batch.clear();

    let mut reader = Cursor::new(bytes.as_slice());
    for _ in &events {
        let before = thread_alloc_count();
        let frame = wire::read_frame_into(&mut reader, &mut line)
            .unwrap()
            .expect("one frame per event");
        wire::decode_event_into(frame, &mut batch).unwrap();
        let allocs = thread_alloc_count() - before;
        assert_eq!(allocs, 0, "decoding {frame} allocated {allocs} time(s)");
    }
    let decoded: Vec<StreamEvent> = batch.iter().map(StreamEvent::from).collect();
    assert_eq!(decoded, events);
}

#[test]
fn decoding_requests_and_acks_allocates_nothing() {
    // Windowed frames, then the same kinds lockstep (no `seq`).
    let seq = |n: u64| (n < 32).then_some(n);
    let requests: Vec<Request> = (0..48)
        .map(|n| {
            if n % 6 == 5 {
                post(n, seq(n))
            } else {
                submit(n, seq(n))
            }
        })
        .collect();
    let acks: Vec<Response> = (0..48)
        .map(|n| {
            if n % 6 == 5 {
                Response::Post {
                    task: TaskId(n as u32),
                    seq: seq(n),
                }
            } else {
                Response::Submit {
                    worker: WorkerId(n << 30),
                    seq: seq(n),
                }
            }
        })
        .collect();
    let request_bytes = stream_of(&requests.iter().map(Request::encode).collect::<Vec<_>>());
    let ack_bytes = stream_of(&acks.iter().map(Response::encode).collect::<Vec<_>>());
    let mut line = Vec::new();
    for bytes in [&request_bytes, &ack_bytes] {
        let mut warm = Cursor::new(bytes.as_slice());
        while wire::read_frame_into(&mut warm, &mut line)
            .unwrap()
            .is_some()
        {}
    }

    let mut reader = Cursor::new(request_bytes.as_slice());
    for expected in &requests {
        let before = thread_alloc_count();
        let frame = wire::read_frame_into(&mut reader, &mut line)
            .unwrap()
            .expect("one frame per request");
        let (request, sid) = Request::decode(frame).unwrap();
        let allocs = thread_alloc_count() - before;
        assert_eq!(allocs, 0, "decoding {frame} allocated {allocs} time(s)");
        assert_eq!(&request, expected);
        assert_eq!(sid.as_deref(), Some(SID));
    }
    let mut reader = Cursor::new(ack_bytes.as_slice());
    for expected in &acks {
        let before = thread_alloc_count();
        let frame = wire::read_frame_into(&mut reader, &mut line)
            .unwrap()
            .expect("one frame per ack");
        let ack = Response::decode(frame).unwrap();
        let allocs = thread_alloc_count() - before;
        assert_eq!(allocs, 0, "decoding {frame} allocated {allocs} time(s)");
        assert_eq!(&ack, expected);
    }
}

#[test]
fn encoding_hot_frames_into_a_warm_batch_allocates_nothing() {
    let owned: Vec<StreamEvent> = (0..16)
        .map(|i| worker_event(i << 33, (i % 5) as u32))
        .chain([
            StreamEvent::TaskPosted {
                task: TaskId(u32::MAX),
            },
            StreamEvent::Lifecycle(Lifecycle::ShardStalled {
                shard: 1,
                capacity: 4096,
            }),
            StreamEvent::Lifecycle(Lifecycle::Rebalanced {
                moved_tasks: 7,
                max_load: 30,
                mean_load: 12.5,
            }),
        ])
        .collect();
    // Borrowed from one flat batch, as the server's forwarder encodes
    // them.
    let mut events = EventBatch::new();
    for event in &owned {
        events.push(EventRef::from(event));
    }
    let acks = [
        Response::Submit {
            worker: WorkerId(u64::MAX),
            seq: Some(u64::MAX),
        },
        Response::Post {
            task: TaskId(9),
            seq: Some(3),
        },
        // A lockstep submit's and post's acknowledgements.
        Response::Submit {
            worker: WorkerId(41),
            seq: None,
        },
        Response::Post {
            task: TaskId(u32::MAX),
            seq: None,
        },
    ];
    let requests = [
        windowed_submit(u64::MAX),
        windowed_post(0),
        submit(7, None),
        post(8, None),
    ];
    let mut batch = String::new();
    let fill = |batch: &mut String| {
        batch.clear();
        for event in events.iter() {
            wire::encode_event_into(batch, event, Some(SID));
        }
        for ack in &acks {
            ack.encode_into(batch, Some(SID));
        }
        for request in &requests {
            request.encode_into(batch, Some(SID));
        }
    };
    fill(&mut batch); // warm-up: the batch reaches its watermark
    let warm = batch.clone();

    let before = thread_alloc_count();
    fill(&mut batch);
    let allocs = thread_alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "encoding {} frames into a warm batch allocated {allocs} time(s)",
        events.len() + acks.len() + requests.len()
    );
    assert_eq!(batch, warm);
}
