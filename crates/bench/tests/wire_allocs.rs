//! Allocation gates for `ltc-proto`'s per-check-in frames.
//!
//! A windowed check-in crosses the wire as three frames: the `submit`
//! (or `post`) request, its acknowledgement, and the `worker` (or
//! `task`) event. Each is encoded straight into a batch buffer and
//! decoded by an exact-layout scan from a reused read buffer, so in
//! steady state:
//!
//! * decoding a `worker` event frame allocates once, for the
//!   `Vec<Event>` the subscriber receives and owns;
//! * decoding a `task` event, a windowed `submit` or `post`, or an
//!   acknowledgement allocates nothing;
//! * encoding any of them into a warm buffer allocates nothing.
//!
//! The counts are the per-thread allocation events of the
//! [`CountingAllocator`](ltc_bench::alloc), so they are exact under the
//! parallel test harness.

use ltc_bench::alloc::thread_alloc_count;
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{Event, Lifecycle, StreamEvent};
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

fn windowed_submit(seq: u64) -> Request {
    Request::Submit {
        worker: Worker::new(Point::new(12.5 + seq as f64, 80.25), 0.9),
        seq: Some(seq),
    }
}

fn windowed_post(seq: u64) -> Request {
    Request::Post {
        task: Task::new(Point::new(3.0, 4.0 + seq as f64)),
        row: None,
        seq: Some(seq),
    }
}

/// `frames` as one byte stream, each with the session id and `\n`.
fn stream_of(frames: &[String]) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|f| format!("{}\n", wire::with_sid(f.clone(), SID)).into_bytes())
        .collect()
}

#[test]
fn decoding_event_frames_allocates_only_the_worker_batch() {
    let events: Vec<StreamEvent> = (0..64)
        .map(|i| match i % 4 {
            3 => StreamEvent::TaskPosted { task: TaskId(i) },
            _ => worker_event(u64::from(i) << 20, i % 7),
        })
        .collect();
    let bytes = stream_of(&events.iter().map(wire::encode_event).collect::<Vec<_>>());
    let mut line = Vec::new();
    // Warm-up pass: the read buffer reaches the longest frame's length.
    let mut warm = Cursor::new(bytes.as_slice());
    while wire::read_frame_into(&mut warm, &mut line)
        .unwrap()
        .is_some()
    {}

    let mut reader = Cursor::new(bytes.as_slice());
    for expected in &events {
        let before = thread_alloc_count();
        let frame = wire::read_frame_into(&mut reader, &mut line)
            .unwrap()
            .expect("one frame per event");
        let decoded = wire::decode_event(frame).unwrap();
        let allocs = thread_alloc_count() - before;
        let bound = u64::from(matches!(expected, StreamEvent::Worker { .. }));
        assert!(
            allocs <= bound,
            "decoding {frame} allocated {allocs} time(s), bound {bound}"
        );
        assert_eq!(&decoded, expected);
    }
}

#[test]
fn decoding_windowed_requests_and_acks_allocates_nothing() {
    let requests: Vec<Request> = (0..32)
        .map(|seq| {
            if seq % 6 == 5 {
                windowed_post(seq)
            } else {
                windowed_submit(seq)
            }
        })
        .collect();
    let acks: Vec<Response> = (0..32)
        .map(|seq| {
            if seq % 6 == 5 {
                Response::Post {
                    task: TaskId(seq as u32),
                    seq: Some(seq),
                }
            } else {
                Response::Submit {
                    worker: WorkerId(seq << 30),
                    seq: Some(seq),
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
    let events: Vec<StreamEvent> = (0..16)
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
    let acks = [
        Response::Submit {
            worker: WorkerId(u64::MAX),
            seq: Some(u64::MAX),
        },
        Response::Post {
            task: TaskId(9),
            seq: Some(3),
        },
    ];
    let requests = [windowed_submit(u64::MAX), windowed_post(0)];
    let mut batch = String::new();
    let fill = |batch: &mut String| {
        batch.clear();
        for event in &events {
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
