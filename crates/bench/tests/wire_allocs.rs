//! Allocation gates for `ltc-proto`'s per-check-in frames.
//!
//! A check-in crosses the wire as three frames: the `submit` (or
//! `post`) request, its acknowledgement, and the `worker` (or `task`)
//! event. Windowed or lockstep, each is encoded straight into a reused
//! byte buffer and decoded by an exact-layout scan of the bytes a
//! [`FrameReader`] hands out, so in steady state:
//!
//! * reading and decoding any of them from a warm reader allocates
//!   nothing: in place from the read buffer, and through the reused
//!   buffer a frame that straddles a refill is assembled in, a `worker`
//!   or `task` event into a warm [`EventBatch`] (the client reader's)
//!   included;
//! * encoding any of them into a warm buffer allocates nothing, events
//!   borrowed from an `EventBatch` (the server forwarder's) included.
//!
//! The counts are the per-thread allocation events of the
//! [`CountingAllocator`](ltc_bench::alloc), so they are exact under the
//! parallel test harness.

use ltc_bench::alloc::thread_alloc_count;
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{Event, EventBatch, EventRef, Lifecycle, StreamEvent};
use ltc_proto::wire::{self, FrameReader, Request, Response};
use ltc_spatial::Point;
use std::io::{BufReader, Cursor};

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

/// `frames` as one byte stream, each with the session id and `\n`,
/// twice over: a warm-up pass, then the measured one.
fn stream_of(frames: &[String]) -> Vec<u8> {
    let once: Vec<u8> = frames
        .iter()
        .flat_map(|f| format!("{}\n", wire::with_sid(f.clone(), SID)).into_bytes())
        .collect();
    [once.as_slice(), once.as_slice()].concat()
}

/// Frame readers over `bytes`: one whose buffer holds the whole stream,
/// so every frame is decoded in place, and one smaller than any frame,
/// so every frame straddles a refill and is assembled in the reader's
/// reused buffer.
fn readers(bytes: &[u8]) -> [FrameReader<Cursor<&[u8]>>; 2] {
    [bytes.len(), 16]
        .map(|capacity| FrameReader::new(BufReader::with_capacity(capacity, Cursor::new(bytes))))
}

/// Reads `n` frames from `frames` without counting (the warm-up pass),
/// then `n` more, asserting that reading and decoding each with
/// `decode` allocates nothing.
fn assert_warm_reads_allocate_nothing(
    frames: &mut FrameReader<Cursor<&[u8]>>,
    n: usize,
    mut decode: impl FnMut(usize, &[u8]),
) {
    for i in 0..n {
        let frame = frames.next_frame().unwrap().expect("the warm-up pass");
        decode(i, frame);
    }
    for i in 0..n {
        let before = thread_alloc_count();
        let frame = frames.next_frame().unwrap().expect("the measured pass");
        decode(i, frame);
        let allocs = thread_alloc_count() - before;
        let text = String::from_utf8_lossy(frame).into_owned();
        assert_eq!(allocs, 0, "decoding {text} allocated {allocs} time(s)");
    }
    assert_eq!(frames.next_frame().unwrap(), None);
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
    for mut frames in readers(&bytes) {
        // The batch grows to the size of the whole run in the warm-up
        // pass, and is emptied before the measured one.
        let mut batch = EventBatch::new();
        assert_warm_reads_allocate_nothing(&mut frames, events.len(), |i, frame| {
            if i == 0 {
                batch.clear();
            }
            wire::decode_event_into(frame, &mut batch).unwrap();
        });
        let decoded: Vec<StreamEvent> = batch.iter().map(StreamEvent::from).collect();
        assert_eq!(decoded, events);
    }
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
    for mut frames in readers(&request_bytes) {
        assert_warm_reads_allocate_nothing(&mut frames, requests.len(), |i, frame| {
            let (request, sid) = Request::decode_bytes(frame).unwrap();
            assert_eq!(request, requests[i]);
            assert_eq!(sid.as_deref(), Some(SID.as_bytes()));
        });
    }
    for mut frames in readers(&ack_bytes) {
        assert_warm_reads_allocate_nothing(&mut frames, acks.len(), |i, frame| {
            assert_eq!(Response::decode_bytes(frame).unwrap(), acks[i]);
        });
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
    let mut batch = Vec::new();
    let fill = |batch: &mut Vec<u8>| {
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
