//! Golden bytes for snapshots taken after stripe migrations: a 3-shard
//! session per policy posts and serves tasks, rebalances twice (moving
//! live and completed tasks to higher and to lower shards), and writes a
//! snapshot mid-session and at the end. The `ltc-snapshot v2` text of
//! both must equal the committed fixtures byte for byte, so a change to
//! how shards hold, number or migrate their tasks cannot move a task,
//! a quality or the session counters within the text unnoticed.

use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{Algorithm, LtcService, ServiceBuilder};
use ltc_core::snapshot::{read_snapshot, write_snapshot};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

const LAF_MID: &str = include_str!("fixtures/golden_laf_mid.ltc");
const LAF_END: &str = include_str!("fixtures/golden_laf_end.ltc");
const RANDOM_MID: &str = include_str!("fixtures/golden_random_mid.ltc");
const RANDOM_END: &str = include_str!("fixtures/golden_random_end.ltc");

/// A small deterministic generator (xorshift).
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn near(&mut self, x: f64, y: f64, r: f64) -> Point {
        Point::new(
            x + r * (2.0 * self.unit() - 1.0),
            y + r * (2.0 * self.unit() - 1.0),
        )
    }
}

fn text(service: &LtcService) -> String {
    let mut out = Vec::new();
    write_snapshot(&service.snapshot(), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// `(owner shard, completed)` per task id, read from the text alone: the
/// `taskmap` line gives each id's shard, and each shard's `completed`
/// flags follow its tasks in ascending id order.
fn placement(text: &str) -> Vec<(usize, bool)> {
    let mut lines = text.lines();
    let owners: Vec<usize> = lines
        .find_map(|l| l.strip_prefix("taskmap "))
        .unwrap()
        .split_whitespace()
        .skip(1)
        .map(|s| s.parse().unwrap())
        .collect();
    let flags: Vec<Vec<bool>> = lines
        .filter_map(|l| l.strip_prefix("completed "))
        .map(|f| f.chars().map(|c| c == '1').collect())
        .collect();
    let mut seen = vec![0; flags.len()];
    owners
        .iter()
        .map(|&s| {
            seen[s] += 1;
            (s, flags[s][seen[s] - 1])
        })
        .collect()
}

/// Which `[completed][to a higher shard]` moves a rebalance made.
fn moves(before: &str, after: &str, seen: &mut [[bool; 2]; 2]) {
    for (&(from, done), &(to, _)) in placement(before).iter().zip(&placement(after)) {
        if from != to {
            seen[done as usize][(to > from) as usize] = true;
        }
    }
}

/// Posts `n` tasks around `(x, y)`, then checks in `m` workers there.
fn burst(service: &mut LtcService, rng: &mut Rng, (x, y): (f64, f64), n: usize, m: usize) {
    for _ in 0..n {
        service.post_task(Task::new(rng.near(x, y, 60.0))).unwrap();
    }
    for _ in 0..m {
        let at = rng.near(x, y, 50.0);
        service.check_in(&Worker::new(at, 0.8 + 0.18 * rng.unit()));
    }
}

/// The session: returns the mid-session and final snapshot texts.
fn session(algorithm: Algorithm) -> (String, String) {
    let params = ProblemParams::builder()
        .epsilon(0.25)
        .capacity(2)
        .d_max(30.0)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(900.0, 900.0));
    let mut service = ServiceBuilder::new(params, region)
        .algorithm(algorithm)
        .shards(NonZeroUsize::new(3).unwrap())
        .build()
        .unwrap();
    let mut rng = Rng(0x601D);
    let mut seen = [[false; 2]; 2];

    // Work spread over all three stripes, then a hotspot in the middle
    // one: the first rebalance narrows the middle stripe, pushing its
    // outer tasks, live and completed, to both neighbours.
    for x in [150.0, 450.0, 750.0] {
        burst(&mut service, &mut rng, (x, 450.0), 6, 24);
    }
    burst(&mut service, &mut rng, (450.0, 300.0), 18, 20);
    let before = text(&service);
    service
        .rebalance()
        .unwrap()
        .expect("the hotspot skews the load");
    moves(&before, &text(&service), &mut seen);
    burst(&mut service, &mut rng, (300.0, 600.0), 8, 16);
    let mid = text(&service);

    // The hotspot drains while new work piles up on the right: the
    // second rebalance widens the middle stripe back and narrows the
    // right one.
    for _ in 0..60 {
        let at = rng.near(450.0, 300.0, 60.0);
        service.check_in(&Worker::new(at, 0.95));
    }
    burst(&mut service, &mut rng, (820.0, 200.0), 20, 10);
    let before = text(&service);
    service
        .rebalance()
        .unwrap()
        .expect("the drift skews the load");
    moves(&before, &text(&service), &mut seen);
    burst(&mut service, &mut rng, (600.0, 700.0), 6, 20);
    assert_eq!(seen, [[true; 2]; 2], "{algorithm:?}: moves seen {seen:?}");
    (mid, text(&service))
}

fn assert_golden(got: &str, want: &str, what: &str) {
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{what}: snapshot text differs from the fixture at {line}");
    }
    // The fixture is a fixed point of the reader and writer too.
    let mut again = Vec::new();
    write_snapshot(&read_snapshot(want.as_bytes()).unwrap(), &mut again).unwrap();
    assert_eq!(String::from_utf8(again).unwrap(), want, "{what}");
}

#[test]
fn laf_snapshots_after_migrations_match_the_fixture_bytes() {
    let (mid, end) = session(Algorithm::Laf);
    assert_golden(&mid, LAF_MID, "LAF mid-session");
    assert_golden(&end, LAF_END, "LAF end");
}

#[test]
fn random_snapshots_after_migrations_match_the_fixture_bytes() {
    let (mid, end) = session(Algorithm::Random { seed: 11 });
    assert_golden(&mid, RANDOM_MID, "Random mid-session");
    assert_golden(&end, RANDOM_END, "Random end");
}
