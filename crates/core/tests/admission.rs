//! Both front-ends admit task posts through one validator: a malformed
//! post gets the same `ServiceError` from the synchronous facade
//! (`ServiceBuilder::build`) as from the pipelined handle
//! (`ServiceBuilder::start`), under a table accuracy model and under
//! the sigmoid, and checks run in the engine's order — the accuracy
//! row, then the location, then the id space.

use ltc_core::engine::EngineError;
use ltc_core::model::{ProblemParams, Task, TaskId};
use ltc_core::service::{ServiceBuilder, ServiceError};
use ltc_core::toy::toy_instance;
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

/// One attempted post: a location and an optional accuracy row.
fn post_both(
    builder: &ServiceBuilder,
    loc: Point,
    row: Option<&[f64]>,
) -> (Result<TaskId, ServiceError>, Result<TaskId, ServiceError>) {
    let task = Task::new(loc);
    let mut facade = builder.clone().build().unwrap();
    let mut handle = builder.clone().start().unwrap();
    let (a, b) = match row {
        Some(row) => (
            facade.post_task_with_accuracies(task, row),
            handle.post_task_with_accuracies(task, row),
        ),
        None => (facade.post_task(task), handle.post_task(task)),
    };
    handle.close().unwrap();
    (a, b)
}

/// Every combination of a finite or NaN location with a missing,
/// well-formed, short, out-of-range or NaN-valued row.
fn cases(width: usize) -> Vec<(Point, Option<Vec<f64>>)> {
    let mut out_of_range = vec![0.9; width];
    out_of_range[width / 2] = 1.5;
    let mut nan_value = vec![0.9; width];
    nan_value[0] = f64::NAN;
    let rows = [
        None,
        Some(vec![0.9; width]),
        Some(vec![0.9; width - 1]),
        Some(out_of_range),
        Some(nan_value),
    ];
    let mut cases = Vec::new();
    for loc in [Point::new(10.0, 10.0), Point::new(f64::NAN, 10.0)] {
        for row in &rows {
            cases.push((loc, row.clone()));
        }
    }
    cases
}

fn engine_err(result: Result<TaskId, ServiceError>) -> EngineError {
    match result {
        Err(ServiceError::Engine(e)) => e,
        other => panic!("expected an engine rejection, got {other:?}"),
    }
}

#[test]
fn front_ends_reject_bad_posts_identically() {
    let table = ServiceBuilder::from_instance(&toy_instance(0.2));
    let params = ProblemParams::builder().epsilon(0.2).build().unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
    let sigmoid =
        |n: usize| ServiceBuilder::new(params, region).shards(NonZeroUsize::new(n).unwrap());
    for (name, builder) in [
        ("table", table.clone()),
        ("sigmoid/1", sigmoid(1)),
        ("sigmoid/3", sigmoid(3)),
    ] {
        for (loc, row) in cases(8) {
            let (facade, handle) = post_both(&builder, loc, row.as_deref());
            // Compared as text: a rejected NaN value is not equal to itself.
            assert_eq!(
                format!("{facade:?}"),
                format!("{handle:?}"),
                "{name}: front-ends disagree on a post at {loc:?} with row {row:?}"
            );
        }
    }

    // The engine's order: row checks come before the location check.
    let nan = Point::new(f64::NAN, 10.0);
    let (facade, _) = post_both(&table, nan, None);
    assert_eq!(engine_err(facade), EngineError::MissingAccuracyRow);
    let (facade, _) = post_both(&table, nan, Some(&[0.9; 7]));
    assert_eq!(
        engine_err(facade),
        EngineError::BadAccuracyRow {
            expected: 8,
            got: 7
        }
    );
    let (facade, _) = post_both(&table, nan, Some(&[1.5; 8]));
    assert_eq!(engine_err(facade), EngineError::AccuracyOutOfRange(1.5));
    let (facade, _) = post_both(&table, nan, Some(&[0.9; 8]));
    assert_eq!(engine_err(facade), EngineError::BadTaskLocation);
    let (facade, _) = post_both(&sigmoid(3), nan, Some(&[0.9; 8]));
    assert_eq!(engine_err(facade), EngineError::UnexpectedAccuracyRow);
    let (facade, _) = post_both(&sigmoid(3), nan, None);
    assert_eq!(engine_err(facade), EngineError::BadTaskLocation);
    let (facade, handle) = post_both(&table, Point::new(10.0, 10.0), Some(&[0.9; 8]));
    assert_eq!(facade.unwrap(), handle.unwrap());
}
