//! The LTC problem model: tasks, workers, parameters, accuracy functions,
//! arrangements, and feasibility checking (paper Sec. II).

mod accuracy;
mod arrangement;
mod instance;
mod params;

pub use accuracy::{acc_star, AccuracyModel, AccuracyTable};
pub use arrangement::{Arrangement, Assignment, FeasibilityError, RunOutcome};
pub use instance::{Instance, InstanceError};
pub use params::{Eligibility, ParamsBuilder, ParamsError, ProblemParams, QualityModel};

use ltc_spatial::Point;

/// Identifier of a task: its position in [`Instance::tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Identifier of a worker: its position in [`Instance::workers`], i.e. its
/// 0-based arrival order. The paper's 1-based arrival index `o_w` is
/// [`WorkerId::arrival_index`].
///
/// Worker ids are `u64`: an unbounded check-in stream (the service
/// setting) must not exhaust the id space — at one million check-ins per
/// second a `u32` would wrap in under 72 minutes of sustained Table-IV
/// load, while a `u64` outlasts the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

impl TaskId {
    /// Dense index into the instance's task vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl WorkerId {
    /// Dense index into the instance's worker vector (0-based arrival
    /// position).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The paper's 1-based arrival index `o_w`; the LTC objective is the
    /// maximum arrival index over recruited workers.
    #[inline]
    pub fn arrival_index(self) -> u64 {
        self.0 + 1
    }
}

/// A micro task `t = ⟨l_t, ε⟩` (Def. 1).
///
/// The tolerable error rate `ε` is shared by all tasks of an instance (a
/// platform-wide setting, per the paper's assumption ii), so it lives in
/// [`ProblemParams`] rather than here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Location `l_t` of the POI the question is about.
    pub loc: Point,
}

impl Task {
    /// Creates a task at the given location.
    pub const fn new(loc: Point) -> Self {
        Self { loc }
    }
}

/// A crowd worker `w = ⟨o_w, l_w, p_w, K⟩` (Def. 2).
///
/// The arrival order `o_w` is implied by the worker's position in the
/// instance's worker vector; the capacity `K` is platform-wide and lives in
/// [`ProblemParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worker {
    /// Check-in location `l_w`.
    pub loc: Point,
    /// Historical accuracy `p_w ∈ [min_accuracy, 1]`.
    pub accuracy: f64,
}

impl Worker {
    /// Creates a worker with the given check-in location and historical
    /// accuracy.
    pub const fn new(loc: Point, accuracy: f64) -> Self {
        Self { loc, accuracy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_index_is_one_based() {
        assert_eq!(WorkerId(0).arrival_index(), 1);
        assert_eq!(WorkerId(41).arrival_index(), 42);
    }

    #[test]
    fn ids_order_by_value() {
        assert!(TaskId(1) < TaskId(2));
        assert!(WorkerId(0) < WorkerId(5));
    }
}
