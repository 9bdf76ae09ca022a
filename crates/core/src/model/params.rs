//! Platform-wide problem parameters and policy knobs.

use std::fmt;

/// Completion-tolerance slack for `S[t] ≥ δ` checks. Contributions are
/// `O(1)` each and tasks accumulate at most a few dozen, so `1e-9` is far
/// below one contribution yet far above f64 rounding noise.
pub(crate) const COMPLETION_EPS: f64 = 1e-9;

/// Which `(worker, task)` pairs an algorithm may assign.
///
/// The paper's Eq. 1 makes `Acc(w,t) → 0` for far-away workers, which would
/// send `Acc* = (2·Acc − 1)² → 1` — a far worker would look *perfect*. The
/// paper's bound derivations instead assume `Acc ∈ [0.66, 1]` and its
/// baselines assign "tasks nearby", so the faithful reading (and our
/// default) restricts assignments to nearby, positively-weighted pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Eligibility {
    /// `(w,t)` is assignable iff `‖l_w − l_t‖ ≤ d_max` and
    /// `Acc(w,t) ≥ 0.5` (non-negative majority-voting weight). Default.
    #[default]
    WithinRange,
    /// Every pair is assignable and `Acc*` is used as-is, including the
    /// degenerate far-worker corner. Only meant for the ablation study
    /// showing why the restriction is necessary.
    Unrestricted,
}

/// How task quality accumulates and when a task counts as completed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QualityModel {
    /// The paper's model (Def. 4): each assignment contributes
    /// `Acc*(w,t) = (2·Acc(w,t) − 1)²` and a task completes at
    /// `δ = 2·ln(1/ε)` (Hoeffding bound for weighted majority voting).
    #[default]
    Hoeffding,
    /// A simplified linear model used by the paper's introductory
    /// Example 1: each assignment contributes `Acc(w,t)` directly and a
    /// task completes at the given fixed threshold (2.92 in the example).
    FixedThreshold(f64),
}

/// Platform-wide parameters of an LTC instance (paper Sec. II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemParams {
    /// Tolerable error rate `ε ∈ (0, 1)` shared by all tasks.
    pub epsilon: f64,
    /// Capacity `K ≥ 1`: maximum tasks per worker check-in.
    pub capacity: u32,
    /// `d_max`: the largest distance at which workers still perform tasks
    /// with high accuracy (Eq. 1). 30 grid units = 300 m in the paper's
    /// datasets.
    pub d_max: f64,
    /// Spam threshold: workers with historical accuracy below this are
    /// rejected by instance validation (the paper fixes 0.66).
    pub min_accuracy: f64,
    /// Assignability policy (see [`Eligibility`]).
    pub eligibility: Eligibility,
    /// Quality-accumulation model (see [`QualityModel`]).
    pub quality: QualityModel,
}

impl ProblemParams {
    /// Starts a builder pre-loaded with the paper's default experimental
    /// settings (Table IV): `ε = 0.14`, `K = 6`, `d_max = 30`,
    /// `min_accuracy = 0.66`, nearby-only eligibility, Hoeffding quality.
    pub fn builder() -> ParamsBuilder {
        ParamsBuilder::default()
    }

    /// The completion threshold per task:
    /// `δ = 2·ln(1/ε)` under [`QualityModel::Hoeffding`], or the fixed
    /// threshold under [`QualityModel::FixedThreshold`].
    pub fn delta(&self) -> f64 {
        match self.quality {
            QualityModel::Hoeffding => 2.0 * (1.0 / self.epsilon).ln(),
            QualityModel::FixedThreshold(th) => th,
        }
    }

    /// Validates the parameter combination.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ParamsError::Epsilon(self.epsilon));
        }
        if self.capacity == 0 {
            return Err(ParamsError::Capacity);
        }
        if !(self.d_max.is_finite() && self.d_max > 0.0) {
            return Err(ParamsError::DMax(self.d_max));
        }
        if !(0.0..=1.0).contains(&self.min_accuracy) {
            return Err(ParamsError::MinAccuracy(self.min_accuracy));
        }
        if let QualityModel::FixedThreshold(th) = self.quality {
            if !(th.is_finite() && th > 0.0) {
                return Err(ParamsError::Threshold(th));
            }
        }
        Ok(())
    }
}

impl Default for ProblemParams {
    /// The paper's default experimental settings (Table IV).
    fn default() -> Self {
        Self {
            epsilon: 0.14,
            capacity: 6,
            d_max: 30.0,
            min_accuracy: 0.66,
            eligibility: Eligibility::WithinRange,
            quality: QualityModel::Hoeffding,
        }
    }
}

/// Builder for [`ProblemParams`]; start from [`ProblemParams::builder`].
#[derive(Debug, Clone, Default)]
pub struct ParamsBuilder {
    params: ProblemParams,
}

impl ParamsBuilder {
    /// Sets the tolerable error rate `ε`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.params.epsilon = epsilon;
        self
    }

    /// Sets the per-worker capacity `K`.
    pub fn capacity(mut self, capacity: u32) -> Self {
        self.params.capacity = capacity;
        self
    }

    /// Sets the high-accuracy radius `d_max`.
    pub fn d_max(mut self, d_max: f64) -> Self {
        self.params.d_max = d_max;
        self
    }

    /// Sets the spam threshold on historical accuracy.
    pub fn min_accuracy(mut self, min_accuracy: f64) -> Self {
        self.params.min_accuracy = min_accuracy;
        self
    }

    /// Sets the eligibility policy.
    pub fn eligibility(mut self, eligibility: Eligibility) -> Self {
        self.params.eligibility = eligibility;
        self
    }

    /// Sets the quality model.
    pub fn quality(mut self, quality: QualityModel) -> Self {
        self.params.quality = quality;
        self
    }

    /// Validates and returns the parameters.
    pub fn build(self) -> Result<ProblemParams, ParamsError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

/// Invalid parameter combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamsError {
    /// `ε` outside `(0, 1)`.
    Epsilon(f64),
    /// `K = 0`.
    Capacity,
    /// `d_max` not positive/finite.
    DMax(f64),
    /// `min_accuracy` outside `[0, 1]`.
    MinAccuracy(f64),
    /// Fixed quality threshold not positive/finite.
    Threshold(f64),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::Epsilon(e) => write!(f, "tolerable error rate must be in (0,1), got {e}"),
            ParamsError::Capacity => write!(f, "worker capacity K must be at least 1"),
            ParamsError::DMax(d) => write!(f, "d_max must be positive and finite, got {d}"),
            ParamsError::MinAccuracy(a) => {
                write!(f, "min_accuracy must be in [0,1], got {a}")
            }
            ParamsError::Threshold(t) => {
                write!(
                    f,
                    "fixed quality threshold must be positive and finite, got {t}"
                )
            }
        }
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iv() {
        let p = ProblemParams::default();
        assert_eq!(p.epsilon, 0.14);
        assert_eq!(p.capacity, 6);
        assert_eq!(p.d_max, 30.0);
        assert_eq!(p.min_accuracy, 0.66);
        assert_eq!(p.eligibility, Eligibility::WithinRange);
    }

    #[test]
    fn delta_is_hoeffding_bound() {
        let p = ProblemParams::builder().epsilon(0.2).build().unwrap();
        // δ = 2 ln 5 ≈ 3.2189 (paper Example 2 rounds to 3.22).
        assert!((p.delta() - 3.2188758248682006).abs() < 1e-12);
    }

    #[test]
    fn delta_fixed_threshold() {
        let p = ProblemParams::builder()
            .quality(QualityModel::FixedThreshold(2.92))
            .build()
            .unwrap();
        assert_eq!(p.delta(), 2.92);
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(ProblemParams::builder().epsilon(0.0).build().is_err());
        assert!(ProblemParams::builder().epsilon(1.0).build().is_err());
        assert!(ProblemParams::builder().epsilon(-0.5).build().is_err());
        assert!(ProblemParams::builder().epsilon(f64::NAN).build().is_err());
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(ProblemParams::builder().capacity(0).build().is_err());
    }

    #[test]
    fn rejects_bad_dmax_and_threshold() {
        assert!(ProblemParams::builder().d_max(0.0).build().is_err());
        assert!(ProblemParams::builder()
            .d_max(f64::INFINITY)
            .build()
            .is_err());
        assert!(ProblemParams::builder()
            .quality(QualityModel::FixedThreshold(-1.0))
            .build()
            .is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = ProblemParams::builder().epsilon(2.0).build().unwrap_err();
        assert!(err.to_string().contains("error rate"));
    }
}
