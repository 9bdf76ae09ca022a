//! Synthetic datasets (paper Table IV).

use ltc_core::model::{Eligibility, Instance, ProblemParams, Task, Worker};
use ltc_spatial::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// How workers' historical accuracies are drawn (Table IV).
///
/// Both distributions are clamped to `[0.66, 1.0]` — the paper's spam
/// threshold below and the definition of accuracy above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccuracyDistribution {
    /// `Normal(μ, σ)`; the paper sweeps `μ ∈ {0.82..0.90}` with σ = 0.05.
    Normal {
        /// Mean `μ`.
        mean: f64,
        /// Standard deviation `σ`.
        std_dev: f64,
    },
    /// `Uniform(mean − half_width, mean + half_width)`. The paper gives
    /// only the mean; we use half-width 0.08 (≈ ±1.6σ of the Normal
    /// setting) — recorded as an assumption in DESIGN.md.
    Uniform {
        /// Distribution mean.
        mean: f64,
        /// Half-width of the support.
        half_width: f64,
    },
}

impl AccuracyDistribution {
    /// The paper's default: `Normal(0.86, 0.05)`.
    pub fn default_normal() -> Self {
        AccuracyDistribution::Normal {
            mean: 0.86,
            std_dev: 0.05,
        }
    }

    /// A Normal with the paper's σ = 0.05 and the given mean.
    pub fn normal(mean: f64) -> Self {
        AccuracyDistribution::Normal {
            mean,
            std_dev: 0.05,
        }
    }

    /// A Uniform with the default half-width 0.08 and the given mean.
    pub fn uniform(mean: f64) -> Self {
        AccuracyDistribution::Uniform {
            mean,
            half_width: 0.08,
        }
    }

    /// Draws one historical accuracy, clamped to `[0.66, 1.0]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = match *self {
            AccuracyDistribution::Normal { mean, std_dev } => Normal::new(mean, std_dev)
                .expect("σ is finite and positive")
                .sample(rng),
            AccuracyDistribution::Uniform { mean, half_width } => {
                rng.gen_range(mean - half_width..=mean + half_width)
            }
        };
        raw.clamp(0.66, 1.0)
    }
}

/// Configuration of a synthetic dataset (Table IV). Defaults are the
/// paper's bold settings: `|T| = 3000`, `|W| = 40000`, `K = 6`,
/// `Normal(0.86, 0.05)` accuracy, `ε = 0.14`, 1000×1000 grid,
/// `d_max = 30`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of tasks `|T|`.
    pub n_tasks: usize,
    /// Number of workers `|W|`.
    pub n_workers: usize,
    /// Per-worker capacity `K`.
    pub capacity: u32,
    /// Tolerable error rate `ε`.
    pub epsilon: f64,
    /// Historical-accuracy distribution.
    pub accuracy: AccuracyDistribution,
    /// Side length of the square grid (locations are uniform on
    /// `[0, grid_size]²`).
    pub grid_size: f64,
    /// High-accuracy radius `d_max`.
    pub d_max: f64,
    /// Eligibility policy (default nearby-only; `Unrestricted` exists for
    /// the ablation showing why the restriction matters).
    pub eligibility: Eligibility,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            n_tasks: 3000,
            n_workers: 40_000,
            capacity: 6,
            epsilon: 0.14,
            accuracy: AccuracyDistribution::default_normal(),
            grid_size: 1000.0,
            d_max: 30.0,
            eligibility: Eligibility::WithinRange,
            seed: 0xA11CE,
        }
    }
}

impl SyntheticConfig {
    /// The scalability setting of Table IV: the given `|T|`
    /// (10k–100k in the paper) with `|W| = 400 000`.
    pub fn scalability(n_tasks: usize) -> Self {
        Self {
            n_tasks,
            n_workers: 400_000,
            ..Self::default()
        }
    }

    /// Uniformly scales the instance down by `factor` (≥ 1), keeping the
    /// worker-per-task density constant by shrinking the grid area
    /// accordingly — used by the `--quick` mode of the benchmark harness.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        self.n_tasks = (self.n_tasks / factor).max(1);
        self.n_workers = (self.n_workers / factor).max(1);
        self.grid_size = (self.grid_size * (1.0 / factor as f64).sqrt()).max(self.d_max);
        self
    }

    /// Generates the instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces invalid parameters (e.g.
    /// `ε ∉ (0,1)`); the Table-IV ranges never do.
    pub fn generate(&self) -> Instance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let params = ProblemParams::builder()
            .epsilon(self.epsilon)
            .capacity(self.capacity)
            .d_max(self.d_max)
            .eligibility(self.eligibility)
            .build()
            .expect("synthetic parameter ranges are valid");

        let point = |rng: &mut StdRng| {
            Point::new(
                rng.gen_range(0.0..=self.grid_size),
                rng.gen_range(0.0..=self.grid_size),
            )
        };
        let tasks: Vec<Task> = (0..self.n_tasks)
            .map(|_| Task::new(point(&mut rng)))
            .collect();
        let workers: Vec<Worker> = (0..self.n_workers)
            .map(|_| {
                let loc = point(&mut rng);
                let acc = self.accuracy.sample(&mut rng);
                Worker::new(loc, acc)
            })
            .collect();
        Instance::new(tasks, workers, params).expect("generated instances are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iv_bold() {
        let c = SyntheticConfig::default();
        assert_eq!(c.n_tasks, 3000);
        assert_eq!(c.n_workers, 40_000);
        assert_eq!(c.capacity, 6);
        assert_eq!(c.epsilon, 0.14);
        assert_eq!(c.grid_size, 1000.0);
        assert_eq!(c.d_max, 30.0);
        assert_eq!(
            c.accuracy,
            AccuracyDistribution::Normal {
                mean: 0.86,
                std_dev: 0.05
            }
        );
    }

    #[test]
    fn scalability_uses_400k_workers() {
        let c = SyntheticConfig::scalability(50_000);
        assert_eq!(c.n_tasks, 50_000);
        assert_eq!(c.n_workers, 400_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = SyntheticConfig {
            n_tasks: 20,
            n_workers: 100,
            ..SyntheticConfig::default()
        };
        let a = c.generate();
        let b = c.generate();
        assert_eq!(a.tasks(), b.tasks());
        assert_eq!(a.workers(), b.workers());
    }

    #[test]
    fn different_seeds_differ() {
        let base = SyntheticConfig {
            n_tasks: 20,
            n_workers: 50,
            ..SyntheticConfig::default()
        };
        let a = base.generate();
        let b = SyntheticConfig { seed: 9, ..base }.generate();
        assert_ne!(a.workers(), b.workers());
    }

    #[test]
    fn accuracies_respect_spam_threshold() {
        let c = SyntheticConfig {
            n_tasks: 5,
            n_workers: 2000,
            accuracy: AccuracyDistribution::normal(0.70), // low mean: clamp kicks in
            ..SyntheticConfig::default()
        };
        let inst = c.generate();
        assert!(inst
            .workers()
            .iter()
            .all(|w| (0.66..=1.0).contains(&w.accuracy)));
    }

    #[test]
    fn uniform_distribution_stays_in_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let dist = AccuracyDistribution::uniform(0.9);
        for _ in 0..1000 {
            let a = dist.sample(&mut rng);
            assert!((0.82..=0.98).contains(&a), "sample {a} outside support");
        }
    }

    #[test]
    fn normal_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(2);
        let dist = AccuracyDistribution::normal(0.86);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.86).abs() < 0.005, "empirical mean {mean}");
    }

    #[test]
    fn locations_fall_in_grid() {
        let c = SyntheticConfig {
            n_tasks: 50,
            n_workers: 200,
            grid_size: 100.0,
            ..SyntheticConfig::default()
        };
        let inst = c.generate();
        for t in inst.tasks() {
            assert!((0.0..=100.0).contains(&t.loc.x) && (0.0..=100.0).contains(&t.loc.y));
        }
        for w in inst.workers() {
            assert!((0.0..=100.0).contains(&w.loc.x) && (0.0..=100.0).contains(&w.loc.y));
        }
    }

    #[test]
    fn scaled_down_keeps_density() {
        let c = SyntheticConfig::default().scaled_down(100);
        assert_eq!(c.n_tasks, 30);
        assert_eq!(c.n_workers, 400);
        // Area shrinks 100×: side shrinks 10×.
        assert!((c.grid_size - 100.0).abs() < 1e-9);
    }
}
