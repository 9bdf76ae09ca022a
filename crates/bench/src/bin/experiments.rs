//! Regenerates every panel of the paper's evaluation (Figs. 3 and 4).
//!
//! ```text
//! cargo run --release -p ltc-bench --bin experiments -- [OPTIONS]
//!
//! OPTIONS:
//!   --quick          1/16-scale datasets (default; laptop-friendly)
//!   --full           paper-scale datasets (Table IV/V cardinalities;
//!                    the scalability panel takes hours, as in the paper)
//!   --scale N        custom down-scaling factor (1 = paper scale)
//!   --repeats R      average metrics over R seeded repetitions (default 3;
//!                    the paper averages 30 runs)
//!   --only LIST      comma-separated panel subset, e.g.
//!                    --only fig3-tasks,fig4-epsilon
//!   --list           print the panel names and exit
//! ```
//!
//! Each panel prints three tables — max worker index (latency), running
//! time, and peak memory — with one row per x-axis value and one column
//! per algorithm, mirroring the corresponding sub-figures.

use ltc_bench::{measure, Measurement, ALL_ALGOS};
use ltc_core::model::{Eligibility, Instance};
use ltc_core::offline::McfLtc;
use ltc_core::online::{run_online, Aam, AamStrategy, Laf};
use ltc_sim::{simulate, GroundTruth};
use ltc_workload::{AccuracyDistribution, CheckinCityConfig, SyntheticConfig};

#[derive(Clone, Copy)]
struct Options {
    scale: usize,
    repeats: u64,
}

const PANELS: &[(&str, &str)] = &[
    ("fig3-tasks", "Fig. 3 (a,e,i): varying |T| in 1000..5000"),
    ("fig3-capacity", "Fig. 3 (b,f,j): varying K in 4..8"),
    (
        "fig3-acc-normal",
        "Fig. 3 (c,g,k): accuracy ~ Normal(mu, 0.05)",
    ),
    (
        "fig3-acc-uniform",
        "Fig. 3 (d,h,l): accuracy ~ Uniform(mean +/- 0.08)",
    ),
    (
        "fig4-epsilon",
        "Fig. 4 (a,e,i): varying epsilon in 0.06..0.22",
    ),
    (
        "fig4-scalability",
        "Fig. 4 (b,f,j): |T| in 10k..100k, |W| = 400k",
    ),
    (
        "fig4-newyork",
        "Fig. 4 (c,g,k): New-York-like stream, varying epsilon",
    ),
    (
        "fig4-tokyo",
        "Fig. 4 (d,h,l): Tokyo-like stream, varying epsilon",
    ),
    (
        "abl-batch",
        "Ablation: MCF-LTC batch size 0.5m..2m (DESIGN.md 6)",
    ),
    ("abl-aam", "Ablation: AAM hybrid vs pure LGF / pure LRF"),
    (
        "abl-eligibility",
        "Ablation: nearby-only vs unrestricted eligibility",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 16usize;
    let mut repeats = 3u64;
    let mut only: Option<Vec<String>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = 16,
            "--full" => scale = 1,
            "--scale" => {
                scale = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
            }
            "--repeats" => {
                repeats = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--repeats needs a positive integer"));
            }
            "--only" => {
                let list = iter
                    .next()
                    .unwrap_or_else(|| die("--only needs a comma-separated list"));
                only = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--list" => {
                for (name, desc) in PANELS {
                    println!("{name:18} {desc}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--quick|--full|--scale N] [--repeats R] [--only LIST]"
                );
                for (name, desc) in PANELS {
                    println!("  {name:18} {desc}");
                }
                return;
            }
            other => die(&format!("unknown option `{other}` (try --help)")),
        }
    }
    if scale == 0 || repeats == 0 {
        die("--scale and --repeats must be positive");
    }
    let opts = Options { scale, repeats };

    println!("# LTC experiment suite (ICDE 2018 reproduction)");
    println!("# scale = 1/{scale} of the paper's cardinalities, repeats = {repeats}");
    println!();

    if let Some(list) = &only {
        for name in list {
            if !PANELS.iter().any(|(p, _)| p == name) {
                die(&format!("unknown panel `{name}` (try --list)"));
            }
        }
    }
    let wanted = |name: &str| only.as_ref().is_none_or(|l| l.iter().any(|x| x == name));

    if wanted("fig3-tasks") {
        fig3_tasks(opts);
    }
    if wanted("fig3-capacity") {
        fig3_capacity(opts);
    }
    if wanted("fig3-acc-normal") {
        fig3_accuracy(opts, false);
    }
    if wanted("fig3-acc-uniform") {
        fig3_accuracy(opts, true);
    }
    if wanted("fig4-epsilon") {
        fig4_epsilon(opts);
    }
    if wanted("fig4-scalability") {
        fig4_scalability(opts);
    }
    if wanted("fig4-newyork") {
        fig4_city(
            opts,
            CheckinCityConfig::new_york_like(),
            "fig4-newyork (New York)",
        );
    }
    if wanted("fig4-tokyo") {
        fig4_city(opts, CheckinCityConfig::tokyo_like(), "fig4-tokyo (Tokyo)");
    }
    if wanted("abl-batch") {
        ablation_batch(opts);
    }
    if wanted("abl-aam") {
        ablation_aam(opts);
    }
    if wanted("abl-eligibility") {
        ablation_eligibility(opts);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

// ---------------------------------------------------------------- panels

fn fig3_tasks(opts: Options) {
    let xs = [1000usize, 2000, 3000, 4000, 5000];
    run_panel(
        "Fig. 3 (a,e,i) — varying |T|",
        "|T|",
        &xs.map(|t| t.to_string()),
        opts,
        |i, seed| {
            SyntheticConfig {
                n_tasks: xs[i],
                seed,
                ..SyntheticConfig::default()
            }
            .scaled_down(opts.scale)
            .generate()
        },
    );
}

fn fig3_capacity(opts: Options) {
    let xs = [4u32, 5, 6, 7, 8];
    run_panel(
        "Fig. 3 (b,f,j) — varying K",
        "K",
        &xs.map(|k| k.to_string()),
        opts,
        |i, seed| {
            SyntheticConfig {
                capacity: xs[i],
                seed,
                ..SyntheticConfig::default()
            }
            .scaled_down(opts.scale)
            .generate()
        },
    );
}

fn fig3_accuracy(opts: Options, uniform: bool) {
    let xs = [0.82f64, 0.84, 0.86, 0.88, 0.90];
    let title = if uniform {
        "Fig. 3 (d,h,l) — accuracy ~ Uniform(mean ± 0.08)"
    } else {
        "Fig. 3 (c,g,k) — accuracy ~ Normal(μ, 0.05)"
    };
    run_panel(
        title,
        if uniform { "mean" } else { "μ" },
        &xs.map(|m| format!("{m:.2}")),
        opts,
        |i, seed| {
            let accuracy = if uniform {
                AccuracyDistribution::uniform(xs[i])
            } else {
                AccuracyDistribution::normal(xs[i])
            };
            SyntheticConfig {
                accuracy,
                seed,
                ..SyntheticConfig::default()
            }
            .scaled_down(opts.scale)
            .generate()
        },
    );
}

fn fig4_epsilon(opts: Options) {
    let xs = [0.06f64, 0.10, 0.14, 0.18, 0.22];
    run_panel(
        "Fig. 4 (a,e,i) — varying ε",
        "ε",
        &xs.map(|e| format!("{e:.2}")),
        opts,
        |i, seed| {
            SyntheticConfig {
                epsilon: xs[i],
                seed,
                ..SyntheticConfig::default()
            }
            .scaled_down(opts.scale)
            .generate()
        },
    );
}

fn fig4_scalability(opts: Options) {
    let xs = [10_000usize, 20_000, 30_000, 40_000, 50_000, 100_000];
    run_panel(
        "Fig. 4 (b,f,j) — scalability (|W| = 400k)",
        "|T|",
        &xs.map(|t| t.to_string()),
        opts,
        |i, seed| {
            SyntheticConfig {
                seed,
                ..SyntheticConfig::scalability(xs[i])
            }
            .scaled_down(opts.scale)
            .generate()
        },
    );
}

fn fig4_city(opts: Options, base: CheckinCityConfig, title: &str) {
    let xs = [0.06f64, 0.10, 0.14, 0.18, 0.22];
    run_panel(
        title,
        "ε",
        &xs.map(|e| format!("{e:.2}")),
        opts,
        |i, seed| {
            let mut cfg = base.scaled_down(opts.scale);
            cfg.epsilon = xs[i];
            cfg.seed = cfg.seed.wrapping_add(seed);
            cfg.generate()
        },
    );
}

// ------------------------------------------------------------ ablations

/// MCF-LTC batch-size ablation: latency and runtime for batches of
/// 0.5×–2× the Theorem-2 lower bound `m`, on the default workload.
fn ablation_batch(opts: Options) {
    println!("== Ablation — MCF-LTC batch size (× m) ==");
    println!(
        "{:>8}\t{:>9}\t{:>10}\t{:>12}",
        "scale", "latency", "time (s)", "assignments"
    );
    let instance = SyntheticConfig::default()
        .scaled_down(opts.scale)
        .generate();
    for scale in [0.5f64, 1.0, 1.5, 2.0] {
        let started = std::time::Instant::now(); // ltc-lint: allow(L006) bench stopwatch: measuring wall-clock is the point
        let outcome = McfLtc::with_batch_scale(scale).run(&instance);
        let secs = started.elapsed().as_secs_f64();
        println!(
            "{scale:>8.1}\t{:>9}\t{secs:>10.4}\t{:>12}",
            outcome
                .latency()
                .map_or_else(|| "inc.".to_string(), |l| l.to_string()),
            outcome.arrangement.len()
        );
    }
    println!();
}

/// AAM strategy ablation: latency and runtime of the hybrid against its
/// two halves.
fn ablation_aam(opts: Options) {
    println!("== Ablation — AAM switching rule ==");
    println!(
        "{:>12}\t{:>9}\t{:>10}\t{:>12}\t{:>10}",
        "strategy", "latency", "time (s)", "assignments", "overshoot"
    );
    let instance = SyntheticConfig::default()
        .scaled_down(opts.scale)
        .generate();
    for strategy in [
        AamStrategy::Hybrid,
        AamStrategy::AlwaysLgf,
        AamStrategy::AlwaysLrf,
    ] {
        let started = std::time::Instant::now(); // ltc-lint: allow(L006) bench stopwatch: measuring wall-clock is the point
        let outcome = run_online(&instance, &mut Aam::with_strategy(strategy));
        let secs = started.elapsed().as_secs_f64();
        let stats = ltc_core::metrics::ArrangementStats::new(&instance, &outcome.arrangement);
        println!(
            "{:>12}\t{:>9}\t{secs:>10.4}\t{:>12}\t{:>10.3}",
            format!("{strategy:?}"),
            outcome
                .latency()
                .map_or_else(|| "inc.".to_string(), |l| l.to_string()),
            outcome.arrangement.len(),
            stats.mean_overshoot().unwrap_or(f64::NAN),
        );
    }
    println!();
}

/// Eligibility ablation: the paper-faithful nearby-only policy vs the
/// unrestricted degenerate reading of Eq. 1.
///
/// Under the unrestricted policy, LAF showers tasks with far-away workers
/// whose predicted accuracy ≈ 0 gives `Acc* ≈ 1`: latency collapses. If
/// those accuracies were *exactly* right the arrangement would even be
/// informative (a reliably wrong worker is an expert with the sign
/// flipped) — the realistic failure is that a worker who has never seen
/// the POI *guesses* (true accuracy 0.5) while the platform weights them
/// as a confident anti-expert. The second error column simulates that
/// misestimation: far answers are coin flips, voting weights stay at the
/// model's `2·Acc − 1`. The time column covers the LAF run only, not
/// the simulations.
fn ablation_eligibility(opts: Options) {
    println!("== Ablation — eligibility policy (LAF) ==");
    println!(
        "{:>14}\t{:>9}\t{:>10}\t{:>16}\t{:>18}",
        "policy", "latency", "time (s)", "err(model acc)", "err(far = guess)"
    );
    for (name, eligibility) in [
        ("within-range", Eligibility::WithinRange),
        ("unrestricted", Eligibility::Unrestricted),
    ] {
        let instance = SyntheticConfig {
            eligibility,
            ..SyntheticConfig::default()
        }
        .scaled_down(opts.scale)
        .generate();
        let started = std::time::Instant::now(); // ltc-lint: allow(L006) bench stopwatch: measuring wall-clock is the point
        let outcome = run_online(&instance, &mut Laf::new());
        let secs = started.elapsed().as_secs_f64();
        let truth = GroundTruth::random(instance.n_tasks(), 17);
        let report = simulate(&instance, &outcome.arrangement, &truth, 300, 23);
        let guess_err = simulate_with_guessing_far_workers(&instance, &outcome, &truth, 300);
        println!(
            "{name:>14}\t{:>9}\t{secs:>10.4}\t{:>16.4}\t{:>18.4}",
            outcome
                .latency()
                .map_or_else(|| "inc.".to_string(), |l| l.to_string()),
            report.max_task_error_rate(),
            guess_err,
        );
    }
    println!("(ε = 0.14; the unrestricted policy's quality is an artifact of");
    println!(" trusting the accuracy model outside its domain)");
    println!();
}

/// Worst-task error rate when workers beyond predicted accuracy 0.5
/// answer by coin flip while voting weights stay at the model's value.
fn simulate_with_guessing_far_workers(
    instance: &Instance,
    outcome: &ltc_core::model::RunOutcome,
    truth: &GroundTruth,
    trials: usize,
) -> f64 {
    use ltc_sim::{sample_answer, weighted_majority};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xFA2);
    let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); instance.n_tasks()];
    for a in outcome.arrangement.assignments() {
        per_task[a.task.index()].push(a.acc);
    }
    let mut worst = 0.0f64;
    for (t, accs) in per_task.iter().enumerate() {
        let mut errors = 0usize;
        for _ in 0..trials {
            let label = truth.label(t);
            let vote = weighted_majority(accs.iter().map(|&model_acc| {
                let true_acc = if model_acc < 0.5 { 0.5 } else { model_acc };
                (model_acc, sample_answer(&mut rng, true_acc, label))
            }));
            if vote.label != label {
                errors += 1;
            }
        }
        worst = worst.max(errors as f64 / trials as f64);
    }
    worst
}

// ------------------------------------------------------------- machinery

/// Runs one panel: for every x value, `repeats` seeded instances, all five
/// algorithms; prints the three metric tables.
fn run_panel(
    title: &str,
    x_label: &str,
    xs: &[String],
    opts: Options,
    make: impl Fn(usize, u64) -> Instance,
) {
    println!("== {title} ==");
    // cells[x][algo] = averaged measurements.
    let mut cells: Vec<Vec<AvgCell>> = vec![vec![AvgCell::default(); ALL_ALGOS.len()]; xs.len()];
    for (xi, _) in xs.iter().enumerate() {
        for rep in 0..opts.repeats {
            let instance = make(xi, 0xA11CE ^ rep);
            for (ai, algo) in ALL_ALGOS.iter().enumerate() {
                let m = measure(
                    *algo,
                    &instance,
                    rep.wrapping_mul(1_099_511_628_211) ^ 0x5EED,
                );
                cells[xi][ai].add(m);
            }
        }
    }

    print_metric_table(x_label, xs, &cells, "Max index of worker (latency)", |c| {
        c.latency_text()
    });
    print_metric_table(x_label, xs, &cells, "Time (secs)", |c| {
        format!("{:.4}", c.seconds_mean())
    });
    print_metric_table(x_label, xs, &cells, "Memory (MB)", |c| {
        format!("{:.2}", c.mb_mean())
    });
    println!();
}

#[derive(Default, Clone)]
struct AvgCell {
    latency_sum: u64,
    completed: u64,
    runs: u64,
    seconds_sum: f64,
    bytes_sum: f64,
}

impl AvgCell {
    fn add(&mut self, m: Measurement) {
        self.runs += 1;
        self.seconds_sum += m.seconds;
        self.bytes_sum += m.peak_bytes as f64;
        if let Some(l) = m.latency {
            self.completed += 1;
            self.latency_sum += l;
        }
    }

    /// Mean latency over completed runs; a `*` marks settings where some
    /// repetition exhausted the stream, `inc.` marks all-incomplete.
    fn latency_text(&self) -> String {
        if self.completed == 0 {
            "inc.".to_string()
        } else {
            let mean = self.latency_sum as f64 / self.completed as f64;
            if self.completed < self.runs {
                format!("{mean:.0}*")
            } else {
                format!("{mean:.0}")
            }
        }
    }

    fn seconds_mean(&self) -> f64 {
        self.seconds_sum / self.runs as f64
    }

    fn mb_mean(&self) -> f64 {
        self.bytes_sum / self.runs as f64 / (1024.0 * 1024.0)
    }
}

fn print_metric_table(
    x_label: &str,
    xs: &[String],
    cells: &[Vec<AvgCell>],
    metric: &str,
    fmt: impl Fn(&AvgCell) -> String,
) {
    println!("-- {metric} --");
    print!("{x_label:>10}");
    for algo in ALL_ALGOS {
        print!("\t{:>9}", algo.name());
    }
    println!();
    for (xi, x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for (ai, _) in ALL_ALGOS.iter().enumerate() {
            print!("\t{:>9}", fmt(&cells[xi][ai]));
        }
        println!();
    }
}
