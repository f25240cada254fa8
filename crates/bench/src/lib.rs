//! # optrr-bench (bench_support)
//!
//! Shared harness for the experiment binaries that regenerate the OptRR
//! paper's evaluation (Figures 4 and 5, Theorem 2, Fact 1) plus the
//! ablation studies listed in DESIGN.md, and for the `bench_*` binaries
//! that measure the system.
//!
//! Every experiment binary follows the same pattern: build the workload the
//! paper describes, sweep the Warner baseline, run the OptRR optimizer,
//! compare the fronts, and print an [`optrr::ExperimentReport`] as an
//! aligned table plus CSV. The functions here hold that shared logic so the
//! binaries stay short and consistent.
//!
//! The `bench_*` binaries time microbenchmark series with
//! [`time_iterations`] / [`summarize_ns`] and every one ends with
//! [`write_baseline`], the one writer of the committed `BENCH_*.json`
//! files; [`report`] prints them back (see [`baseline`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;

pub use baseline::{report, workspace_root, write_baseline};

use datagen::{synthetic, AdultConfig, SourceDistribution, SyntheticConfig};
use emoo::EngineKind;
use optrr::{
    baseline_sweep, ExperimentReport, FrontComparison, Optimizer, OptrrConfig, OptrrProblem,
    ParetoFront, SchemeKind,
};
use stats::Categorical;

/// The experiment fidelity: controls optimizer budget and sweep resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Small budgets for CI and quick smoke runs (seconds per figure).
    Fast,
    /// The default budget used to produce EXPERIMENTS.md (tens of seconds
    /// per figure).
    Standard,
    /// A budget approximating the paper's 20,000-iteration runs (minutes
    /// per figure).
    Paper,
}

impl Fidelity {
    /// Reads the fidelity from the command line (`--fast` / `--paper`) and
    /// the `OPTRR_FIDELITY` environment variable (`fast` / `standard` /
    /// `paper`), defaulting to [`Fidelity::Standard`].
    pub fn from_env_and_args() -> Self {
        if flag("--fast") {
            return Fidelity::Fast;
        }
        if flag("--paper") {
            return Fidelity::Paper;
        }
        match std::env::var("OPTRR_FIDELITY")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "fast" => Fidelity::Fast,
            "paper" => Fidelity::Paper,
            _ => Fidelity::Standard,
        }
    }

    /// The optimizer configuration for this fidelity at a given δ and seed.
    pub fn optimizer_config(self, delta: f64, seed: u64) -> OptrrConfig {
        match self {
            Fidelity::Fast => OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size: 32,
                    archive_size: 16,
                    generations: 60,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: 500,
                ..OptrrConfig::fast(delta, seed)
            },
            Fidelity::Standard => OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size: 60,
                    archive_size: 30,
                    generations: 400,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: 1_000,
                delta,
                seed,
                ..OptrrConfig::default()
            },
            Fidelity::Paper => OptrrConfig::paper_fidelity(delta, seed),
        }
    }

    /// The Warner-sweep resolution for this fidelity.
    pub fn sweep_steps(self) -> usize {
        match self {
            Fidelity::Fast => 201,
            Fidelity::Standard => 1001,
            Fidelity::Paper => optrr::PAPER_SWEEP_STEPS,
        }
    }
}

/// Reads the EMOO backend selection from the command line (`--nsga2` /
/// `--spea2`) and the `OPTRR_ENGINE` environment variable (`nsga2` /
/// `spea2`), defaulting to the paper's SPEA2. Every experiment binary runs
/// against either backend through this one switch.
pub fn engine_kind_from_env_and_args() -> EngineKind {
    if flag("--nsga2") {
        return EngineKind::Nsga2;
    }
    if flag("--spea2") {
        return EngineKind::Spea2;
    }
    match std::env::var("OPTRR_ENGINE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "nsga2" | "nsga-ii" => EngineKind::Nsga2,
        _ => EngineKind::Spea2,
    }
}

/// Reads the parallel-evaluation switch from the command line
/// (`--parallel`) and the `OPTRR_PARALLEL` environment variable (`1` /
/// `true`). Parallel evaluation is bit-identical to serial; it only
/// changes wall-clock time.
pub fn parallel_evaluation_from_env_and_args() -> bool {
    if flag("--parallel") {
        return true;
    }
    matches!(
        std::env::var("OPTRR_PARALLEL")
            .unwrap_or_default()
            .to_lowercase()
            .as_str(),
        "1" | "true" | "yes"
    )
}

/// Applies the run-wide engine selection (backend kind and parallel
/// evaluation) to a configuration. Every experiment binary calls this so
/// the backend is chosen purely by flags/environment, through one code
/// path.
pub fn apply_engine_selection(config: &mut OptrrConfig) {
    config.engine_kind = engine_kind_from_env_and_args();
    config.parallel_evaluation = parallel_evaluation_from_env_and_args();
}

/// The standard paper workload: 10 categories, 10,000 records.
pub fn paper_workload(source: SourceDistribution, seed: u64) -> synthetic::SyntheticWorkload {
    synthetic::generate(&SyntheticConfig::paper_default(source, seed))
        .expect("paper workload configuration is valid")
}

/// The Adult-surrogate first attribute used by Figure 5(c).
pub fn adult_first_attribute() -> (Categorical, usize) {
    let surrogate = datagen::adult::generate(&AdultConfig::default())
        .expect("default Adult surrogate configuration is valid");
    let dist = surrogate
        .first_attribute()
        .empirical_distribution()
        .expect("surrogate has records");
    (dist, surrogate.first_attribute().len())
}

/// Runs one "figure" experiment: Warner baseline vs OptRR on the given
/// prior, record count, and δ.
pub fn run_figure_experiment(
    experiment_id: &str,
    description: &str,
    prior: &Categorical,
    num_records: u64,
    delta: f64,
    fidelity: Fidelity,
    seed: u64,
) -> ExperimentReport {
    let mut config = fidelity.optimizer_config(delta, seed);
    config.num_records = num_records;
    apply_engine_selection(&mut config);

    let problem = OptrrProblem::new(prior.clone(), &config).expect("valid problem");
    let warner = baseline_sweep(&problem, SchemeKind::Warner, fidelity.sweep_steps());

    let optimizer = Optimizer::new(config).expect("validated configuration");
    let outcome = optimizer
        .optimize_distribution(prior)
        .expect("optimization over a validated prior succeeds");

    let comparison = FrontComparison::compare(&outcome.front, &warner.front, 100);
    ExperimentReport {
        experiment_id: experiment_id.to_string(),
        description: description.to_string(),
        delta,
        fronts: vec![warner.front, outcome.front],
        comparison: Some(comparison),
        optimizer_statistics: Some(outcome.statistics),
    }
}

/// Convenience: runs a figure experiment on a synthetic paper workload.
pub fn run_synthetic_figure(
    experiment_id: &str,
    source: SourceDistribution,
    delta: f64,
    fidelity: Fidelity,
    seed: u64,
) -> ExperimentReport {
    let workload = paper_workload(source.clone(), seed);
    let prior = workload
        .dataset
        .empirical_distribution()
        .expect("non-empty workload");
    let description = format!(
        "{} distribution, n = {} categories, N = {} records, delta = {delta}",
        source.label(),
        workload.config.num_categories,
        workload.config.num_records
    );
    run_figure_experiment(
        experiment_id,
        &description,
        &prior,
        workload.config.num_records as u64,
        delta,
        fidelity,
        seed,
    )
}

/// Prints a report in the standard format used by every experiment binary:
/// the aligned table followed by the CSV series.
pub fn print_report(report: &ExperimentReport) {
    println!("{}", report.render_table());
    println!("--- csv ---");
    println!("{}", report.render_csv());
}

/// Formats a one-line dominance summary used in EXPERIMENTS.md.
pub fn summary_line(report: &ExperimentReport) -> String {
    match &report.comparison {
        Some(c) => format!(
            "{}: better at {:.0}% of matched privacy levels, hypervolume {:.3e} vs {:.3e}, extra low-privacy coverage {:.3}",
            report.experiment_id,
            c.fraction_better_at_matched_privacy * 100.0,
            c.challenger_hypervolume,
            c.baseline_hypervolume,
            c.extra_low_privacy_coverage,
        ),
        None => format!("{}: no comparison", report.experiment_id),
    }
}

/// Extracts the OptRR front from a report (the second front by convention).
pub fn optrr_front(report: &ExperimentReport) -> &ParetoFront {
    report
        .fronts
        .iter()
        .find(|f| f.label == "OptRR")
        .expect("figure reports always contain an OptRR front")
}

/// The host's available parallelism (1 when it cannot be read).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the bare flag `name` (e.g. `--smoke`) is on the command line.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Reads the `usize` value following a `--name` CLI flag, shared by the
/// load-generator binaries.
pub fn arg_value(name: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1)?.parse().ok()
}

/// Nearest-rank percentile of a sorted latency sample (0 when empty),
/// shared by the load-generator binaries.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

/// Default untimed warm-up iterations before a timed series: enough to
/// fault in code pages, warm caches, and let lazy pool/allocator state
/// settle so the first timed sample is not an outlier.
pub const DEFAULT_WARMUP_ITERS: usize = 3;

/// Summary statistics of one timed series, in nanoseconds per iteration.
///
/// The p50 is reported alongside the mean because microbenchmark samples
/// are contaminated by rare scheduler/allocator outliers that inflate the
/// mean by integer factors (the committed `BENCH_fitness.json` once showed
/// a 3.3 ms max against a 93 µs min in a 40-sample series); the median is
/// the number speedup comparisons should use.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct TimingSummary {
    /// Arithmetic mean of the samples.
    pub mean_ns: u64,
    /// Nearest-rank median of the samples.
    pub p50_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Number of timed samples (warm-up excluded).
    pub iterations: u64,
}

/// Summarizes raw per-iteration nanosecond samples. Panics on an empty
/// series — a benchmark that measured nothing has no baseline to report.
pub fn summarize_ns(samples: &[u64]) -> TimingSummary {
    assert!(!samples.is_empty(), "cannot summarize an empty series");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    TimingSummary {
        mean_ns: samples.iter().sum::<u64>() / samples.len() as u64,
        p50_ns: percentile(&sorted, 0.5),
        min_ns: sorted[0],
        max_ns: sorted[sorted.len() - 1],
        iterations: samples.len() as u64,
    }
}

/// Runs `warmup` untimed iterations of `f`, then `iters` timed ones, and
/// returns the timed per-iteration samples — the shared warm-up discipline
/// of the bench binaries.
pub fn time_iterations(warmup: usize, iters: usize, mut f: impl FnMut()) -> Vec<u64> {
    assert!(iters > 0, "a timed series needs at least one iteration");
    for _ in 0..warmup {
        f();
    }
    (0..iters)
        .map(|_| {
            let started = std::time::Instant::now();
            f();
            started.elapsed().as_nanos() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_configs_are_valid_and_ordered() {
        for f in [Fidelity::Fast, Fidelity::Standard, Fidelity::Paper] {
            let cfg = f.optimizer_config(0.75, 1);
            assert!(cfg.validate().is_ok());
            assert_eq!(cfg.delta, 0.75);
        }
        assert!(
            Fidelity::Fast.optimizer_config(0.8, 0).engine.generations
                < Fidelity::Standard
                    .optimizer_config(0.8, 0)
                    .engine
                    .generations
        );
        assert!(
            Fidelity::Standard
                .optimizer_config(0.8, 0)
                .engine
                .generations
                < Fidelity::Paper.optimizer_config(0.8, 0).engine.generations
        );
        assert!(Fidelity::Fast.sweep_steps() < Fidelity::Paper.sweep_steps());
    }

    #[test]
    fn fidelity_from_env_defaults_to_standard() {
        // No --fast/--paper argument is passed to the test binary, and the
        // variable is cleared for this check.
        std::env::remove_var("OPTRR_FIDELITY");
        assert_eq!(Fidelity::from_env_and_args(), Fidelity::Standard);
    }

    #[test]
    fn paper_workload_has_paper_shape() {
        let w = paper_workload(SourceDistribution::standard_normal(), 1);
        assert_eq!(w.config.num_categories, 10);
        assert_eq!(w.config.num_records, 10_000);
    }

    #[test]
    fn adult_attribute_is_a_ten_category_distribution() {
        let (dist, n) = adult_first_attribute();
        assert_eq!(dist.num_categories(), 10);
        assert_eq!(n, 10_000);
    }

    #[test]
    fn timing_summary_reports_mean_and_median() {
        let s = summarize_ns(&[10, 20, 30, 40, 1_000]);
        assert_eq!(s.mean_ns, 220);
        assert_eq!(s.p50_ns, 30); // the outlier moves the mean, not the p50
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 1_000);
        assert_eq!(s.iterations, 5);
    }

    #[test]
    fn time_iterations_runs_warmup_untimed() {
        let mut calls = 0usize;
        let samples = time_iterations(2, 5, || calls += 1);
        assert_eq!(calls, 7);
        assert_eq!(samples.len(), 5);
    }

    #[test]
    fn fast_figure_experiment_produces_a_complete_report() {
        let report = run_synthetic_figure(
            "smoke-fig4",
            SourceDistribution::standard_normal(),
            0.8,
            Fidelity::Fast,
            13,
        );
        assert_eq!(report.fronts.len(), 2);
        assert_eq!(report.fronts[0].label, "Warner");
        assert_eq!(report.fronts[1].label, "OptRR");
        assert!(report.comparison.is_some());
        assert!(report.optimizer_statistics.is_some());
        assert!(!optrr_front(&report).is_empty());
        let line = summary_line(&report);
        assert!(line.contains("smoke-fig4"));
        let table = report.render_table();
        assert!(table.contains("OptRR"));
    }
}
