//! Benchmark of the incremental fitness kernel against from-scratch SPEA2
//! fitness assignment.
//!
//! Simulates the engine's steady state: a combined population of `n`
//! individuals where a `survival` fraction (the archive, ≥ 50% here)
//! carries over between generations and the rest are fresh offspring. Each
//! generation is fitness-assigned four ways — from scratch
//! ([`emoo::assign_fitness`]), and through a persistent
//! [`emoo::FitnessKernel`] in serial, forced-parallel, and calibrated
//! (production-default) configurations — with the results asserted bitwise
//! equal before the timings are trusted. The three kernel series share one
//! population walk and are timed round-robin within each generation, so
//! they are compared under the same host conditions. The first
//! generations of every series are untimed warm-up, and speedups compare
//! medians, not means.
//!
//! The calibrated series is the one the engines actually run:
//! [`FitnessKernel::new`] reads the threshold installed by
//! [`optrr::tuning`] (startup probe, or the `OPTRR_TUNE` override) and
//! switches between the serial and parallel fill per generation. The run
//! asserts that this chosen path is never more than 10% slower (p50) than
//! the better of the two fixed paths at any benched `n` — the guard
//! against the old regression where the reported "parallel" series forced
//! the fan-out at sizes it could not pay for. Results land in
//! `BENCH_fitness.json` at the workspace root.
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_fitness
//!  [-- --generations G --survival-percent P | --smoke]`

use bench_support::{
    arg_value, flag, summarize_ns, workspace_root, write_baseline, TimingSummary,
    DEFAULT_WARMUP_ITERS,
};
use emoo::kernel::FitnessKernel;
use emoo::{assign_fitness, Individual, Objectives};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// One measured series.
#[derive(Serialize)]
struct Entry {
    name: String,
    timing: TimingSummary,
}

/// The emitted baseline: per-series rows plus the headline speedups the
/// acceptance criteria read. All speedups are p50-over-p50.
#[derive(Serialize)]
struct FitnessBaseline {
    generations: usize,
    warmup_generations: usize,
    survival: f64,
    entries: Vec<Entry>,
    speedup_incremental: Vec<SpeedupEntry>,
}

#[derive(Serialize)]
struct SpeedupEntry {
    n: usize,
    /// Scratch p50 over serial-kernel p50.
    scratch_over_incremental: f64,
    /// Scratch p50 over the calibrated (production-default) kernel p50 —
    /// the path the engines actually take.
    scratch_over_incremental_parallel: f64,
    /// Scratch p50 over the forced-parallel (threshold 0) kernel p50, the
    /// diagnostic that documents why the threshold exists.
    scratch_over_forced_parallel: f64,
}

/// A synthetic two-objective point cloud shaped like the engine's: mostly
/// near a front with some dominated stragglers.
fn random_point(rng: &mut StdRng) -> Objectives {
    let t: f64 = rng.gen();
    let noise: f64 = rng.gen::<f64>() * 0.3;
    Objectives::pair(t + noise, (1.0 - t) + noise)
}

/// Drives `warmup + generations` steps of one population of size `n` with
/// the given survivor count. Every generation times each supplied
/// assignment closure once and asserts its result bitwise equal to the
/// from-scratch fitness; the warm-up samples are discarded. Returns one
/// sample series per closure, in `assigns` order.
fn run_series<F: FnMut(&mut Vec<Individual<u64>>, &[u64]) -> u64>(
    n: usize,
    survivors: usize,
    warmup: usize,
    generations: usize,
    density_k: usize,
    seed: u64,
    assigns: &mut [F],
) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    let mut members: Vec<Individual<u64>> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut samples = vec![Vec::with_capacity(warmup + generations); assigns.len()];
    for generation in 0..(warmup + generations) {
        // Survivors keep their ids; the rest of the population is fresh.
        members.truncate(survivors.min(members.len()));
        ids.truncate(members.len());
        while members.len() < n {
            members.push(Individual::new(next_id, random_point(&mut rng)));
            ids.push(next_id);
            next_id += 1;
        }

        // The reference implementation, outside the timed sections.
        let mut reference: Vec<Individual<u64>> = members.clone();
        for ind in &mut reference {
            ind.fitness = None;
        }
        assign_fitness(&mut reference, density_k);

        // Round-robin: across generations the closures run in every
        // order (the first one rotates and the direction alternates), so
        // host noise that drifts during the walk, and the slowdown of
        // whatever runs right after a forced-parallel fill, land on every
        // series alike.
        let k = assigns.len();
        for turn in 0..k {
            let step = if generation % 2 == 0 { turn } else { k - turn };
            let which = (generation / 2 + step) % k;
            samples[which].push(assigns[which](&mut members, &ids));
            for (a, b) in members.iter().zip(&reference) {
                assert_eq!(
                    a.fitness.expect("assigned").to_bits(),
                    b.fitness.expect("assigned").to_bits(),
                    "incremental fitness diverged from scratch"
                );
            }
        }
    }
    samples
        .into_iter()
        .map(|mut series| series.split_off(warmup))
        .collect()
}

fn main() {
    let smoke = flag("--smoke");
    let generations = arg_value("--generations").unwrap_or(if smoke { 6 } else { 40 });
    let warmup = DEFAULT_WARMUP_ITERS;
    let survival_percent = arg_value("--survival-percent").unwrap_or(50).min(95);
    let density_k = 1usize;
    let sizes = [50usize, 100, 200];

    // Install the startup-calibrated kernel threshold (or the OPTRR_TUNE
    // override) before any FitnessKernel::new() below reads it.
    optrr::tuning();

    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for &n in &sizes {
        let survivors = n * survival_percent / 100;

        // From scratch: the pre-kernel O(n²) path, every generation.
        let scratch = run_series(
            n,
            survivors,
            warmup,
            generations,
            density_k,
            7,
            &mut [|members: &mut Vec<Individual<u64>>, _ids: &[u64]| {
                let started = Instant::now();
                assign_fitness(members, density_k);
                started.elapsed().as_nanos() as u64
            }],
        );
        let scratch = summarize_ns(&scratch[0]);

        // Incremental: one kernel persists per series, and the three
        // series share one round-robin walk. Serial never crosses the
        // parallel threshold, forced always does, and the calibrated
        // kernel (the engines' configuration) decides per generation from
        // the installed threshold.
        let mut kernels = [
            FitnessKernel::with_parallel_threshold(usize::MAX),
            FitnessKernel::with_parallel_threshold(0),
            FitnessKernel::new(),
        ]
        .map(|mut kernel| {
            move |members: &mut Vec<Individual<u64>>, ids: &[u64]| {
                let started = Instant::now();
                kernel.assign_fitness(members, ids, density_k);
                started.elapsed().as_nanos() as u64
            }
        });
        let series = run_series(
            n,
            survivors,
            warmup,
            generations,
            density_k,
            7,
            &mut kernels,
        );
        let [serial, forced, calibrated] = [0, 1, 2].map(|i| summarize_ns(&series[i]));

        // The production path must track the better fixed path: >10%
        // slower than either at any benched n is the benchmark regression
        // this guard exists for.
        let best_fixed = serial.p50_ns.min(forced.p50_ns);
        assert!(
            calibrated.p50_ns as f64 <= best_fixed as f64 * 1.10,
            "calibrated kernel path is >10% slower than the best fixed path at n={n}: \
             calibrated p50 {} ns vs best fixed p50 {} ns (serial {}, forced-parallel {})",
            calibrated.p50_ns,
            best_fixed,
            serial.p50_ns,
            forced.p50_ns,
        );

        let over = |timing: TimingSummary| scratch.p50_ns as f64 / timing.p50_ns.max(1) as f64;
        speedups.push(SpeedupEntry {
            n,
            scratch_over_incremental: over(serial),
            scratch_over_incremental_parallel: over(calibrated),
            scratch_over_forced_parallel: over(forced),
        });
        for (series, timing) in [
            ("scratch", scratch),
            ("incremental_serial", serial),
            ("incremental_parallel", calibrated),
            ("incremental_forced_parallel", forced),
        ] {
            let name = format!("fitness_{series}/n{n}");
            entries.push(Entry { name, timing });
        }
    }

    let baseline = FitnessBaseline {
        generations,
        warmup_generations: warmup,
        survival: survival_percent as f64 / 100.0,
        entries,
        speedup_incremental: speedups,
    };
    write_baseline(&workspace_root(), "fitness", smoke, &baseline);
}
