//! Microbenchmark of the hot-path kernels: alias-table disguise sampling,
//! blocked matrix multiply, slice-based LU, the fitness-kernel fill at the
//! calibrated parallel threshold, and batched candidate evaluation.
//!
//! Every optimized kernel is timed against the reference implementation it
//! replaced (`rr::disguise_dataset_reference`, `linalg::reference`), and
//! every parallel path against its serial twin after asserting the two
//! bitwise equal, with shared warm-up discipline and p50-over-p50
//! speedups. Results land in `BENCH_kernels.json` at the workspace root.
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_kernels
//!  [-- --smoke | --report]`
//!
//! `--smoke` runs a fast pass without writing the baseline; `--report`
//! does no measuring at all — it prints the headline lines of every
//! committed `BENCH_*.json` (report-only; missing files are noted, never
//! fatal), which is what the CI perf-delta step runs.

use bench_support::{
    flag, summarize_ns, time_iterations, workspace_root, write_baseline, TimingSummary,
    DEFAULT_WARMUP_ITERS,
};
use datagen::CategoricalDataset;
use emoo::kernel::FitnessKernel;
use emoo::{Individual, Objectives};
use linalg::{LuDecomposition, Matrix};
use optrr::{OptrrConfig, OptrrProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rr::RrMatrix;
use serde::Serialize;

/// A reference implementation timed against the optimized kernel that
/// replaced it.
#[derive(Serialize)]
struct VersusRow {
    n: usize,
    naive: TimingSummary,
    optimized: TimingSummary,
    /// Naive p50 over optimized p50 — ≥ 1 means the optimized kernel wins.
    optimized_over_naive: f64,
}

#[derive(Serialize)]
struct KernelFillRow {
    population: usize,
    fresh_pairs: usize,
    serial: TimingSummary,
    parallel: TimingSummary,
    calibrated: TimingSummary,
    serial_over_parallel: f64,
}

/// One generation's batch of `matrices` candidate n×n matrices through
/// `OptrrProblem::evaluate_matrices`.
#[derive(Serialize)]
struct BatchEvaluationRow {
    n: usize,
    matrices: usize,
    serial: TimingSummary,
    /// Parallel at any batch size (`batch_min_work` 0).
    parallel: TimingSummary,
    /// Parallel above the installed `batch_min_work` — the engines' path.
    calibrated: TimingSummary,
    /// Every matrix already in the evaluation cache.
    cached: TimingSummary,
    serial_over_parallel: f64,
    serial_over_calibrated: f64,
}

#[derive(Serialize)]
struct KernelsBaseline {
    /// Draws per `sampler` iteration and records per `disguise` iteration.
    alias_items: usize,
    /// Inverse-CDF (naive) vs alias-table (optimized) draws.
    sampler: Vec<VersusRow>,
    /// Cached-CDF (naive) vs alias-table (optimized) whole-dataset disguise.
    disguise: Vec<VersusRow>,
    matmul: Vec<VersusRow>,
    lu: Vec<VersusRow>,
    kernel_fill: Vec<KernelFillRow>,
    batch_evaluation: Vec<BatchEvaluationRow>,
}

fn ratio(reference_p50: u64, optimized_p50: u64) -> f64 {
    reference_p50 as f64 / optimized_p50.max(1) as f64
}

/// Times `naive`, then `optimized`, with the shared warm-up discipline.
fn versus(
    n: usize,
    warmup: usize,
    iters: usize,
    naive: impl FnMut(),
    optimized: impl FnMut(),
) -> VersusRow {
    let naive = summarize_ns(&time_iterations(warmup, iters, naive));
    let optimized = summarize_ns(&time_iterations(warmup, iters, optimized));
    VersusRow {
        n,
        optimized_over_naive: ratio(naive.p50_ns, optimized.p50_ns),
        naive,
        optimized,
    }
}

/// Times the bare per-draw sampling kernels — O(log n) inverse-CDF binary
/// search vs O(1) alias lookup — over one warner column, with the samplers
/// built outside the timed region. This is the per-record cost the alias
/// table buys; [`disguise_series`] measures the whole path around it
/// (sampler build, record loop, outcome collection).
fn sampler_series(n: usize, draws: usize, warmup: usize, iters: usize) -> VersusRow {
    let m = rr::schemes::warner(n, 0.6).expect("warner matrix");
    let column = m.randomization_distribution(n / 2).expect("column");
    let table = rr::AliasTable::from_distribution(&column);
    let (mut naive_rng, mut alias_rng) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
    versus(
        n,
        warmup,
        iters,
        || {
            let acc = (0..draws).fold(0, |acc, _| acc ^ column.sample(&mut naive_rng));
            std::hint::black_box(acc);
        },
        || {
            let acc = (0..draws).fold(0, |acc, _| acc ^ table.sample(&mut alias_rng));
            std::hint::black_box(acc);
        },
    )
}

/// Times alias-table vs cached-CDF disguise over a cyclic record stream.
/// Both paths rebuild their per-column samplers inside the timed region —
/// the build is part of each path's real cost — and draw exactly one
/// uniform per record.
fn disguise_series(n: usize, records: usize, warmup: usize, iters: usize) -> VersusRow {
    let m = rr::schemes::warner(n, 0.6).expect("warner matrix");
    let data = CategoricalDataset::new(n, (0..records).map(|i| i % n).collect())
        .expect("cyclic records are in range");
    let (mut naive_rng, mut alias_rng) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
    versus(
        n,
        warmup,
        iters,
        || {
            let out = rr::disguise_dataset_reference(&m, &data, &mut naive_rng);
            std::hint::black_box(out.expect("disguise").retained);
        },
        || {
            let out = rr::disguise_dataset(&m, &data, &mut alias_rng);
            std::hint::black_box(out.expect("disguise").retained);
        },
    )
}

/// A deterministic dense test matrix with exact zeros sprinkled in so the
/// multiply's zero-skip path is exercised on both sides.
fn dense(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let t = ((salt as f64) + (i * cols + j) as f64).sin();
            m[(i, j)] = if t.abs() < 0.05 { 0.0 } else { t };
        }
    }
    m
}

fn matmul_series(n: usize, warmup: usize, iters: usize) -> VersusRow {
    let a = dense(n, n, 1);
    let b = dense(n, n, 2);
    versus(
        n,
        warmup,
        iters,
        || {
            let out = linalg::reference::mul_matrix_naive(&a, &b).expect("multiply");
            std::hint::black_box(out.as_slice()[0]);
        },
        || {
            let out = a.mul_matrix(&b).expect("multiply");
            std::hint::black_box(out.as_slice()[0]);
        },
    )
}

/// A diagonally-dominant column-stochastic matrix — the shape evaluation
/// inverts — sized for the LU timing.
fn stochastic(n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let off = 0.3 / (n as f64 - 1.0);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = if i == j { 0.7 } else { off };
        }
    }
    m
}

fn lu_series(n: usize, warmup: usize, iters: usize) -> VersusRow {
    let m = stochastic(n);
    versus(
        n,
        warmup,
        iters,
        || {
            let (lu, _, _) = linalg::reference::lu_factor_naive(&m).expect("factor");
            std::hint::black_box(lu.as_slice()[0]);
        },
        || {
            let lu = LuDecomposition::new(&m).expect("factor");
            std::hint::black_box(lu.packed().as_slice()[0]);
        },
    )
}

/// Times one full fresh fitness-kernel fill (every pair fresh) for a
/// population, in the serial, forced-parallel, and calibrated kernel
/// configurations.
fn kernel_fill_series(population: usize, warmup: usize, iters: usize) -> KernelFillRow {
    let mut rng = StdRng::seed_from_u64(23);
    let members: Vec<Individual<u64>> = (0..population as u64)
        .map(|id| {
            let t: f64 = rand::Rng::gen(&mut rng);
            Individual::new(id, Objectives::pair(t, 1.0 - t))
        })
        .collect();
    let ids: Vec<u64> = (0..population as u64).collect();
    let timed = |threshold: Option<usize>| {
        summarize_ns(&time_iterations(warmup, iters, || {
            // A fresh kernel per iteration keeps every pair a fresh pair.
            let mut kernel = match threshold {
                Some(t) => FitnessKernel::with_parallel_threshold(t),
                None => FitnessKernel::new(),
            };
            let mut filled = members.clone();
            kernel.assign_fitness(&mut filled, &ids, 1);
            std::hint::black_box(filled[0].fitness);
        }))
    };
    let serial = timed(Some(usize::MAX));
    let parallel = timed(Some(0));
    let calibrated = timed(None);
    KernelFillRow {
        population,
        fresh_pairs: population * (population - 1) / 2,
        serial_over_parallel: ratio(serial.p50_ns, parallel.p50_ns),
        serial,
        parallel,
        calibrated,
    }
}

/// Times batched candidate evaluation of `count` random n×n matrices —
/// serial, forced-parallel and calibrated, each on a fresh clone so the
/// evaluation cache stays cold, then warm-cache lookups — after asserting
/// all three paths return bitwise-equal evaluations.
fn batch_evaluation_series(
    n: usize,
    count: usize,
    warmup: usize,
    iters: usize,
) -> BatchEvaluationRow {
    let normal = stats::Normal::new(0.0, 1.0).expect("unit normal");
    let prior = stats::discretize_distribution(&normal, n).expect("discretized prior");
    let problem = |parallel: bool| {
        let config = OptrrConfig {
            parallel_evaluation: parallel,
            ..OptrrConfig::fast(0.75, 1)
        };
        OptrrProblem::new(prior.clone(), &config).expect("valid problem")
    };
    let mut rng = StdRng::seed_from_u64(7);
    let matrices: Vec<RrMatrix> = (0..count)
        .map(|_| RrMatrix::random(n, &mut rng).expect("random matrix"))
        .collect();
    let serial = problem(false);
    let parallel = problem(true).with_batch_min_work(0);
    let calibrated = problem(true);

    // Every field of every evaluation, bit for bit.
    let bits = |p: &OptrrProblem| -> Vec<[u64; 4]> {
        let evaluations = p.clone().evaluate_matrices(&matrices);
        let bits = |e: &optrr::Evaluation| {
            let [privacy, mse, posterior] = [e.privacy, e.mse, e.max_posterior].map(f64::to_bits);
            [privacy, mse, posterior, u64::from(e.feasible)]
        };
        evaluations.iter().map(bits).collect()
    };
    let reference = bits(&serial);
    assert!(
        bits(&parallel) == reference && bits(&calibrated) == reference,
        "parallel batch evaluation diverged from serial at n={n}"
    );

    let cold = |p: &OptrrProblem| {
        summarize_ns(&time_iterations(warmup, iters, || {
            std::hint::black_box(p.clone().evaluate_matrices(&matrices));
        }))
    };
    let (serial_t, parallel_t, calibrated_t) = (cold(&serial), cold(&parallel), cold(&calibrated));
    serial.evaluate_matrices(&matrices);
    let cached = summarize_ns(&time_iterations(warmup, iters, || {
        std::hint::black_box(serial.evaluate_matrices(&matrices));
    }));
    BatchEvaluationRow {
        n,
        matrices: count,
        serial_over_parallel: ratio(serial_t.p50_ns, parallel_t.p50_ns),
        serial_over_calibrated: ratio(serial_t.p50_ns, calibrated_t.p50_ns),
        serial: serial_t,
        parallel: parallel_t,
        calibrated: calibrated_t,
        cached,
    }
}

fn main() {
    let root = workspace_root();
    if flag("--report") {
        let _ = bench_support::report(&root, &mut std::io::stdout());
        return;
    }
    let smoke = flag("--smoke");
    let warmup = DEFAULT_WARMUP_ITERS;
    let (disguise_records, disguise_iters) = if smoke { (5_000, 3) } else { (100_000, 12) };
    let linalg_iters = if smoke { 4 } else { 30 };
    let fill_iters = if smoke { 3 } else { 15 };
    let fill_populations: &[usize] = if smoke { &[64] } else { &[128, 512] };
    let batch_iters = if smoke { 3 } else { 30 };

    // Install the calibrated (or OPTRR_TUNE) thresholds before the
    // calibrated series read them.
    optrr::tuning();
    let alias_sizes = [4usize, 16, 64, 256];
    let linalg_sizes = [32usize, 64, 96];
    let baseline = KernelsBaseline {
        alias_items: disguise_records,
        sampler: alias_sizes
            .map(|n| sampler_series(n, disguise_records, warmup, disguise_iters))
            .into(),
        disguise: alias_sizes
            .map(|n| disguise_series(n, disguise_records, warmup, disguise_iters))
            .into(),
        matmul: linalg_sizes
            .map(|n| matmul_series(n, warmup, linalg_iters))
            .into(),
        lu: linalg_sizes
            .map(|n| lu_series(n, warmup, linalg_iters))
            .into(),
        kernel_fill: fill_populations
            .iter()
            .map(|&population| kernel_fill_series(population, warmup, fill_iters))
            .collect(),
        batch_evaluation: [10, 20]
            .map(|n| batch_evaluation_series(n, 128, warmup, batch_iters))
            .into(),
    };
    write_baseline(&root, "kernels", smoke, &baseline);
}
