//! Load generator for the streaming disguise + estimation pipeline.
//!
//! Warms a service with one registered prior, then drives N concurrent
//! ingest streams: each stream samples raw batches from the registered
//! prior and pushes them through `Service::ingest` (server-side disguise
//! through the pinned matrix, sharded accumulation), calling `Estimate`
//! every few batches the way a live miner would. Reports ingest throughput
//! (records/s and batches/s) and per-call latency percentiles for both
//! verbs. The engine never runs during the measured phase — the streams
//! follow the registered prior, so no drift refresh fires, and the run
//! counter is asserted. Results land in `BENCH_pipeline.json` at the
//! workspace root, next to `BENCH_serve.json`; `--smoke` runs a scaled-down
//! pass with every assertion and writes nothing.
//!
//! Usage:
//! `cargo run -p optrr-bench --release --bin bench_pipeline
//!  [-- --streams N --batches B --batch-size S --estimate-every E | --smoke]`

use bench_support::{arg_value, cores, flag, percentile, workspace_root, write_baseline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use serve::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct PipelineBaseline {
    streams: usize,
    batches_per_stream: usize,
    batch_size: usize,
    estimate_every: usize,
    ingested_records: u64,
    ingested_batches: u64,
    wall_seconds: f64,
    ingest_records_per_second: f64,
    ingest_batches_per_second: f64,
    ingest_latency_p50_ns: u64,
    ingest_latency_p99_ns: u64,
    estimates: u64,
    estimate_latency_p50_ns: u64,
    estimate_latency_p99_ns: u64,
    final_mse_vs_prior: f64,
    final_method: String,
    engine_runs_warmup: u64,
    engine_runs_after_load: u64,
}

fn main() {
    let smoke = flag("--smoke");
    let streams = arg_value("--streams")
        .unwrap_or(if smoke { 2 } else { cores() })
        .max(1);
    let batches_per_stream = arg_value("--batches")
        .unwrap_or(if smoke { 20 } else { 200 })
        .max(1);
    let batch_size = arg_value("--batch-size")
        .unwrap_or(if smoke { 200 } else { 500 })
        .max(1);
    let estimate_every = arg_value("--estimate-every")
        .unwrap_or(if smoke { 8 } else { 16 })
        .max(1);

    // Drift refresh is disabled for the measured phase: a mid-run estimate
    // sees a thread-timing-dependent subset of the other streams' batches,
    // and a rare sampling fluctuation past the drift threshold would
    // otherwise schedule an engine run and fail the no-rerun assertion.
    let service = Arc::new(Service::new(ServiceConfig {
        refresh_on_drift: false,
        ..ServiceConfig::smoke(2008)
    }));
    let prior_weights = [0.35, 0.25, 0.2, 0.12, 0.08];
    let warm_started = Instant::now();
    let entry = service
        .register(Some("pipeline"), &prior_weights, 0.8, None, true)
        .expect("registration succeeds");
    println!(
        "warmed key {:x} in {:.2}s",
        entry.key(),
        warm_started.elapsed().as_secs_f64()
    );
    let (_, engine_runs_warmup, _, _) = service.service_stats();
    let prior = entry.prior().clone();

    let load_started = Instant::now();
    let mut ingest_latencies: Vec<u64> = Vec::new();
    let mut estimate_latencies: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                let service = Arc::clone(&service);
                let entry = Arc::clone(&entry);
                let prior = prior.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(9000 + stream as u64);
                    let mut ingest_ns = Vec::with_capacity(batches_per_stream);
                    let mut estimate_ns = Vec::new();
                    for batch in 0..batches_per_stream {
                        let records = prior.sample_many(&mut rng, batch_size);
                        let started = Instant::now();
                        service
                            .ingest(
                                &entry,
                                Some(0.0),
                                Some(&records),
                                None,
                                Some((stream * 100_000 + batch) as u64),
                            )
                            .expect("ingest batch lands");
                        ingest_ns.push(started.elapsed().as_nanos() as u64);
                        if (batch + 1) % estimate_every == 0 {
                            // Mid-run estimates cover whatever subset of the
                            // other streams' batches happens to have landed,
                            // so only latency is recorded here; the no-drift
                            // assertion runs on the deterministic final
                            // estimate over everything merged.
                            let started = Instant::now();
                            service.estimate(&entry).expect("estimate succeeds");
                            estimate_ns.push(started.elapsed().as_nanos() as u64);
                        }
                    }
                    (ingest_ns, estimate_ns)
                })
            })
            .collect();
        for handle in handles {
            let (ingest_ns, estimate_ns) = handle.join().expect("stream panicked");
            ingest_latencies.extend(ingest_ns);
            estimate_latencies.extend(estimate_ns);
        }
    });
    let wall_seconds = load_started.elapsed().as_secs_f64();

    let (_, engine_runs_after_load, _, _) = service.service_stats();
    assert_eq!(
        engine_runs_after_load, engine_runs_warmup,
        "the measured phase must never re-run the engine"
    );

    // One final estimate over everything the streams ingested: the merged
    // accumulator is order-independent, so this one is deterministic and
    // must sit far under the drift threshold.
    let final_estimate = service.estimate(&entry).expect("final estimate");
    assert!(
        !final_estimate.drifted,
        "streams follow the prior; the final estimate must not drift (mse {})",
        final_estimate.mse_vs_prior
    );
    let pipeline = entry.pipeline().expect("pipeline pinned");
    let ingested_batches = pipeline.counts().batches();
    let ingested_records = pipeline.counts().total();
    assert_eq!(
        ingested_records,
        (streams * batches_per_stream * batch_size) as u64
    );

    ingest_latencies.sort_unstable();
    estimate_latencies.sort_unstable();
    let baseline = PipelineBaseline {
        streams,
        batches_per_stream,
        batch_size,
        estimate_every,
        ingested_records,
        ingested_batches,
        wall_seconds,
        ingest_records_per_second: ingested_records as f64 / wall_seconds.max(1e-9),
        ingest_batches_per_second: ingested_batches as f64 / wall_seconds.max(1e-9),
        ingest_latency_p50_ns: percentile(&ingest_latencies, 0.50),
        ingest_latency_p99_ns: percentile(&ingest_latencies, 0.99),
        estimates: estimate_latencies.len() as u64 + 1,
        estimate_latency_p50_ns: percentile(&estimate_latencies, 0.50),
        estimate_latency_p99_ns: percentile(&estimate_latencies, 0.99),
        final_mse_vs_prior: final_estimate.mse_vs_prior,
        final_method: final_estimate.method.to_string(),
        engine_runs_warmup,
        engine_runs_after_load,
    };

    write_baseline(&workspace_root(), "pipeline", smoke, &baseline);
}
