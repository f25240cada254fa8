//! Load generator for the matrix-serving subsystem, in two scenarios:
//!
//! * **Query load** — warms a service with a small batch of priors through
//!   the multi-prior front door, then drives N concurrent query streams
//!   (point queries across the privacy axis, utility-budget queries, and
//!   periodic full-front queries) against the warm sharded store and
//!   reports throughput and latency percentiles. The engine never runs
//!   during the measured phase — the run counters are asserted — so this
//!   measures the serving hot path: registry resolution plus sharded Ω
//!   reads. Results land in `BENCH_serve.json`.
//! * **Tenants** — 100+ keys registered under a deliberately small memory
//!   budget, asserting that LRU evictions occur, the byte accounting stays
//!   under the budget, and every key — evicted or not — still answers
//!   point queries correctly after its transparent re-warm. Results land
//!   in `BENCH_serve_tenants.json`.
//!
//! Both baselines also carry the observability cost: the same query mix
//! driven with the metrics registry recording and disabled, reported as a
//! `metrics_overhead` row (the budget is < 5% of query throughput;
//! responses are bitwise-identical either way).
//!
//! A plain run executes both scenarios and writes both files; `--smoke`
//! runs both at smoke scale, keeps every assertion and writes nothing.
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_serve
//!         [-- --streams N --queries M --tenants K | --smoke]`

use bench_support::{arg_value, cores, flag, percentile, workspace_root, write_baseline};
use serde::Serialize;
use serve::{KeyEntry, KeyState, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct ServeBaseline {
    streams: usize,
    queries_per_stream: usize,
    total_queries: u64,
    wall_seconds: f64,
    throughput_qps: f64,
    latency_mean_ns: u64,
    latency_p50_ns: u64,
    latency_p95_ns: u64,
    latency_p99_ns: u64,
    latency_max_ns: u64,
    registered_keys: usize,
    engine_runs_warmup: u64,
    engine_runs_after_load: u64,
    metrics_overhead: MetricsOverhead,
}

/// The observability cost row: the same single-threaded query mix driven
/// against two identically-seeded services, one with the metrics
/// registry and event trace recording and one with them disabled. The
/// responses are bitwise-identical either way (the invisibility
/// invariant); this row bounds what the *recording* costs the hot path.
#[derive(Serialize, Clone, Copy)]
struct MetricsOverhead {
    queries_per_side: usize,
    metrics_on_qps: f64,
    metrics_off_qps: f64,
    overhead_percent: f64,
}

#[derive(Serialize)]
struct TenantBaseline {
    tenants: usize,
    budget_bytes: u64,
    peak_unbudgeted_bytes_estimate: u64,
    resident_bytes_after_load: u64,
    resident_bytes_after_queries: u64,
    evictions_after_load: u64,
    evictions_total: u64,
    evicted_keys_after_load: usize,
    rewarms_total: u64,
    register_seconds: f64,
    query_seconds: f64,
    metrics_overhead: MetricsOverhead,
}

/// A warm key and its privacy range, for spreading point queries across it.
struct WarmKey {
    entry: Arc<KeyEntry>,
    lo: f64,
    hi: f64,
}

impl WarmKey {
    /// One warm-path query: on even steps the best matrix at a privacy
    /// level `t` of the way up the key's range, on odd steps the best
    /// under a generous utility budget (which always matches).
    fn query(&self, service: &Arc<Service>, step: usize, t: f64) {
        let found = if step % 2 == 0 {
            service.best_for_privacy(&self.entry, self.lo + (self.hi - self.lo) * t)
        } else {
            service.best_for_mse(&self.entry, f64::INFINITY)
        };
        assert!(found.is_some());
    }
}

/// A service warmed with the query-load priors.
fn warm_query_service(config: ServiceConfig) -> (Arc<Service>, Vec<WarmKey>) {
    let service = Arc::new(Service::new(config));
    let priors: Vec<Vec<f64>> = vec![
        vec![0.35, 0.25, 0.2, 0.12, 0.08],
        vec![0.5, 0.2, 0.12, 0.1, 0.08],
        vec![0.25, 0.2, 0.2, 0.2, 0.15],
    ];
    let (entries, _) = service
        .register_batch(None, &priors, 0.8, None)
        .expect("batch registration succeeds");
    let keys = entries
        .into_iter()
        .map(|entry| {
            let range = entry.store().privacy_range();
            let (lo, hi) = range.expect("warm store is non-empty");
            WarmKey { entry, lo, hi }
        })
        .collect();
    (service, keys)
}

/// Measures the metrics-on vs metrics-off query throughput on the warm
/// hot path. Best-of-3 per side to shed scheduler noise.
fn measure_metrics_overhead(queries: usize) -> MetricsOverhead {
    let side = |metrics: bool| -> f64 {
        let (service, keys) = warm_query_service(ServiceConfig {
            metrics,
            ..ServiceConfig::smoke(2008)
        });
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            for step in 0..queries {
                let t = ((step * 7919) % 1000) as f64 / 999.0;
                keys[step % keys.len()].query(&service, step, t);
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        queries as f64 / best.max(1e-9)
    };
    let metrics_on_qps = side(true);
    let metrics_off_qps = side(false);
    let overhead = MetricsOverhead {
        queries_per_side: queries,
        metrics_on_qps,
        metrics_off_qps,
        overhead_percent: (1.0 - metrics_on_qps / metrics_off_qps.max(1e-9)) * 100.0,
    };
    if overhead.overhead_percent >= 5.0 {
        eprintln!(
            "warning: metrics recording costs {:.2}% query throughput (budget is 5%)",
            overhead.overhead_percent
        );
    }
    overhead
}

/// The query-load scenario: concurrent query streams against warm keys.
fn run_query_load(
    streams: usize,
    queries_per_stream: usize,
    metrics_overhead: MetricsOverhead,
) -> ServeBaseline {
    let (service, keys) = warm_query_service(ServiceConfig::smoke(2008));
    let (_, engine_runs_warmup, _, _) = service.service_stats();

    let load_started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(streams * queries_per_stream);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                let service = Arc::clone(&service);
                let keys = &keys;
                scope.spawn(move || {
                    let mut stream_latencies = Vec::with_capacity(queries_per_stream);
                    for step in 0..queries_per_stream {
                        let key = &keys[(stream + step) % keys.len()];
                        let t = ((step * 7919 + stream * 104_729) % 1000) as f64 / 999.0;
                        let started = Instant::now();
                        if step % 64 == 63 {
                            // Periodic full-front query (merge + pareto).
                            assert!(!service.front(&key.entry).is_empty());
                        } else {
                            key.query(&service, step, t);
                        }
                        stream_latencies.push(started.elapsed().as_nanos() as u64);
                    }
                    stream_latencies
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("query stream panicked"));
        }
    });
    let wall_seconds = load_started.elapsed().as_secs_f64();

    let (registered_keys, engine_runs_after_load, queries, warm_hits) = service.service_stats();
    assert_eq!(
        engine_runs_after_load, engine_runs_warmup,
        "the load phase must never re-run the engine"
    );
    assert_eq!(queries, warm_hits, "every load query is a warm hit");

    latencies.sort_unstable();
    let total_queries = latencies.len() as u64;
    ServeBaseline {
        streams,
        queries_per_stream,
        total_queries,
        wall_seconds,
        throughput_qps: total_queries as f64 / wall_seconds.max(1e-9),
        latency_mean_ns: latencies.iter().sum::<u64>() / total_queries.max(1),
        latency_p50_ns: percentile(&latencies, 0.50),
        latency_p95_ns: percentile(&latencies, 0.95),
        latency_p99_ns: percentile(&latencies, 0.99),
        latency_max_ns: percentile(&latencies, 1.0),
        registered_keys,
        engine_runs_warmup,
        engine_runs_after_load,
        metrics_overhead,
    }
}

/// The multi-tenant lifecycle scenario: many keys, small budget.
fn run_tenants(tenants: usize, metrics_overhead: MetricsOverhead) -> TenantBaseline {
    // Deterministic 4-category priors, all distinct fingerprints.
    let priors: Vec<Vec<f64>> = (0..tenants)
        .map(|i| {
            let skew = 1.0 + (i % 37) as f64 * 0.11 + (i / 37) as f64 * 0.017;
            (0..4).map(|c| 1.0 / (c as f64 + skew)).collect()
        })
        .collect();

    // Probe a handful of keys on an unbudgeted twin to size the budget at
    // roughly a quarter of the full load.
    let probe = Arc::new(Service::new(ServiceConfig::tiny(2008)));
    for prior in priors.iter().take(8) {
        probe
            .register(None, prior, 0.8, None, true)
            .expect("probe registration succeeds");
    }
    let (probe_bytes, _, _) = probe.memory_stats();
    let per_key = (probe_bytes / 8).max(1);
    let budget = per_key * tenants as u64 / 4;

    let mut config = ServiceConfig::tiny(2008);
    config.memory_budget_bytes = Some(budget);
    let service = Arc::new(Service::new(config));

    let register_started = Instant::now();
    let (entries, warmed) = service
        .register_batch(None, &priors, 0.8, None)
        .expect("batch registration succeeds");
    service.wait_idle();
    let register_seconds = register_started.elapsed().as_secs_f64();
    assert_eq!(warmed, tenants, "every tenant needs its own warm-up");

    let (resident_after_load, _, evictions_after_load) = service.memory_stats();
    let evicted_after_load = entries
        .iter()
        .filter(|e| e.state() == KeyState::Evicted)
        .count();
    assert!(
        evictions_after_load > 0,
        "{tenants} tenants must not fit a {budget}-byte budget"
    );
    assert!(
        resident_after_load <= budget,
        "byte accounting above budget after load: {resident_after_load} > {budget}"
    );

    // Every key still answers — evicted ones re-warm transparently — and
    // the accounting stays under budget throughout.
    let query_started = Instant::now();
    for entry in &entries {
        let found = service.best_for_privacy(entry, 0.0);
        assert!(
            found.is_some(),
            "key {:x} lost its answers after eviction",
            entry.key()
        );
        let (resident, _, _) = service.memory_stats();
        assert!(
            resident <= budget,
            "byte accounting above budget mid-queries: {resident} > {budget}"
        );
    }
    service.wait_idle();
    let query_seconds = query_started.elapsed().as_secs_f64();
    let (resident_after_queries, _, evictions_total) = service.memory_stats();
    assert!(resident_after_queries <= budget);
    let rewarms_total: u64 = entries.iter().map(|e| e.rewarms()).sum();
    assert!(
        rewarms_total > 0,
        "querying every key must have re-warmed the evicted ones"
    );
    println!(
        "{tenants} tenants under a {budget}-byte budget: {evictions_after_load} evictions after \
         load, {rewarms_total} re-warms, {evictions_total} evictions total, all answered"
    );

    TenantBaseline {
        tenants,
        budget_bytes: budget,
        peak_unbudgeted_bytes_estimate: per_key * tenants as u64,
        resident_bytes_after_load: resident_after_load,
        resident_bytes_after_queries: resident_after_queries,
        evictions_after_load,
        evictions_total,
        evicted_keys_after_load: evicted_after_load,
        rewarms_total,
        register_seconds,
        query_seconds,
        metrics_overhead,
    }
}

fn main() {
    let smoke = flag("--smoke");
    let streams = arg_value("--streams")
        .unwrap_or(if smoke { 2 } else { cores() })
        .max(1);
    let queries = arg_value("--queries")
        .unwrap_or(if smoke { 500 } else { 5_000 })
        .max(1);
    let tenants = arg_value("--tenants").unwrap_or(120).max(8);

    let overhead = measure_metrics_overhead(if smoke { 2_000 } else { 20_000 });
    let root = workspace_root();
    let serve = run_query_load(streams, queries, overhead);
    write_baseline(&root, "serve", smoke, &serve);
    let tenants = run_tenants(tenants, overhead);
    write_baseline(&root, "serve_tenants", smoke, &tenants);
}
