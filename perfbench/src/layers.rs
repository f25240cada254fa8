//! What every workload shares: registering a key over a connection, the
//! `front_hypervolume` quality figure, and the component layers of the
//! traced run — registry and shard lookups, the ingest pipeline and the
//! randomizer, the telemetry overhead, and direct optimizer runs — each
//! measured by direct calls on the workload's own keys. The front-door
//! layers, which depend on the workload's request stream, are in
//! [`crate::replay`].

use crate::check;
use crate::gen::{self, Rng64};
use crate::report::Report;
use crate::stack::{self, micros_since, Conn};
use crate::stats::median;
use crate::trace::Tracer;
use optrr::FrontPoint;
use serve::wire::Codec;
use serve::{Request, Service};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every workload's registrations use this worst-case posterior bound.
pub const DELTA: f64 = 0.8;

/// Records per ingest batch.
pub const BATCH: usize = 4096;

/// A key registered over a connection, with what the layers need of it.
#[derive(Debug, Clone)]
pub struct Registered {
    pub name: String,
    pub key: u64,
    pub n: usize,
    pub prior: Vec<f64>,
    /// The front served right after the first warm-up.
    pub front: Vec<FrontPoint>,
    /// The `Register` round trip.
    pub register_ms: f64,
}

impl Registered {
    /// The served front's privacy range.
    pub fn privacy_range(&self) -> (f64, f64) {
        span(&self.front, |p| p.privacy)
    }

    /// The served front's MSE range.
    pub fn mse_range(&self) -> (f64, f64) {
        span(&self.front, |p| p.mse)
    }
}

fn span(front: &[FrontPoint], f: fn(&FrontPoint) -> f64) -> (f64, f64) {
    front
        .iter()
        .map(f)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
}

/// The `Register` request for a named prior.
pub fn register_request(name: &str, prior: &[f64]) -> Request {
    Request::Register {
        name: Some(name.to_string()),
        prior: prior.to_vec(),
        delta: DELTA,
        slots: None,
        lazy: None,
    }
}

/// Registers `prior` under `name` over `conn` (timing the round trip) and
/// reads back its served front.
pub fn register(conn: &mut Conn, name: &str, prior: &[f64]) -> Result<Registered, String> {
    let start = Instant::now();
    let key = stack::registered_key(conn.request(&register_request(name, prior))?)?;
    let register_ms = start.elapsed().as_secs_f64() * 1e3;
    let front = stack::front(conn, key)?;
    Ok(Registered {
        name: name.to_string(),
        key,
        n: prior.len(),
        prior: prior.to_vec(),
        front,
        register_ms,
    })
}

/// `front_hypervolume` averages over at most this many keys, the first
/// ones registered: a fixed set, so the figure does not depend on how
/// many keys a run reaches.
pub const QUALITY_KEYS: usize = 20;

/// Mean over the first [`QUALITY_KEYS`] keys of [`key_hypervolume`].
pub fn front_hypervolume(keys: &[Registered]) -> Result<f64, String> {
    if keys.is_empty() {
        return Err("front_hypervolume needs at least one key".into());
    }
    let config = serve::env::config_from_env(true)
        .map_err(|e| e.to_string())?
        .base;
    let hv = keys[..keys.len().min(QUALITY_KEYS)]
        .iter()
        .map(|k| key_hypervolume(k, &config))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(hv.iter().sum::<f64>() / hv.len() as f64)
}

/// Warner sweep resolution for the hypervolume baseline.
const WARNER_STEPS: usize = 201;

/// The 2-D hypervolume of a key's served (privacy, MSE) front over the
/// box from privacy 0 to 1 and MSE 0 to 1.1× the front's worst MSE, as a
/// multiple of the hypervolume the paper's Warner baseline (a 201-step
/// sweep on the same prior and δ) covers in the same box. Dividing by the
/// baseline takes out how much the prior alone shapes the front; above 1,
/// the served front beats Warner where it operates. A search that stops
/// early leaves the front higher and the figure lower.
fn key_hypervolume(key: &Registered, base: &optrr::OptrrConfig) -> Result<f64, String> {
    let prior = stats::Categorical::from_weights(&key.prior).map_err(|e| e.to_string())?;
    let config = optrr::OptrrConfig {
        delta: DELTA,
        ..base.clone()
    };
    let problem = optrr::OptrrProblem::new(prior, &config).map_err(|e| e.to_string())?;
    let warner = optrr::baseline_sweep(&problem, optrr::SchemeKind::Warner, WARNER_STEPS).front;
    let served = optrr::ParetoFront::from_points("served", &key.front);
    let reference = 1.1 * served.points.iter().map(|p| p.mse).fold(0.0, f64::max);
    let baseline = warner.hypervolume(reference);
    if baseline.is_nan() || baseline <= 0.0 {
        return Err(format!(
            "Warner baseline covers nothing for key {}",
            key.name
        ));
    }
    Ok(served.hypervolume(reference) / baseline)
}

/// Lookups per key for the registry and shard figures.
const LOOKUPS_PER_KEY: usize = 256;

/// `registry.resolve_us.{by_name,by_key}` and `shard.best_for_privacy_us`:
/// `Service::resolve` and `Service::best_for_privacy` called directly on
/// `keys` (all warm on `service`), with seeded privacy floors inside each
/// key's served range; every lookup must find its key and a match.
pub fn resolve_and_shard(
    report: &mut Report,
    service: &Arc<Service>,
    keys: &[Registered],
    seed: u64,
    tracer: &mut Tracer,
) {
    let mut rng = Rng64::stream(seed, "layers.lookups");
    let mut by_name = Vec::new();
    let mut by_key = Vec::new();
    let mut shard = Vec::new();
    for i in 0..keys.len() * LOOKUPS_PER_KEY {
        let k = &keys[i % keys.len()];
        let i = i as u64;
        let t0 = tracer.now();
        let entry = service.resolve(Some(k.key), None);
        let t1 = tracer.now();
        let named = service.resolve(None, Some(&k.name));
        let t2 = tracer.now();
        tracer.record("registry.resolve_by_key", t0, t1, None, i);
        tracer.record("registry.resolve_by_name", t1, t2, None, i);
        by_key.push((t1 - t0) as f64 / 1e3);
        by_name.push((t2 - t1) as f64 / 1e3);
        let (Ok(entry), Ok(_)) = (entry, named) else {
            report.fail(format!("resolving key {} failed", k.name));
            continue;
        };
        let (lo, hi) = k.privacy_range();
        let floor = gen::inside(&mut rng, lo, hi, 0.02);
        let t3 = tracer.now();
        let found = service.best_for_privacy(&entry, floor);
        let t4 = tracer.now();
        tracer.record("shard.best_for_privacy", t3, t4, None, i);
        shard.push((t4 - t3) as f64 / 1e3);
        if found.is_none() {
            report.fail(format!(
                "in-process best_for_privacy({floor}) on {} found nothing",
                k.name
            ));
        }
    }
    report.metric("registry.resolve_us.by_name", median(&by_name), "us");
    report.metric("registry.resolve_us.by_key", median(&by_key), "us");
    report.metric("shard.best_for_privacy_us", median(&shard), "us");
}

/// A key fed to the pipeline probe: its pinning floor and the batches
/// that go in, in turn.
pub struct Probe {
    pub key: u64,
    pub n: usize,
    pub min_privacy: f64,
    pub batches: Vec<Vec<usize>>,
}

/// Probes for keys that the workload itself never ingests into: each
/// key's floor in the bottom 5% of its served privacy range (a
/// well-conditioned channel) and two batches drawn from its prior.
pub fn probes(seed: u64, keys: &[Registered]) -> Vec<Probe> {
    let mut rng = Rng64::stream(seed, "layers.probes");
    keys.iter()
        .map(|k| {
            let (lo, hi) = k.privacy_range();
            Probe {
                key: k.key,
                n: k.n,
                min_privacy: gen::inside(&mut rng, lo, lo + 0.05 * (hi - lo), 0.0),
                batches: (0..2)
                    .map(|_| gen::records(&mut rng, &k.prior, BATCH))
                    .collect(),
            }
        })
        .collect()
}

/// Ingests per pipeline probe, round-robin over the probes.
const PROBE_INGESTS: u64 = 512;
/// An estimate follows every this many ingests.
const ESTIMATE_EVERY: u64 = 16;

/// `pipeline.ingest_ns_per_record`, `rr.disguise_ns_per_record` and
/// `pipeline.estimate_us`: `Service::ingest` and `Service::estimate`
/// called directly on `service`, and the pinned channel's alias-table
/// disguise (`rr::disguise_dataset_with`) on the same batches.
pub fn pipeline_layers(
    report: &mut Report,
    service: &Arc<Service>,
    probes: &[Probe],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    use rand::SeedableRng;
    let mut ingest_ns = Vec::new();
    let mut disguise_ns = Vec::new();
    let mut estimate_us = Vec::new();
    let mut iterative = 0usize;
    for j in 0..PROBE_INGESTS {
        let probe = &probes[j as usize % probes.len()];
        let records = &probe.batches[(j as usize / probes.len()) % probe.batches.len()];
        let entry = service
            .resolve(Some(probe.key), None)
            .map_err(|e| e.to_string())?;
        let seed = optrr::fnv1a_64([seed, j, 1]);
        let t0 = tracer.now();
        let ingested = service.ingest(
            &entry,
            Some(probe.min_privacy),
            Some(records),
            None,
            Some(seed),
        );
        let t1 = tracer.now();
        tracer.record("pipeline.ingest", t0, t1, None, j);
        ingested.map_err(|e| format!("direct ingest: {e}"))?;
        ingest_ns.push((t1 - t0) as f64 / records.len() as f64);
        let pipeline = entry.pipeline().ok_or("no pinned pipeline after ingest")?;
        let dataset = datagen::CategoricalDataset::new(probe.n, records.clone())
            .map_err(|e| e.to_string())?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t2 = tracer.now();
        let disguised = rr::disguise_dataset_with(pipeline.samplers(), &dataset, &mut rng);
        let t3 = tracer.now();
        tracer.record("rr.disguise", t2, t3, None, j);
        std::hint::black_box(disguised.map_err(|e| e.to_string())?);
        disguise_ns.push((t3 - t2) as f64 / records.len() as f64);
        if j % ESTIMATE_EVERY == ESTIMATE_EVERY - 1 {
            let t4 = tracer.now();
            let estimated = service.estimate(&entry);
            let t5 = tracer.now();
            tracer.record("pipeline.estimate", t4, t5, None, j);
            let outcome = estimated.map_err(|e| format!("direct estimate: {e}"))?;
            iterative += usize::from(outcome.method == serve::pipeline::EstimateMethod::Iterative);
            estimate_us.push((t5 - t4) as f64 / 1e3);
        }
    }
    report.note(format!(
        "pipeline probe: {PROBE_INGESTS} ingests over {} keys, {} estimates, {iterative} by the iterative fallback",
        probes.len(),
        estimate_us.len()
    ));
    report.metric("pipeline.ingest_ns_per_record", median(&ingest_ns), "ns");
    report.metric("rr.disguise_ns_per_record", median(&disguise_ns), "ns");
    report.metric("pipeline.estimate_us", median(&estimate_us), "us");
    Ok(())
}

/// A fresh in-process service in the production configuration, with
/// metrics on or off, holding `keys`.
pub fn fresh_service(metrics: bool, keys: &[Registered]) -> Result<Arc<Service>, String> {
    let mut config = serve::env::config_from_env(true).map_err(|e| e.to_string())?;
    config.metrics = metrics;
    let service = Arc::new(Service::new(config));
    for k in keys {
        let entry = service
            .register(Some(&k.name), &k.prior, DELTA, None, true)
            .map_err(|e| format!("in-process registration: {e}"))?;
        if entry.key() != k.key {
            return Err(format!(
                "in-process registration of {} changed its key",
                k.name
            ));
        }
    }
    Ok(service)
}

/// `telemetry.overhead_us`: the program's own line-protocol session loop,
/// `Service::run_loop`, on a metrics-on service minus the same loop on a
/// metrics-off service, both fresh and holding `keys`, request by request
/// over `requests`; the median of the paired differences. The two
/// sessions must write byte-identical answers.
pub fn telemetry_overhead(
    report: &mut Report,
    keys: &[Registered],
    requests: &[Request],
) -> Result<(), String> {
    let on = fresh_service(true, keys)?;
    let off = fresh_service(false, keys)?;
    let session = |service: &Arc<Service>, line: &[u8], out: &mut Vec<u8>| -> Result<f64, String> {
        out.clear();
        let start = Instant::now();
        service
            .run_loop(line, &mut *out)
            .map_err(|e| format!("run_loop: {e}"))?;
        Ok(micros_since(start))
    };
    let (mut answer_on, mut answer_off) = (Vec::new(), Vec::new());
    let mut differences = Vec::with_capacity(requests.len());
    for request in requests {
        let line = stack::encode_request(Codec::Json, request);
        let on_us = session(&on, &line, &mut answer_on)?;
        let off_us = session(&off, &line, &mut answer_off)?;
        differences.push(on_us - off_us);
        if answer_on != answer_off {
            report.fail("metrics-on and metrics-off sessions answered differently".into());
        }
    }
    on.wait_idle();
    off.wait_idle();
    report.metric("telemetry.overhead_us", median(&differences), "us");
    Ok(())
}

/// Keys of each n re-run directly through `Optimizer`.
const DIRECT_RUNS_PER_N: usize = 3;
/// Identical runs per re-run key.
const DIRECT_REPEATS: usize = 3;

/// `optimizer.run_ms`, `optimizer.generations_per_s`,
/// `problem.cache_hit_ratio`, `emoo.fitness_pair_reuse_ratio` and
/// `lifecycle.register_overhead_ms`: the first keys of each n re-run
/// directly through `Optimizer::optimize_refresh` with the configuration
/// the service gives a warm-up (run index 0). Each direct run must
/// reproduce the served front bitwise; the register round trip minus the
/// direct run is the lifecycle's (and the front door's) share.
pub fn optimizer_layers(
    report: &mut Report,
    keys: &[Registered],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let service = serve::env::config_from_env(true).map_err(|e| e.to_string())?;
    let mut by_n: BTreeMap<usize, usize> = BTreeMap::new();
    let mut run_ms = Vec::new();
    let (mut generations, mut seconds) = (0usize, 0.0f64);
    let (mut hits, mut misses, mut reused, mut computed) = (0u64, 0u64, 0u64, 0u64);
    let mut overhead = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let runs = by_n.entry(key.n).or_default();
        if *runs >= DIRECT_RUNS_PER_N {
            continue;
        }
        *runs += 1;
        let config = optrr::OptrrConfig {
            delta: DELTA,
            omega_slots: service.default_slots,
            ..service.base.clone()
        };
        // `from_weights`, as the service builds the prior: re-normalising
        // moves the last bits, and the run would no longer be the same.
        let prior = stats::Categorical::from_weights(&key.prior).map_err(|e| e.to_string())?;
        let optimizer = optrr::Optimizer::new(config).map_err(|e| e.to_string())?;
        let mut times = Vec::with_capacity(DIRECT_REPEATS);
        let mut outcome = None;
        for _ in 0..DIRECT_REPEATS {
            let t0 = tracer.now();
            let run = optimizer.optimize_refresh(&prior, None, Vec::new());
            let t1 = tracer.now();
            tracer.record("optimizer.run", t0, t1, None, i as u64);
            outcome = Some(run.map_err(|e| format!("direct optimizer run: {e}"))?);
            times.push((t1 - t0) as f64 / 1e6);
        }
        let outcome = outcome.expect("DIRECT_REPEATS >= 1");
        let ms = median(&times);
        run_ms.push(ms);
        overhead.push(key.register_ms - ms);
        let direct: Vec<FrontPoint> = outcome
            .omega
            .pareto_entries()
            .iter()
            .map(|e| FrontPoint::from_evaluation(&e.evaluation))
            .collect();
        report.check(
            &format!("direct run of key {} vs its served front", key.name),
            check::fronts_equal(&key.front, &direct),
        );
        let st = &outcome.statistics;
        generations += st.generations_run;
        seconds += st.wall_clock_seconds;
        hits += st.cache_hits;
        misses += st.cache_misses;
        reused += st.fitness_pairs_reused;
        computed += st.fitness_pairs_computed;
    }
    report.note(format!(
        "direct optimizer runs: {} keys by n {by_n:?}, {DIRECT_REPEATS} repeats each",
        run_ms.len()
    ));
    report.metric("optimizer.run_ms", median(&run_ms), "ms");
    report.metric(
        "optimizer.generations_per_s",
        generations as f64 / seconds,
        "1/s",
    );
    report.metric(
        "problem.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "emoo.fitness_pair_reuse_ratio",
        reused as f64 / (reused + computed).max(1) as f64,
        "ratio",
    );
    report.metric("lifecycle.register_overhead_ms", median(&overhead), "ms");
    Ok(())
}
