//! `ingest-stream`: the write path beside reads on the same keys. Each
//! connection streams 4096-record raw `Ingest` batches with a fixed window
//! of requests in flight and sends an `Estimate` every 16th request.
//! Records are drawn from the registered priors, so drift never triggers a
//! refresh and the engine stays idle. Connection 0 speaks JSON, connection
//! 1 OPTRR-WIRE binary, and both send the same stream.

use crate::check;
use crate::gen::{self, Rng64};
use crate::layers::{self, Registered, BATCH};
use crate::report::Report;
use crate::stack::{self, micros_since, Conn, Stack, Tally};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{replay, Opts};
use serve::wire::Codec;
use serve::{Request, Response, Service};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ingest keys, all n = [`CATEGORIES`]. Few, so that set-up (one engine
/// run per key) stays short; `estimate_mse`, which would need hundreds of
/// keys to read steadily from seed to seed, is a note, not a metric.
const KEYS: usize = 8;
const CATEGORIES: usize = 8;
/// Distinct batches generated per key; the stream cycles through them
/// with a fresh disguise seed per request.
const POOL: usize = 3;
/// Requests in flight per connection.
const WINDOW: usize = 4;
/// Every `ESTIMATE_EVERY`-th request is an `Estimate`.
const ESTIMATE_EVERY: u64 = 16;
/// A key is estimated only once it holds this many batches, so no
/// estimate rests on so little data that it reads as drift.
const ESTIMATE_AFTER: u64 = 8;

struct IngestKey {
    name: String,
    key: u64,
    min_privacy: f64,
    pool: Vec<Vec<usize>>,
}

/// The generated stream: request `j` is a pure function of `j` and the
/// seed, so both connections and the reference replay agree on it.
struct Stream {
    seed: u64,
    keys: Vec<IngestKey>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// An `Ingest` into key `k`.
    Ingest(usize),
    /// An `Estimate` of key `k`.
    Estimate(usize),
}

impl Stream {
    /// What request `j` is. Among each 16, the last is an `Estimate` of
    /// key `(j / 16) % KEYS` unless that key is still short of
    /// [`ESTIMATE_AFTER`] batches; ingests cycle over the keys.
    fn kind(&self, j: u64) -> Kind {
        let ingests_before = j - j / ESTIMATE_EVERY;
        if j % ESTIMATE_EVERY == ESTIMATE_EVERY - 1 {
            let k = ((j / ESTIMATE_EVERY) % KEYS as u64) as usize;
            if ingests_before / KEYS as u64 >= ESTIMATE_AFTER {
                return Kind::Estimate(k);
            }
        }
        Kind::Ingest((ingests_before % KEYS as u64) as usize)
    }

    fn request(&self, j: u64) -> Request {
        match self.kind(j) {
            Kind::Estimate(k) => Request::Estimate {
                key: Some(self.keys[k].key),
                name: None,
            },
            Kind::Ingest(k) => {
                let key = &self.keys[k];
                Request::Ingest {
                    key: Some(key.key),
                    name: None,
                    min_privacy: Some(key.min_privacy),
                    records: Some(key.pool[pool_index(j)].clone()),
                    counts: None,
                    seed: Some(optrr::fnv1a_64([self.seed, j])),
                }
            }
        }
    }

    /// Per key, how often each pool batch went in and the sum of the
    /// squared multiplicities, when the connections had the first
    /// `answered[c]` requests answered: a request counts once per
    /// connection that sent it, and its two copies disguise identically
    /// (same payload, same seed).
    fn multiplicities(&self, answered: [u64; 2]) -> Vec<([f64; POOL], f64)> {
        let mut out = vec![([0.0; POOL], 0.0); KEYS];
        for j in 0..answered[0].max(answered[1]) {
            if let Kind::Ingest(k) = self.kind(j) {
                let m = f64::from(u8::from(j < answered[0]) + u8::from(j < answered[1]));
                out[k].0[pool_index(j)] += m;
                out[k].1 += m * m;
            }
        }
        out
    }
}

/// The pool batch request `j` carries.
fn pool_index(j: u64) -> usize {
    (j / KEYS as u64) as usize % POOL
}

struct Setup {
    stack: Stack,
    json: Conn,
    binary: Conn,
}

impl Setup {
    fn stop(self) {
        drop(self.json);
        drop(self.binary);
        self.stack.stop();
    }
}

fn priors(seed: u64) -> Vec<(String, Vec<f64>)> {
    let mut rng = Rng64::stream(seed, "ingest-stream.priors");
    (0..KEYS)
        .map(|i| (format!("is-{i}"), gen::prior(&mut rng, CATEGORIES)))
        .collect()
}

fn setup(seed: u64) -> Result<(Setup, Vec<Registered>), String> {
    let stack = Stack::start(None)?;
    let mut json = stack.connect(Codec::Json)?;
    let binary = stack.connect(Codec::Binary)?;
    let keys = priors(seed)
        .iter()
        .map(|(name, prior)| layers::register(&mut json, name, prior))
        .collect::<Result<_, _>>()?;
    Ok((
        Setup {
            stack,
            json,
            binary,
        },
        keys,
    ))
}

/// Builds the stream once the keys are known: each key's pinning floor
/// lies in the bottom 5% of its served privacy range, and its batches are
/// drawn from its prior. A low floor pins a well-conditioned channel: an
/// ill-conditioned one puts nearly all estimation error on one direction,
/// which leaves `estimate_mse` one degree of freedom per key and too
/// noisy to gate on (and early estimates could read as drift).
fn stream(seed: u64, keys: &[Registered]) -> Stream {
    let mut floors = Rng64::stream(seed, "ingest-stream.floors");
    let mut records = Rng64::stream(seed, "ingest-stream.records");
    let keys = keys
        .iter()
        .map(|k| {
            let (lo, hi) = k.privacy_range();
            let min_privacy = gen::inside(&mut floors, lo, lo + 0.05 * (hi - lo), 0.0);
            let pool = (0..POOL)
                .map(|_| gen::records(&mut records, &k.prior, BATCH))
                .collect();
            IngestKey {
                name: k.name.clone(),
                key: k.key,
                min_privacy,
                pool,
            }
        })
        .collect();
    Stream { seed, keys }
}

/// One connection's pipelined loop: keep [`WINDOW`] requests in flight
/// until `deadline`, then drain. Returns the tally, the number of requests
/// answered (a prefix of the stream), and the estimate outcomes.
fn drive(
    conn: &mut Conn,
    stream: &Stream,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> (Tally, u64, Estimates) {
    let mut tally = Tally::default();
    let mut estimates = Estimates::default();
    let mut inflight: VecDeque<(u64, Instant, Option<u32>)> = VecDeque::new();
    let mut next = 0u64;
    loop {
        while inflight.len() < WINDOW && Instant::now() < deadline {
            let request = stream.request(next);
            let start = Instant::now();
            let (sent, root) = match tracer.as_deref_mut() {
                Some(t) => {
                    let root = t.open("net.rtt", None, next);
                    (conn.send_traced(&request, t, root, next), Some(root))
                }
                None => (conn.send(&request), None),
            };
            if let Err(e) = sent {
                tally.fail(e);
                return (tally, next, estimates);
            }
            tally.attempted += 1;
            inflight.push_back((next, start, root));
            next += 1;
        }
        let Some((j, start, root)) = inflight.pop_front() else {
            break;
        };
        let answer = match (tracer.as_deref_mut(), root) {
            (Some(t), Some(root)) => {
                let answer = conn.recv_traced(t, root, j);
                t.close(root);
                answer
            }
            _ => conn.recv(),
        };
        let us = micros_since(start) as f32;
        let response = match answer {
            Ok(response) => response,
            Err(e) => {
                tally.fail(e);
                return (tally, j, estimates);
            }
        };
        match validate(stream, j, &response, &mut estimates) {
            Ok(Kind::Ingest(_)) => tally.main.push(us),
            Ok(Kind::Estimate(_)) => tally.other.push(us),
            Err(e) => tally.fail(format!("{} request {j}: {e}", conn.codec.label())),
        }
    }
    (tally, next, estimates)
}

#[derive(Debug, Default)]
struct Estimates {
    total: u64,
    iterative: u64,
}

fn validate(
    stream: &Stream,
    j: u64,
    response: &Response,
    estimates: &mut Estimates,
) -> Result<Kind, String> {
    let kind = stream.kind(j);
    match (kind, response) {
        (
            Kind::Ingest(k),
            Response::Ingested {
                key,
                accepted,
                privacy,
                ..
            },
        ) => {
            let want = &stream.keys[k];
            if *key != want.key || *accepted != BATCH as u64 {
                return Err(format!("ingested {accepted} records into key {key:x}"));
            }
            if *privacy < want.min_privacy {
                return Err(format!(
                    "pinned privacy {privacy} below the floor {}",
                    want.min_privacy
                ));
            }
        }
        (Kind::Estimate(k), Response::Estimated { stats }) => {
            if stats.key != stream.keys[k].key {
                return Err(format!("estimate answered for key {:x}", stats.key));
            }
            check::distribution(&stats.distribution, CATEGORIES)?;
            if stats.drifted || stats.stale || stats.degraded {
                return Err(format!(
                    "estimate flags drift {} stale {} degraded {} (mse vs prior {})",
                    stats.drifted, stats.stale, stats.degraded, stats.mse_vs_prior
                ));
            }
            estimates.total += 1;
            estimates.iterative += u64::from(stats.method == "iterative");
        }
        (_, other) => return Err(format!("unexpected {}", check::brief(other))),
    }
    Ok(kind)
}

struct Window {
    json: Tally,
    binary: Tally,
    answered: [u64; 2],
    estimates: Estimates,
    seconds: f64,
    spans: Vec<Span>,
}

fn window(
    setup: &mut Setup,
    stream: &Stream,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<Window, String> {
    let runs_before = stack::engine_runs(&mut setup.json)?;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut tracers = [Tracer::new(epoch), Tracer::new(epoch)];
    let [tj, tb] = &mut tracers;
    let (json, binary) = std::thread::scope(|scope| {
        let j = scope.spawn(|| drive(&mut setup.json, stream, deadline, traced.then_some(tj)));
        let b = scope.spawn(|| drive(&mut setup.binary, stream, deadline, traced.then_some(tb)));
        (
            j.join().expect("json client"),
            b.join().expect("binary client"),
        )
    });
    let seconds = epoch.elapsed().as_secs_f64();
    let runs_after = stack::engine_runs(&mut setup.json)?;
    report.check(
        "engine runs during the window",
        if runs_after == runs_before {
            Ok(())
        } else {
            Err(format!("{runs_before} before, {runs_after} after"))
        },
    );
    let [tj, tb] = tracers;
    Ok(Window {
        estimates: Estimates {
            total: json.2.total + binary.2.total,
            iterative: json.2.iterative + binary.2.iterative,
        },
        answered: [json.1, binary.1],
        json: json.0,
        binary: binary.0,
        seconds,
        spans: crate::trace::merge(vec![tj.into_spans(), tb.into_spans()]),
    })
}

/// The final estimate of every key over both codecs (which must agree
/// bitwise), checked against an in-process reference service fed the
/// same batches; returns the reference service and `estimate_mse`.
fn final_estimates(
    setup: &mut Setup,
    stream: &Stream,
    keys: &[Registered],
    answered: [u64; 2],
    report: &mut Report,
) -> Result<(Arc<Service>, f64), String> {
    let reference = reference_service(stream, keys, answered)?;
    let weights = stream.multiplicities(answered);
    let mut normalised = Vec::with_capacity(KEYS);
    for (k, key) in stream.keys.iter().enumerate() {
        let ask = Request::Estimate {
            key: Some(key.key),
            name: None,
        };
        let over_json = setup.json.request(&ask)?;
        let over_binary = setup.binary.request(&ask)?;
        report.attempted += 2;
        let (Response::Estimated { stats: a }, Response::Estimated { stats: b }) =
            (&over_json, &over_binary)
        else {
            report.fail(format!(
                "final estimate of {}: {} / {}",
                key.name,
                check::brief(&over_json),
                check::brief(&over_binary)
            ));
            continue;
        };
        report.check(
            &format!("final estimate of {} (codecs)", key.name),
            check::bitwise_equal("estimate", &a.distribution, &b.distribution),
        );
        report.check(
            &format!("final estimate of {}", key.name),
            check::distribution(&a.distribution, CATEGORIES),
        );
        let entry = reference
            .resolve(Some(key.key), None)
            .map_err(|e| e.to_string())?;
        match reference.estimate(&entry) {
            Ok(outcome) => report.check(
                &format!("final estimate of {} (reference)", key.name),
                check::bitwise_equal("estimate", &a.distribution, outcome.distribution.probs()),
            ),
            Err(e) => report.fail(format!("reference estimate of {}: {e}", key.name)),
        }
        normalised.push(normalised_mse(&a.distribution, &key.pool, &weights[k]));
    }
    report.note(format!(
        "final estimates: {} keys; answered requests json {} binary {}",
        normalised.len(),
        answered[0],
        answered[1]
    ));
    Ok((
        reference,
        normalised.iter().sum::<f64>() / normalised.len().max(1) as f64,
    ))
}

/// A final estimate's MSE against the distribution of the original
/// records that went in (what the estimator reconstructs, the error of the
/// paper's Theorem 6), times the effective number of independent batches
/// behind it, `(Σm)² / Σm²` over the batch multiplicities `m`. The
/// disguise noise shrinks as one over that number, so the product reads
/// the same however many batches a run got through.
fn normalised_mse(
    estimate: &[f64],
    pool: &[Vec<usize>],
    (per_pool, squares): &([f64; POOL], f64),
) -> f64 {
    let mut original = vec![0.0; CATEGORIES];
    for (batch, &m) in pool.iter().zip(per_pool) {
        for &record in batch {
            original[record] += m;
        }
    }
    let total: f64 = original.iter().sum();
    let mse = estimate
        .iter()
        .zip(&original)
        .map(|(e, o)| (e - o / total).powi(2))
        .sum::<f64>()
        / CATEGORIES as f64;
    let batches: f64 = per_pool.iter().sum();
    mse * batches * batches / squares
}

/// A fresh in-process service with the same configuration and keys, fed
/// every batch the two connections had answered, on two threads (ingest
/// order does not change the accumulated counts).
fn reference_service(
    stream: &Stream,
    keys: &[Registered],
    answered: [u64; 2],
) -> Result<Arc<Service>, String> {
    let service = layers::fresh_service(true, keys)?;
    let failures = std::thread::scope(|scope| {
        let runs: Vec<_> = answered
            .iter()
            .map(|&n| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    (0..n)
                        .filter(|&j| matches!(stream.kind(j), Kind::Ingest(_)))
                        .filter(|&j| {
                            !matches!(service.handle(stream.request(j)), Response::Ingested { .. })
                        })
                        .count()
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("reference feeder"))
            .sum::<usize>()
    });
    if failures > 0 {
        return Err(format!("{failures} reference ingests failed"));
    }
    Ok(service)
}

/// `estimate_p50_us` (the secondary verb's median round trip) and
/// `estimate_mse` are ingest-stream's own figures: notes, since every
/// workload reports the same metrics.
fn ingest_notes(report: &mut Report, w: &Window, estimate_mse: f64) {
    let estimates: Vec<f64> = w
        .json
        .other_us()
        .into_iter()
        .chain(w.binary.other_us())
        .collect();
    if estimates.is_empty() {
        report.fail("no estimates answered".into());
        return;
    }
    report.note(format!(
        "estimate_p50_us {:.3} us over {} estimates ({} by the iterative fallback); estimate_mse {estimate_mse:.6e}",
        median(&estimates),
        estimates.len(),
        w.estimates.iterative
    ));
}

pub fn run(opts: &Opts, report: &mut Report, spans: &mut Vec<Span>) -> Result<(), String> {
    let ((mut setup, keys), first_setup_s) = stack::timed(|| setup(opts.seed))?;
    let stream = stream(opts.seed, &keys);
    let plain = window(&mut setup, &stream, opts.seconds, false, report)?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    plain.json.count_into(report);
    plain.binary.count_into(report);
    let (reference, estimate_mse) =
        final_estimates(&mut setup, &stream, &keys, plain.answered, report)?;
    ingest_notes(report, &plain, estimate_mse);
    if !opts.trace {
        setup.stop();
        drop(reference);
        let setup_s =
            stack::setup_median(first_setup_s, || self::setup(opts.seed), |(s, _)| s.stop())?;
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        stack::socket_metrics(report, &plain.json, &plain.binary, plain.seconds);
        match layers::front_hypervolume(&keys) {
            Ok(hv) => report.metric("front_hypervolume", hv, "ratio"),
            Err(e) => report.fail(e),
        }
        return Ok(());
    }
    let mut traced = window(&mut setup, &stream, opts.seconds, true, report)?;
    traced.json.count_into(report);
    traced.binary.count_into(report);
    spans.extend(std::mem::take(&mut traced.spans));
    let mut tracer = Tracer::new(Instant::now());
    let requests: Vec<Request> = (REPLAY_FROM..REPLAY_FROM + REPLAYED)
        .map(|j| stream.request(j))
        .collect();
    for (codec, plain_tally, traced_tally) in [
        (Codec::Json, &plain.json, &traced.json),
        (Codec::Binary, &plain.binary, &traced.binary),
    ] {
        let by_verb = replay::replay_passes(codec, &requests, &reference, &mut tracer).by_verb();
        // Every ingest costs alike (n = 8, 4096 records), so the stage
        // medians add up to what the layers explain of one.
        let stages = replay::pooled(&by_verb, &["ingest"]);
        replay::report_layers(report, codec, &stages);
        let traced_p50 = traced_tally.p50();
        replay::report_net(
            report,
            codec,
            (traced_p50, plain_tally.p50()),
            traced_p50 - stages.explained_us(),
            &stages,
        );
    }
    layers::resolve_and_shard(report, &reference, &keys, opts.seed, &mut tracer);
    let ingests: Vec<Request> = (REPLAY_FROM..REPLAY_FROM + REPLAYED)
        .filter(|&j| matches!(stream.kind(j), Kind::Ingest(_)))
        .map(|j| stream.request(j))
        .collect();
    layers::telemetry_overhead(report, &keys, &ingests)?;
    let probes: Vec<layers::Probe> = stream
        .keys
        .iter()
        .map(|k| layers::Probe {
            key: k.key,
            n: CATEGORIES,
            min_privacy: k.min_privacy,
            batches: k.pool.clone(),
        })
        .collect();
    layers::pipeline_layers(report, &reference, &probes, opts.seed, &mut tracer)?;
    layers::optimizer_layers(report, &keys, &mut tracer)?;
    spans.extend(tracer.into_spans());
    reference.wait_idle();
    setup.stop();
    Ok(())
}

/// Requests of the stream replayed through the codecs and the service,
/// from a point where `Estimate`s have begun.
const REPLAYED: u64 = 512;
const REPLAY_FROM: u64 = 16 * ESTIMATE_AFTER * KEYS as u64;

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Stream {
        Stream {
            seed: 1,
            keys: Vec::new(),
        }
    }

    #[test]
    fn estimates_wait_for_data_and_come_every_sixteenth_request() {
        let s = stream();
        let first = (0..10_000u64)
            .find(|&j| matches!(s.kind(j), Kind::Estimate(_)))
            .unwrap();
        let ingests_before = (0..first)
            .filter(|&j| matches!(s.kind(j), Kind::Ingest(_)))
            .count();
        assert!(ingests_before as u64 >= ESTIMATE_AFTER * KEYS as u64);
        for j in first..first + 64 {
            assert_eq!(
                matches!(s.kind(j), Kind::Estimate(_)),
                j % ESTIMATE_EVERY == ESTIMATE_EVERY - 1
            );
        }
    }

    #[test]
    fn the_replayed_stretch_holds_estimates() {
        let s = stream();
        let estimates = (REPLAY_FROM..REPLAY_FROM + REPLAYED)
            .filter(|&j| matches!(s.kind(j), Kind::Estimate(_)))
            .count() as u64;
        assert_eq!(estimates, REPLAYED / ESTIMATE_EVERY);
    }

    #[test]
    fn ingests_spread_evenly_over_the_keys() {
        let n = 15 * KEYS as u64 * 16;
        let per_key: Vec<f64> = stream()
            .multiplicities([n, n])
            .iter()
            .map(|(m, _)| m.iter().sum::<f64>())
            .collect();
        let (lo, hi) = per_key
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(hi - lo <= hi / 50.0, "{per_key:?}");
    }

    #[test]
    fn duplicated_batches_count_once_toward_the_noise() {
        // One connection got 2 ingests of key 0 answered, the other 1: the
        // first batch went in twice (copies disguise identically), the
        // second once.
        let s = stream();
        let first_two: Vec<u64> = (0..)
            .filter(|&j| s.kind(j) == Kind::Ingest(0))
            .take(2)
            .collect();
        let w = s.multiplicities([first_two[1] + 1, first_two[0] + 1]);
        let (per_pool, squares) = w[0];
        assert_eq!(per_pool.iter().sum::<f64>(), 3.0);
        assert_eq!(squares, 5.0);
        // An estimate equal to the ingested originals has zero error.
        let pool = vec![vec![0, 1], vec![1, 1], vec![2, 3]];
        let weights = ([2.0, 1.0, 0.0], 5.0);
        let exact = [2.0 / 6.0, 4.0 / 6.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!(normalised_mse(&exact, &pool, &weights) < 1e-30);
        // Off by 0.1 on two categories: mse 0.02 / 8, times 9/5 batches.
        let mut off = exact;
        off[0] += 0.1;
        off[1] -= 0.1;
        let got = normalised_mse(&off, &pool, &weights);
        assert!((got - 0.02 / 8.0 * 9.0 / 5.0).abs() < 1e-15, "{got}");
    }
}
