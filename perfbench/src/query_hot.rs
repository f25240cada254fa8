//! `query-hot`: the read path. Warm keys (n = 4 and n = 16) are
//! registered during set-up; the load is a closed loop of
//! `BestForPrivacy`/`BestForMse` point queries whose floors and budgets lie
//! inside each key's covered range, so the engine never runs. Connection 0
//! speaks JSON, connection 1 OPTRR-WIRE binary, and both send the same
//! request stream.

use crate::check::{self, Promise};
use crate::gen::{self, Rng64};
use crate::layers::{self, Registered};
use crate::report::Report;
use crate::stack::{self, micros_since, Conn, Stack, Tally};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{replay, Opts};
use serve::wire::Codec;
use serve::Request;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm keys: even indices n = 4, odd n = 16.
const KEYS: usize = 8;
/// Length of the generated stream; connections cycle through it.
const STREAM: usize = 4096;

pub struct Query {
    pub request: Request,
    key: usize,
    promise: Promise,
}

struct Setup {
    stack: Stack,
    json: Conn,
    binary: Conn,
    keys: Vec<Registered>,
}

fn category_count(i: usize) -> usize {
    if i % 2 == 0 {
        4
    } else {
        16
    }
}

pub fn priors(seed: u64) -> Vec<(String, Vec<f64>)> {
    let mut rng = Rng64::stream(seed, "query-hot.priors");
    (0..KEYS)
        .map(|i| (format!("qh-{i}"), gen::prior(&mut rng, category_count(i))))
        .collect()
}

fn setup(seed: u64) -> Result<Setup, String> {
    let stack = Stack::start(None)?;
    let mut json = stack.connect(Codec::Json)?;
    let binary = stack.connect(Codec::Binary)?;
    let keys = priors(seed)
        .iter()
        .map(|(name, prior)| layers::register(&mut json, name, prior))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        stack,
        json,
        binary,
        keys,
    })
}

impl Setup {
    fn stop(self) {
        drop(self.json);
        drop(self.binary);
        self.stack.stop();
    }
}

/// The point-query stream: key, addressing (name or key), verb and target
/// all drawn from the seed, each choice uniform (so n = 4 and n = 16 keys,
/// and the two verbs, get equal shares); targets sit inside the key's
/// covered range.
pub fn stream(seed: u64, keys: &[Registered]) -> Vec<Query> {
    let mut rng = Rng64::stream(seed, "query-hot.stream");
    (0..STREAM)
        .map(|_| {
            let index = rng.below(keys.len());
            let k = &keys[index];
            let (key, name) = if rng.below(2) == 0 {
                (Some(k.key), None)
            } else {
                (None, Some(k.name.clone()))
            };
            if rng.below(2) == 0 {
                let (lo, hi) = k.privacy_range();
                let floor = gen::inside(&mut rng, lo, hi, 0.02);
                Query {
                    request: Request::BestForPrivacy {
                        key,
                        name,
                        min_privacy: floor,
                    },
                    key: index,
                    promise: Promise::PrivacyAtLeast(floor),
                }
            } else {
                let (lo, hi) = k.mse_range();
                let budget = gen::inside(&mut rng, lo, hi, 0.02);
                Query {
                    request: Request::BestForMse {
                        key,
                        name,
                        max_mse: budget,
                    },
                    key: index,
                    promise: Promise::MseAtMost(budget),
                }
            }
        })
        .collect()
}

/// One connection's closed loop until `deadline`: send, wait for the
/// answer, validate it. Digests of the first pass over the stream are kept
/// for the cross-codec comparison.
fn drive(
    conn: &mut Conn,
    queries: &[Query],
    keys: &[Registered],
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> (Tally, Vec<u64>) {
    let mut tally = Tally::default();
    let mut digests = Vec::new();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let q = &queries[i % queries.len()];
        let start = Instant::now();
        let answer = match tracer.as_deref_mut() {
            Some(t) => {
                let root = t.open("net.rtt", None, i as u64);
                let answer = conn
                    .send_traced(&q.request, t, root, i as u64)
                    .and_then(|_| conn.recv_traced(t, root, i as u64));
                t.close(root);
                answer
            }
            None => conn.request(&q.request),
        };
        let us = micros_since(start);
        tally.attempted += 1;
        match answer {
            Ok(response) => match check::point_answer(&response, keys[q.key].n, q.promise) {
                Ok(digest) => {
                    tally.main.push(us as f32);
                    if i < queries.len() {
                        digests.push(digest);
                    }
                }
                Err(e) => tally.fail(format!("{} request {i}: {e}", conn.codec.label())),
            },
            Err(e) => {
                tally.fail(e);
                break;
            }
        }
        i += 1;
    }
    (tally, digests)
}

struct Window {
    json: Tally,
    binary: Tally,
    seconds: f64,
    spans: Vec<Span>,
}

/// Both connections for `seconds`, with the engine-run count read before
/// and after and the two codecs' answers compared bitwise.
fn window(
    setup: &mut Setup,
    queries: &[Query],
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<Window, String> {
    let runs_before = stack::engine_runs(&mut setup.json)?;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let keys = &setup.keys;
    let mut tracers = [Tracer::new(epoch), Tracer::new(epoch)];
    let [tj, tb] = &mut tracers;
    let (json, binary) = std::thread::scope(|scope| {
        let j = scope.spawn(|| {
            drive(
                &mut setup.json,
                queries,
                keys,
                deadline,
                traced.then_some(tj),
            )
        });
        let b = scope.spawn(|| {
            drive(
                &mut setup.binary,
                queries,
                keys,
                deadline,
                traced.then_some(tb),
            )
        });
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
    let compared = json.1.len().min(binary.1.len());
    let mismatched: Vec<usize> = (0..compared)
        .filter(|&i| json.1[i] != binary.1[i])
        .collect();
    for i in &mismatched {
        report.fail(format!(
            "request {i}: JSON and binary answers differ bitwise"
        ));
    }
    let mismatched = mismatched.len();
    report.note(format!(
        "cross-codec: {compared} answer pairs compared bitwise, {mismatched} differ"
    ));
    let [tj, tb] = tracers;
    Ok(Window {
        json: json.0,
        binary: binary.0,
        seconds,
        spans: crate::trace::merge(vec![tj.into_spans(), tb.into_spans()]),
    })
}

pub fn run(opts: &Opts, report: &mut Report, spans: &mut Vec<Span>) -> Result<(), String> {
    let (mut setup, first_setup_s) = stack::timed(|| setup(opts.seed))?;
    let queries = stream(opts.seed, &setup.keys);
    let plain = window(&mut setup, &queries, opts.seconds, false, report)?;
    // Read before any post-processing allocates.
    let peak_rss_mb = crate::host::peak_rss_mb();
    plain.json.count_into(report);
    plain.binary.count_into(report);
    if !opts.trace {
        let front_hypervolume = layers::front_hypervolume(&setup.keys);
        setup.stop();
        let setup_s = stack::setup_median(first_setup_s, || self::setup(opts.seed), Setup::stop)?;
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        stack::socket_metrics(report, &plain.json, &plain.binary, plain.seconds);
        match front_hypervolume {
            Ok(hv) => report.metric("front_hypervolume", hv, "ratio"),
            Err(e) => report.fail(e),
        }
        return Ok(());
    }
    let mut traced = window(&mut setup, &queries, opts.seconds, true, report)?;
    traced.json.count_into(report);
    traced.binary.count_into(report);
    spans.extend(std::mem::take(&mut traced.spans));
    let requests: Vec<Request> = queries.iter().map(|q| q.request.clone()).collect();
    let service = Arc::clone(&setup.stack.service);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut explained = Vec::new();
    for (codec, plain_tally, traced_tally) in [
        (Codec::Json, &plain.json, &traced.json),
        (Codec::Binary, &plain.binary, &traced.binary),
    ] {
        let replayed = replay::replay_passes(codec, &requests, &service, &mut tracer);
        let stages = replay::pooled(&replayed.by_verb(), &["best_for_privacy", "best_for_mse"]);
        replay::report_layers(report, codec, &stages);
        let per_request = replayed.per_request();
        // The window's i-th answer is stream request i mod STREAM (each
        // client walks the stream in order; a failed answer fails the run).
        let transport: Vec<f64> = traced_tally
            .main_us()
            .iter()
            .enumerate()
            .map(|(i, rtt)| rtt - per_request[i % per_request.len()].explained_us())
            .collect();
        let traced_p50 = traced_tally.p50();
        replay::report_net(
            report,
            codec,
            (traced_p50, plain_tally.p50()),
            median(&transport),
            &stages,
        );
        explained.push((codec, per_request, traced_p50));
    }
    let checks: Vec<(Codec, &[replay::Cost], f64)> = explained
        .iter()
        .map(|(codec, costs, rtt)| (*codec, costs.as_slice(), *rtt))
        .collect();
    replay::stage_sum_check(report, &checks)?;
    layers::resolve_and_shard(report, &service, &setup.keys, opts.seed, &mut tracer);
    layers::telemetry_overhead(report, &setup.keys, &requests)?;
    let probes = layers::probes(opts.seed, &setup.keys);
    layers::pipeline_layers(report, &service, &probes, opts.seed, &mut tracer)?;
    layers::optimizer_layers(report, &setup.keys, &mut tracer)?;
    spans.extend(tracer.into_spans());
    setup.stop();
    Ok(())
}
