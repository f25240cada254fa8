//! `key-churn`: the engine and the key lifecycle. One client thread
//! registers fresh seeded priors (n ∈ {4, 8, 12, 16}) and sends a few
//! queries to each, one step at a time, over a JSON and an OPTRR-WIRE
//! binary connection in turn, so that each codec carries half of the
//! registrations of every n. A memory budget holds only a few keys, so older keys are
//! evicted; revisiting one re-warms it by deterministic engine replay.

use crate::check::{self, Promise};
use crate::gen::{self, Rng64};
use crate::layers::{self, Registered};
use crate::report::Report;
use crate::stack::{self, micros_since, Conn, Stack, Tally};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{replay, Opts};
use serve::wire::Codec;
use serve::{Request, Response};
use std::time::{Duration, Instant};

/// Category counts of successive fresh keys, in equal shares.
const CATEGORY_CYCLE: [usize; 4] = [4, 8, 12, 16];
/// Resident-memory budget: a handful of warm keys.
pub const BUDGET_BYTES: u64 = 6 << 20;
/// Keys registered during set-up.
const BASE_KEYS: usize = 4;
/// Every third step revisits an old key instead of registering a new one.
const REVISIT_EVERY: u64 = 3;
/// A revisit targets a key registered at least this many fresh keys ago,
/// far enough back for the budget to have evicted it.
const REVISIT_LAG: usize = 8;
/// Fresh keys whose registrations the traced run replays in-process (two
/// of each n), each pass on a fresh service so every one runs the engine.
const REPLAYED_KEYS: usize = 8;
/// Replay passes per codec.
const REPLAY_PASSES: usize = 3;

fn fresh_prior(rng: &mut Rng64, index: usize) -> Vec<f64> {
    gen::prior(rng, CATEGORY_CYCLE[index % CATEGORY_CYCLE.len()])
}

/// Which connection a step uses: fresh keys go in runs of one full
/// [`CATEGORY_CYCLE`] per connection, so both codecs register every n
/// equally often; revisits alternate.
fn codec_of(revisit: bool, fresh: usize, revisits: usize) -> usize {
    if revisit {
        revisits % 2
    } else {
        (fresh / CATEGORY_CYCLE.len()) % 2
    }
}

struct Setup {
    stack: Stack,
    /// JSON, then binary; see [`codec_of`].
    conns: [Conn; 2],
    base: Vec<Registered>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let stack = Stack::start(Some(BUDGET_BYTES))?;
    let mut json = stack.connect(Codec::Json)?;
    let binary = stack.connect(Codec::Binary)?;
    let mut rng = Rng64::stream(seed, "key-churn.base");
    let base = (0..BASE_KEYS)
        .map(|i| {
            layers::register(
                &mut json,
                &format!("kc-base-{i}"),
                &fresh_prior(&mut rng, i),
            )
        })
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        stack,
        conns: [json, binary],
        base,
    })
}

impl Setup {
    fn stop(self) {
        drop(self.conns);
        self.stack.stop();
    }
}

/// Two point queries with targets inside the key's front, validated.
fn queries(
    conn: &mut Conn,
    key: &Registered,
    rng: &mut Rng64,
    tally: &mut Tally,
) -> Result<Vec<Result<(), String>>, String> {
    let (p_lo, p_hi) = key.privacy_range();
    let (m_lo, m_hi) = key.mse_range();
    let floor = gen::inside(rng, p_lo, p_hi, 0.02);
    let budget = gen::inside(rng, m_lo, m_hi, 0.02);
    let asks = [
        (
            Request::BestForPrivacy {
                key: Some(key.key),
                name: None,
                min_privacy: floor,
            },
            Promise::PrivacyAtLeast(floor),
        ),
        (
            Request::BestForMse {
                key: Some(key.key),
                name: None,
                max_mse: budget,
            },
            Promise::MseAtMost(budget),
        ),
    ];
    asks.into_iter()
        .map(|(ask, promise)| {
            let start = Instant::now();
            let answer = conn.request(&ask)?;
            tally.other.push(micros_since(start) as f32);
            Ok(check::point_answer(&answer, key.n, promise).map(|_| ()))
        })
        .collect()
}

fn key_state(conn: &mut Conn, key: u64) -> Result<String, String> {
    match conn.request(&Request::Stats {
        key: Some(key),
        name: None,
    })? {
        Response::KeyStats { stats } => Ok(stats.state),
        other => Err(format!("Stats answered {}", check::brief(&other))),
    }
}

#[derive(Default)]
struct Window {
    attempted: u64,
    failures: Vec<String>,
    /// Per codec: `main` holds the `Register` round trips, `other` the
    /// queries, state reads and revisit fronts.
    tallies: [Tally; 2],
    /// Round trips of the revisit fronts that found their key evicted.
    rewarm_ms: Vec<f64>,
    fresh: Vec<Registered>,
    seconds: f64,
    spans: Vec<Span>,
}

/// The closed loop: fresh registrations with two queries each, and every
/// [`REVISIT_EVERY`]-th step a revisit of an old key — its state read
/// first, then its front, which must equal its first warm-up bitwise
/// (re-warmed or not). Each step goes over the connection [`codec_of`]
/// picks.
fn window(setup: &mut Setup, seed: u64, seconds: f64, traced: bool) -> Result<Window, String> {
    let mut priors = Rng64::stream(seed, "key-churn.priors");
    let mut targets = Rng64::stream(seed, "key-churn.targets");
    let mut w = Window::default();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(epoch);
    let mut revisits = 0usize;
    let mut step = 0u64;
    while Instant::now() < deadline {
        let revisit =
            step % REVISIT_EVERY == REVISIT_EVERY - 1 && w.fresh.len() >= revisits + REVISIT_LAG;
        let c = codec_of(revisit, w.fresh.len(), revisits);
        let conn = &mut setup.conns[c];
        let tally = &mut w.tallies[c];
        let root = traced.then(|| tracer.open("client.step", None, step));
        if revisit {
            let target = &w.fresh[revisits];
            revisits += 1;
            let start = Instant::now();
            let state = key_state(conn, target.key)?;
            tally.other.push(micros_since(start) as f32);
            let start = Instant::now();
            let t0 = tracer.now();
            let front = stack::front(conn, target.key);
            let us = micros_since(start);
            w.attempted += 2;
            if traced {
                tracer.record(
                    if state == "evicted" {
                        "lifecycle.rewarm"
                    } else {
                        "net.front"
                    },
                    t0,
                    tracer.now(),
                    root,
                    step,
                );
            }
            match front {
                Ok(points) => {
                    tally.other.push(us as f32);
                    if state == "evicted" {
                        w.rewarm_ms.push(us / 1e3);
                    }
                    if let Err(e) = check::fronts_equal(&target.front, &points) {
                        w.failures
                            .push(format!("revisited key {} ({state}): {e}", target.name));
                    }
                }
                Err(e) => w.failures.push(e),
            }
        } else {
            let index = w.fresh.len();
            let prior = fresh_prior(&mut priors, index);
            let t0 = tracer.now();
            let key = layers::register(conn, &format!("kc-{index}"), &prior)?;
            if traced {
                tracer.record("lifecycle.register", t0, tracer.now(), root, step);
            }
            w.attempted += 2;
            tally.main.push((key.register_ms * 1e3) as f32);
            for outcome in queries(conn, &key, &mut targets, tally)? {
                w.attempted += 1;
                if let Err(e) = outcome {
                    w.failures.push(format!("key {}: {e}", key.name));
                }
            }
            w.fresh.push(key);
        }
        if let Some(root) = root {
            tracer.close(root);
        }
        step += 1;
    }
    w.seconds = epoch.elapsed().as_secs_f64();
    w.spans = tracer.into_spans();
    Ok(w)
}

pub fn run(opts: &Opts, report: &mut Report, spans: &mut Vec<Span>) -> Result<(), String> {
    let (mut setup, first_setup_s) = stack::timed(|| setup(opts.seed))?;
    let plain = window(&mut setup, opts.seed, opts.seconds, false)?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    report.absorb(plain.attempted, &plain.failures);
    report.note(format!(
        "{} fresh keys, {} base keys; {} re-warms, rewarm_p50_ms {:.3}",
        plain.fresh.len(),
        setup.base.len(),
        plain.rewarm_ms.len(),
        if plain.rewarm_ms.is_empty() {
            f64::NAN
        } else {
            median(&plain.rewarm_ms)
        }
    ));
    if plain.rewarm_ms.is_empty() {
        report.fail("the window holds no re-warm".into());
    }
    let [json, binary] = &plain.tallies;
    if !opts.trace {
        setup.stop();
        let setup_s = stack::setup_median(first_setup_s, || self::setup(opts.seed), Setup::stop)?;
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        stack::socket_metrics(report, json, binary, plain.seconds);
        if plain.fresh.len() < layers::QUALITY_KEYS {
            report.fail(format!(
                "only {} fresh keys, front_hypervolume needs {}",
                plain.fresh.len(),
                layers::QUALITY_KEYS
            ));
        }
        match layers::front_hypervolume(&plain.fresh) {
            Ok(hv) => report.metric("front_hypervolume", hv, "ratio"),
            Err(e) => report.fail(e),
        }
        return Ok(());
    }
    // A fresh service: the traced window registers the same priors again.
    setup.stop();
    let mut setup = self::setup(opts.seed)?;
    let mut traced = window(&mut setup, opts.seed, opts.seconds, true)?;
    report.absorb(traced.attempted, &traced.failures);
    spans.extend(std::mem::take(&mut traced.spans));
    if traced.fresh.len() < REPLAYED_KEYS {
        return Err(format!(
            "the traced window registered {} fresh keys, the replay needs {REPLAYED_KEYS}",
            traced.fresh.len()
        ));
    }
    let mut tracer = Tracer::new(Instant::now());
    let replayed_keys = &traced.fresh[..REPLAYED_KEYS];
    let requests: Vec<Request> = replayed_keys
        .iter()
        .map(|k| layers::register_request(&k.name, &k.prior))
        .collect();
    let mut scratch = None;
    for (codec, plain_tally, traced_tally) in [
        (Codec::Json, json, &traced.tallies[0]),
        (Codec::Binary, binary, &traced.tallies[1]),
    ] {
        let mut passes = Vec::with_capacity(REPLAY_PASSES);
        for _ in 0..REPLAY_PASSES {
            let service = layers::fresh_service(true, &[])?;
            passes.push(replay::replay(codec, &requests, &service, &mut tracer));
            scratch = Some(service);
        }
        let by_verb = replay::Replayed::from_passes(passes).by_verb();
        let stages = replay::pooled(&by_verb, &["register"]);
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
    let scratch = scratch.expect("REPLAY_PASSES >= 1");
    lifecycle_notes(report, &mut setup.conns[0], &traced)?;
    layers::resolve_and_shard(report, &scratch, replayed_keys, opts.seed, &mut tracer);
    layers::telemetry_overhead(report, &[], &requests)?;
    let probes = layers::probes(opts.seed, replayed_keys);
    layers::pipeline_layers(report, &scratch, &probes, opts.seed, &mut tracer)?;
    layers::optimizer_layers(report, &traced.fresh, &mut tracer)?;
    spans.extend(tracer.into_spans());
    scratch.wait_idle();
    setup.stop();
    Ok(())
}

/// The lifecycle and worker counts of the traced window, read over the
/// protocol — evictions and refresh failures/retries service-wide,
/// re-warms and the engine runs they replayed summed over the window's
/// keys — as notes. The configuration injects no faults, so any refresh
/// failure or retry fails the run.
fn lifecycle_notes(report: &mut Report, conn: &mut Conn, w: &Window) -> Result<(), String> {
    let Response::ServiceStats {
        evictions,
        refresh_failures,
        retries,
        ..
    } = conn.request(&Request::Stats {
        key: None,
        name: None,
    })?
    else {
        return Err("Stats did not answer ServiceStats".into());
    };
    let (mut rewarms, mut replayed) = (0u64, 0u64);
    for key in &w.fresh {
        match conn.request(&Request::Stats {
            key: Some(key.key),
            name: None,
        })? {
            Response::KeyStats { stats } => {
                rewarms += stats.rewarms;
                replayed += stats.rewarms * stats.engine_runs;
            }
            other => return Err(format!("Stats answered {}", check::brief(&other))),
        }
    }
    report.note(format!(
        "lifecycle: {evictions} evictions, {rewarms} re-warms replaying {replayed} engine runs; worker: {refresh_failures} refresh failures, {retries} retries"
    ));
    report.check(
        "worker refreshes",
        if refresh_failures == 0 && retries == 0 {
            Ok(())
        } else {
            Err(format!("{refresh_failures} failures, {retries} retries"))
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_codec_registers_every_n_equally_often() {
        let mut count = [[0usize; 4]; 2];
        for fresh in 0..64 {
            count[codec_of(false, fresh, 0)][fresh % CATEGORY_CYCLE.len()] += 1;
        }
        assert_eq!(count, [[8; 4]; 2]);
        assert_ne!(codec_of(true, 0, 0), codec_of(true, 0, 1));
    }
}
