//! End-to-end load generator for the network front door ([`serve::net`]).
//!
//! Starts an in-process [`NetServer`] on an ephemeral loopback port and
//! drives it the way a fleet of collectors would:
//!
//! * **Mixed-verb load** — hundreds of concurrent connections, each
//!   running a deterministic mix of `BestForPrivacy` point queries,
//!   `Ingest` record batches, and `Estimate` reconstructions, once over
//!   framed JSON and once over the `OPTRR-WIRE v1` binary codec. Reports
//!   q/s and p50/p95/p99 round-trip latency per codec, plus the
//!   binary-over-JSON q/s ratio. The per-verb figures (`mixed_run_*`) are
//!   each verb's fixed count over the *mixed* run's wall clock, not
//!   single-verb runs, so they all share that one ratio.
//! * **Connection churn** — short-lived sessions (connect, one round
//!   trip, disconnect) hammering the accept loop; reports sessions/s.
//! * **Codec microbench** — encode+decode cost and wire size of the hot
//!   DTOs (a dense `Matrix` response, a 4096-record `Ingest`) for both
//!   codecs, no sockets involved.
//! * **Cross-codec determinism** — an identical scripted session against
//!   two identically-seeded services, one per codec, asserting the
//!   `Save` snapshots are byte-identical (`snapshot_identical` in the
//!   output is an assertion, not an observation).
//!
//! Results land in `BENCH_net.json` at the workspace root. `--smoke`
//! runs a scaled-down version of every phase for CI and writes nothing.
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_net
//!         [-- --conns N --requests M | --smoke]`

use bench_support::{
    arg_value, flag, percentile, summarize_ns, time_iterations, workspace_root, write_baseline,
    DEFAULT_WARMUP_ITERS,
};
use serde::Serialize;
use serve::net::{ListenAddr, NetClient, NetConfig, NetServer};
use serve::wire::{Codec, Inbound};
use serve::{protocol, Request, Response, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

/// A 16-category prior: wide enough that matrices are 256 cells and the
/// codec difference on the wire is measurable, small enough to warm in
/// well under a second on the smoke budget.
fn bench_prior() -> Vec<f64> {
    let raw: Vec<f64> = (1..=16).map(|i| 1.0 / (i as f64 + 3.0)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

const DELTA: f64 = 0.8;
const MIN_PRIVACY: f64 = 0.05;
const INGEST_BATCH: usize = 256;

#[derive(Serialize)]
struct NetBaseline {
    connections: usize,
    requests_per_connection: usize,
    max_active_connections: u64,
    codec_runs: Vec<CodecRun>,
    /// Binary q/s over JSON q/s on the mixed run. Every verb's count is
    /// fixed, so this is also the ratio of each `mixed_run_*` figure.
    binary_over_json_mixed_qps: f64,
    churn: ChurnRow,
    codec_micro: Vec<MicroRow>,
    snapshot_identical: bool,
}

/// One codec's mixed-verb run over the full connection fleet. The
/// `mixed_run_*` rates divide one verb's fixed count by the whole mixed
/// run's wall clock: shares of `qps`, not per-verb throughput.
#[derive(Serialize)]
struct CodecRun {
    codec: String,
    connections: usize,
    requests_total: u64,
    wall_seconds: f64,
    qps: f64,
    query_count: u64,
    mixed_run_query_qps: f64,
    ingest_count: u64,
    ingest_records_total: u64,
    mixed_run_ingest_records_per_sec: f64,
    estimate_count: u64,
    mixed_run_estimate_qps: f64,
    latency_p50_ns: u64,
    latency_p95_ns: u64,
    latency_p99_ns: u64,
}

#[derive(Serialize)]
struct ChurnRow {
    threads: usize,
    sessions_per_thread: usize,
    sessions_total: u64,
    wall_seconds: f64,
    sessions_per_sec: f64,
}

/// Encode+decode cost and wire size of one hot DTO under one codec.
#[derive(Serialize)]
struct MicroRow {
    payload: String,
    codec: String,
    bytes: usize,
    encode_p50_ns: u64,
    decode_p50_ns: u64,
}

fn start_server(seed: u64, max_conns: usize) -> NetServer {
    let service = Arc::new(Service::new(ServiceConfig::smoke(seed)));
    let mut config = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
    config.max_conns = max_conns;
    NetServer::start(service, config).expect("binding an ephemeral loopback port succeeds")
}

fn register_request(name: &str) -> Request {
    Request::Register {
        name: Some(name.into()),
        prior: bench_prior(),
        delta: DELTA,
        slots: Some(60),
        lazy: None,
    }
}

fn query_request(name: &str) -> Request {
    Request::BestForPrivacy {
        key: None,
        name: Some(name.into()),
        min_privacy: MIN_PRIVACY,
    }
}

fn ingest_request(name: &str, batch: usize, seed: u64) -> Request {
    let categories = bench_prior().len();
    Request::Ingest {
        key: None,
        name: Some(name.into()),
        min_privacy: Some(MIN_PRIVACY),
        records: Some(
            (0..batch)
                .map(|i| (i * 7 + seed as usize) % categories)
                .collect(),
        ),
        counts: None,
        seed: Some(seed),
    }
}

/// Drives the deterministic mixed-verb schedule over an open fleet of
/// connections and returns the finished [`CodecRun`].
fn run_codec_load(
    addr: &ListenAddr,
    codec: Codec,
    connections: usize,
    requests_per_connection: usize,
    server: &NetServer,
) -> (CodecRun, u64) {
    // Open the whole fleet first so the concurrency level is the stated
    // one for the entire measured window.
    let clients: Vec<NetClient> = (0..connections)
        .map(|_| NetClient::connect(addr, codec).expect("loopback connect succeeds"))
        .collect();
    // The server counts a connection on accept; the accept loop may
    // still be draining its backlog — wait until the fleet is fully
    // admitted before measuring.
    let fleet_deadline = Instant::now() + std::time::Duration::from_secs(20);
    while server.active_connections() < connections as u64 && Instant::now() < fleet_deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let max_active = server.active_connections();

    // ~16 OS threads regardless of fleet size: each worker owns a chunk
    // of connections and round-robins requests across them, so every
    // connection stays active for the whole window.
    let threads = connections.clamp(1, 16);
    let chunk = connections.div_ceil(threads);
    let mut fleets: Vec<Vec<NetClient>> = Vec::new();
    let mut clients = clients;
    while !clients.is_empty() {
        let rest = clients.split_off(chunk.min(clients.len()));
        fleets.push(clients);
        clients = rest;
    }

    let started = Instant::now();
    let handles: Vec<_> = fleets
        .into_iter()
        .enumerate()
        .map(|(worker, mut fleet)| {
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                let (mut queries, mut ingests, mut estimates) = (0u64, 0u64, 0u64);
                let mut ingest_records = 0u64;
                for step in 0..requests_per_connection {
                    for (slot, client) in fleet.iter_mut().enumerate() {
                        let k = worker * 31 + slot * 7 + step;
                        let request = match k % 10 {
                            0..=5 => {
                                queries += 1;
                                query_request("bench")
                            }
                            6..=8 => {
                                ingests += 1;
                                ingest_records += INGEST_BATCH as u64;
                                ingest_request("bench", INGEST_BATCH, k as u64)
                            }
                            _ => {
                                estimates += 1;
                                Request::Estimate {
                                    key: None,
                                    name: Some("bench".into()),
                                }
                            }
                        };
                        let sent = Instant::now();
                        let response = client.request(&request).expect("request succeeds");
                        latencies.push(sent.elapsed().as_nanos() as u64);
                        match response {
                            Response::Matrix { .. }
                            | Response::Ingested { .. }
                            | Response::Estimated { .. } => {}
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                }
                (latencies, queries, ingests, ingest_records, estimates)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let (mut queries, mut ingests, mut estimates) = (0u64, 0u64, 0u64);
    let mut ingest_records = 0u64;
    for handle in handles {
        let (lat, q, i, r, e) = handle.join().expect("load worker panicked");
        latencies.extend(lat);
        queries += q;
        ingests += i;
        ingest_records += r;
        estimates += e;
    }
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    let requests_total = latencies.len() as u64;
    (
        CodecRun {
            codec: codec.label().to_string(),
            connections,
            requests_total,
            wall_seconds,
            qps: requests_total as f64 / wall_seconds,
            query_count: queries,
            mixed_run_query_qps: queries as f64 / wall_seconds,
            ingest_count: ingests,
            ingest_records_total: ingest_records,
            mixed_run_ingest_records_per_sec: ingest_records as f64 / wall_seconds,
            estimate_count: estimates,
            mixed_run_estimate_qps: estimates as f64 / wall_seconds,
            latency_p50_ns: percentile(&latencies, 0.50),
            latency_p95_ns: percentile(&latencies, 0.95),
            latency_p99_ns: percentile(&latencies, 0.99),
        },
        max_active,
    )
}

/// Short-lived sessions: connect, one round trip, disconnect.
fn run_churn(addr: &ListenAddr, threads: usize, sessions_per_thread: usize) -> ChurnRow {
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|worker| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for session in 0..sessions_per_thread {
                    // Alternate codecs so churn exercises both preambles.
                    let codec = if (worker + session) % 2 == 0 {
                        Codec::Json
                    } else {
                        Codec::Binary
                    };
                    let mut client =
                        NetClient::connect(&addr, codec).expect("churn connect succeeds");
                    let response = client
                        .request(&query_request("bench"))
                        .expect("churn round trip succeeds");
                    assert!(matches!(response, Response::Matrix { .. }));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("churn worker panicked");
    }
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let sessions_total = (threads * sessions_per_thread) as u64;
    ChurnRow {
        threads,
        sessions_per_thread,
        sessions_total,
        wall_seconds,
        sessions_per_sec: sessions_total as f64 / wall_seconds,
    }
}

/// Encode/decode one DTO `iters` times under both codecs, through the
/// codec seam: `encode` puts it on the wire, `decode` reads it back.
fn micro(
    payload: &str,
    iters: usize,
    encode: impl Fn(Codec) -> Vec<u8>,
    decode: impl Fn(Codec, &[u8]),
) -> Vec<MicroRow> {
    [Codec::Json, Codec::Binary]
        .map(|codec| {
            let bytes = encode(codec);
            let encode_ns = time_iterations(DEFAULT_WARMUP_ITERS, iters, || {
                assert!(!encode(codec).is_empty())
            });
            let decode_ns = time_iterations(DEFAULT_WARMUP_ITERS, iters, || decode(codec, &bytes));
            MicroRow {
                payload: payload.to_string(),
                codec: codec.label().to_string(),
                bytes: bytes.len(),
                encode_p50_ns: summarize_ns(&encode_ns).p50_ns,
                decode_p50_ns: summarize_ns(&decode_ns).p50_ns,
            }
        })
        .into()
}

fn run_codec_micro(iters: usize) -> Vec<MicroRow> {
    let mut rows = Vec::new();
    // The paper's point-query response: a dense 16×16 column-major
    // matrix — the codec's biggest payload.
    let n = bench_prior().len();
    let mut cell = 0.0;
    let columns: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| {
                    cell += 0.001;
                    1.0 / (1.0 + cell)
                })
                .collect()
        })
        .collect();
    let matrix = Response::Matrix {
        key: 42,
        privacy: 0.34,
        mse: 4.9e-5,
        max_posterior: 0.79,
        matrix: protocol::MatrixDto {
            num_categories: n,
            columns,
        },
        degraded: false,
    };
    rows.extend(micro(
        "matrix_16x16",
        iters,
        |codec| codec.encode_response(&matrix),
        |codec, mut bytes| {
            codec.read_response(&mut bytes).expect("round trip");
        },
    ));
    let ingest = ingest_request("bench", 4096, 1);
    rows.extend(micro(
        "ingest_4096_records",
        iters,
        |codec| codec.encode_request(&ingest).expect("hot request encodes"),
        |codec, mut bytes| {
            let decoded = codec.read_request(&mut bytes).expect("round trip");
            assert!(matches!(decoded, Inbound::Frame(Ok(_))));
        },
    ));
    rows
}

/// The determinism acceptance check: one scripted session per codec
/// against identically-seeded services; the `Save` snapshots must be
/// byte-identical. Panics (and thus fails the bench) if they are not.
fn check_snapshot_determinism() -> bool {
    let dir = std::env::temp_dir().join(format!("optrr_bench_net_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut snapshots = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        let server = start_server(2008, 8);
        let addr = server.listen_addr();
        let path = dir.join(format!("{}.snap", codec.label()));
        let mut client = NetClient::connect(&addr, codec).expect("connect");
        for request in [
            register_request("det"),
            ingest_request("det", 300, 5),
            ingest_request("det", 300, 6),
            query_request("det"),
            Request::Estimate {
                key: None,
                name: Some("det".into()),
            },
            Request::Save {
                path: path.to_str().unwrap().to_string(),
            },
        ] {
            let response = client.request(&request).expect("scripted request succeeds");
            assert!(
                !matches!(response, Response::Error { .. }),
                "scripted session errored: {response:?}"
            );
        }
        server.request_drain();
        server.wait();
        snapshots.push(std::fs::read(&path).expect("snapshot written"));
    }
    let identical = snapshots[0] == snapshots[1] && !snapshots[0].is_empty();
    assert!(
        identical,
        "binary-session snapshot must be byte-identical to the JSON-session snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
    identical
}

fn main() {
    let smoke = flag("--smoke");
    let connections = arg_value("--conns").unwrap_or(if smoke { 32 } else { 512 });
    let requests_per_connection = arg_value("--requests").unwrap_or(if smoke { 6 } else { 40 });
    let (churn_threads, churn_sessions) = if smoke { (8, 6) } else { (32, 30) };
    let micro_iters = if smoke { 200 } else { 2_000 };

    // One server, one shared service, one warm key: the measured window
    // never runs the engine, so this is transport + codec + serving.
    let server = start_server(2008, connections + 64);
    let addr = server.listen_addr();
    let mut setup = NetClient::connect(&addr, Codec::Json).expect("connect");
    let response = setup.request(&register_request("bench")).expect("register");
    assert!(
        matches!(response, Response::Registered { warm: true, .. }),
        "the bench key must be warm before the measured window"
    );
    // The workers start together, so a worker's first `Estimate` may
    // reach the server before any worker's `Ingest`: land one batch first.
    let response = setup
        .request(&ingest_request("bench", INGEST_BATCH, 0))
        .expect("ingest");
    assert!(matches!(response, Response::Ingested { .. }));
    drop(setup);

    let mut codec_runs = Vec::new();
    let mut max_active = 0u64;
    for codec in [Codec::Json, Codec::Binary] {
        let (run, active) =
            run_codec_load(&addr, codec, connections, requests_per_connection, &server);
        max_active = max_active.max(active);
        codec_runs.push(run);
    }
    assert!(
        max_active >= connections as u64,
        "the fleet never reached {connections} concurrent connections (peak {max_active})"
    );

    let binary_over_json_mixed_qps = codec_runs[1].qps / codec_runs[0].qps.max(1e-9);
    let churn = run_churn(&addr, churn_threads, churn_sessions);

    server.request_drain();
    server.wait();

    let baseline = NetBaseline {
        connections,
        requests_per_connection,
        max_active_connections: max_active,
        codec_runs,
        binary_over_json_mixed_qps,
        churn,
        codec_micro: run_codec_micro(micro_iters),
        snapshot_identical: check_snapshot_determinism(),
    };
    write_baseline(&workspace_root(), "net", smoke, &baseline);
}
