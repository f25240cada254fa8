//! The system under test: the production `serve --standard` configuration
//! behind `serve::net::NetServer` on loopback TCP, in this process, plus
//! the client connections that drive it.

use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use serve::net::{ListenAddr, NetClient, NetConfig, NetServer};
use serve::wire::{self, Codec};
use serve::{protocol, Request, Response, Service};
use std::sync::Arc;
use std::time::Instant;

pub struct Stack {
    pub service: Arc<Service>,
    server: NetServer,
    addr: ListenAddr,
}

impl Stack {
    /// Starts the service from `serve::env::config_from_env(true)` — what
    /// `serve --standard` runs — with an optional resident-memory budget
    /// (`OPTRR_SERVE_BUDGET_BYTES`), and binds an ephemeral loopback port.
    pub fn start(budget_bytes: Option<u64>) -> Result<Self, String> {
        let mut config = serve::env::config_from_env(true).map_err(|e| e.to_string())?;
        config.memory_budget_bytes = budget_bytes;
        let service = Arc::new(Service::new(config));
        let listen = ListenAddr::Tcp("127.0.0.1:0".parse().expect("loopback address"));
        let server = NetServer::start(Arc::clone(&service), NetConfig::new(listen))
            .map_err(|e| format!("binding the listener: {e}"))?;
        let addr = server.listen_addr();
        Ok(Self {
            service,
            server,
            addr,
        })
    }

    pub fn connect(&self, codec: Codec) -> Result<Conn, String> {
        let client = NetClient::connect(&self.addr, codec)
            .map_err(|e| format!("connecting over {}: {e}", codec.label()))?;
        Ok(Conn { client, codec })
    }

    /// Drains the server and joins its threads. Close every [`Conn`] first,
    /// so sessions end at once instead of after the drain grace.
    pub fn stop(self) {
        self.server.request_drain();
        self.server.wait();
        self.service.wait_idle();
    }
}

/// One client connection. `request` is the plain `NetClient` round trip;
/// the traced path splits it into encode, write and read-and-decode spans.
pub struct Conn {
    client: NetClient,
    pub codec: Codec,
}

impl Conn {
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.client
            .request(request)
            .map_err(|e| format!("{} transport: {e}", self.codec.label()))
    }

    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        self.client
            .send(request)
            .map_err(|e| format!("{} send: {e}", self.codec.label()))
    }

    pub fn recv(&mut self) -> Result<Response, String> {
        self.client
            .recv()
            .map_err(|e| format!("{} recv: {e}", self.codec.label()))
    }

    /// The request exactly as `NetClient::send` frames it.
    pub fn encode(&self, request: &Request) -> Vec<u8> {
        encode_request(self.codec, request)
    }

    /// `send` with the encode and the write as separate spans under
    /// `parent`.
    pub fn send_traced(
        &mut self,
        request: &Request,
        tracer: &mut Tracer,
        parent: u32,
        index: u64,
    ) -> Result<(), String> {
        let bytes = tracer.time("client.encode", Some(parent), index, || {
            self.encode(request)
        });
        tracer
            .time("client.write", Some(parent), index, || {
                self.client.send_raw(&bytes)
            })
            .map_err(|e| format!("{} send: {e}", self.codec.label()))
    }

    pub fn recv_traced(
        &mut self,
        tracer: &mut Tracer,
        parent: u32,
        index: u64,
    ) -> Result<Response, String> {
        tracer.time("client.read_decode", Some(parent), index, || self.recv())
    }
}

/// Request bytes as a client of `codec` puts them on the wire.
pub fn encode_request(codec: Codec, request: &Request) -> Vec<u8> {
    match codec {
        Codec::Json => {
            let mut line = protocol::encode_request(request).into_bytes();
            line.push(b'\n');
            line
        }
        Codec::Binary => wire::encode_request_frame(request).expect("benchmark requests encode"),
    }
}

/// Response bytes as the server of `codec` puts them on the wire.
pub fn encode_response(codec: Codec, response: &Response) -> Vec<u8> {
    match codec {
        Codec::Json => {
            let mut line = protocol::encode_response(response).into_bytes();
            line.push(b'\n');
            line
        }
        Codec::Binary => wire::encode_response_frame(response).expect("benchmark responses encode"),
    }
}

/// Time since `start` in microseconds.
pub fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// What one connection collected in a window. Round trips are `f32`
/// microseconds so the benchmark's own memory stays small next to the
/// server's in the process's peak RSS.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Round trips of the workload's main verb.
    pub main: Vec<f32>,
    /// The same for secondary verbs.
    pub other: Vec<f32>,
}

impl Tally {
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    pub fn main_us(&self) -> Vec<f64> {
        self.main.iter().map(|&us| f64::from(us)).collect()
    }

    pub fn other_us(&self) -> Vec<f64> {
        self.other.iter().map(|&us| f64::from(us)).collect()
    }

    /// The median round trip of the main verb over the whole window.
    pub fn p50(&self) -> f64 {
        median(&self.main_us())
    }

    /// Adds this tally's attempts and failures to the report.
    pub fn count_into(&self, report: &mut Report) {
        report.absorb(self.attempted, &self.failures);
    }

    /// Requests answered.
    pub fn done(&self) -> usize {
        self.main.len() + self.other.len()
    }
}

/// Latency per codec of the workload's main verb over every answer of
/// the window: `p50_us.<codec>` and `p90_us.<codec>`, the latter a
/// [`crate::stats::tail`] (lowered if fewer than ten samples lie beyond
/// p90). The whole-window p99 is printed beside them, not gated.
/// `throughput_rps` is the requests both connections completed over the
/// window's length.
pub fn socket_metrics(report: &mut Report, json: &Tally, binary: &Tally, seconds: f64) {
    for (codec, tally) in [("json", json), ("binary", binary)] {
        let all = sorted(tally.main_us());
        let (Some(p90), Some(p99)) = (
            crate::stats::tail(&all, 90.0),
            crate::stats::tail(&all, 99.0),
        ) else {
            report.fail(format!("{codec}: too few answers for a tail"));
            continue;
        };
        report.note(format!(
            "{codec}: {} samples; p90_us is p{:.3} with {} beyond; whole-window p{:.3} {:.3} us with {} beyond",
            all.len(),
            p90.percentile,
            p90.beyond,
            p99.percentile,
            p99.value,
            p99.beyond
        ));
        report.metric(format!("p50_us.{codec}"), percentile(&all, 50.0), "us");
        report.metric(format!("p90_us.{codec}"), p90.value, "us");
    }
    let done = json.done() + binary.done();
    report.note(format!("throughput_rps: {done} answers in {seconds:.3} s"));
    report.metric("throughput_rps", done as f64 / seconds, "1/s");
}

/// The service-wide engine-run count, read over a connection (the
/// protocol-visible figure).
pub fn engine_runs(conn: &mut Conn) -> Result<u64, String> {
    match conn.request(&Request::Stats {
        key: None,
        name: None,
    })? {
        Response::ServiceStats { engine_runs, .. } => Ok(engine_runs),
        other => Err(format!("Stats answered {}", crate::check::brief(&other))),
    }
}

/// The registered key of a `Registered` answer.
pub fn registered_key(response: Response) -> Result<u64, String> {
    match response {
        Response::Registered {
            key, warm: true, ..
        } => Ok(key),
        other => Err(format!("Register answered {}", crate::check::brief(&other))),
    }
}

/// The front of a key, as served.
pub fn front(conn: &mut Conn, key: u64) -> Result<Vec<optrr::FrontPoint>, String> {
    match conn.request(&Request::Front {
        key: Some(key),
        name: None,
    })? {
        Response::Front {
            points,
            degraded: false,
            ..
        } if !points.is_empty() => Ok(points),
        other => Err(format!("Front answered {}", crate::check::brief(&other))),
    }
}

/// Times one complete set-up.
pub fn timed<S>(make: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let start = Instant::now();
    let setup = make()?;
    Ok((setup, start.elapsed().as_secs_f64()))
}

/// Set-ups timed per run: set-up includes engine work (registrations), so
/// one sample is too noisy to gate on.
pub const SETUPS: usize = 5;

/// The median set-up time over `first` (the set-up the window ran on) and
/// `SETUPS - 1` more complete set-ups, each stopped at once. They run
/// after the window so the memory they leave with the allocator does not
/// count into the window's peak RSS.
pub fn setup_median<S>(
    first: f64,
    mut make: impl FnMut() -> Result<S, String>,
    stop: impl Fn(S),
) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (setup, secs) = timed(&mut make)?;
        stop(setup);
        times.push(secs);
    }
    Ok(crate::stats::median(&times))
}
