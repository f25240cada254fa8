//! In-process replays of a generated request stream through each layer's
//! public functions, timed from outside: the codec a client runs, the
//! codec the server runs, and `Service::handle` in between. Each request's
//! stage times attribute its socket round trip to layers; whatever the
//! layers do not explain is transport (sockets, threads, the write queue).

use crate::stack::{encode_request, encode_response};
use crate::stats::median;
use crate::trace::Tracer;
use serve::wire::{self, Codec};
use serve::{protocol, Request, Response, Service};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-stage samples, in microseconds (bytes for the sizes).
#[derive(Debug, Default, Clone)]
pub struct Stages {
    pub client_encode: Vec<f64>,
    pub server_decode: Vec<f64>,
    pub handle: Vec<f64>,
    pub server_encode: Vec<f64>,
    pub client_decode: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub response_bytes: Vec<f64>,
}

impl Stages {
    fn extend(&mut self, other: &Stages) {
        self.client_encode.extend(&other.client_encode);
        self.server_decode.extend(&other.server_decode);
        self.handle.extend(&other.handle);
        self.server_encode.extend(&other.server_encode);
        self.client_decode.extend(&other.client_decode);
        self.request_bytes.extend(&other.request_bytes);
        self.response_bytes.extend(&other.response_bytes);
    }

    /// Sum of the stage medians: what the layers explain of one round trip.
    pub fn explained_us(&self) -> f64 {
        [
            &self.client_encode,
            &self.server_decode,
            &self.handle,
            &self.server_encode,
            &self.client_decode,
        ]
        .iter()
        .map(|s| median(s))
        .sum()
    }
}

/// Stages per verb for one codec.
pub type ByVerb = BTreeMap<&'static str, Stages>;

/// All verbs of one codec pooled.
pub fn pooled(by_verb: &ByVerb, verbs: &[&str]) -> Stages {
    let mut all = Stages::default();
    for (verb, stages) in by_verb {
        if verbs.contains(verb) {
            all.extend(stages);
        }
    }
    all
}

fn server_decode(codec: Codec, bytes: &[u8]) -> Request {
    match codec {
        Codec::Json => {
            let text = std::str::from_utf8(bytes).expect("requests are UTF-8");
            protocol::decode_request(text.trim()).expect("benchmark requests decode")
        }
        Codec::Binary => {
            let (tag, payload) = split_frame(bytes);
            wire::decode_request_frame(tag, payload).expect("benchmark requests decode")
        }
    }
}

fn client_decode(codec: Codec, bytes: &[u8]) -> Response {
    match codec {
        Codec::Json => {
            let text = std::str::from_utf8(bytes).expect("responses are UTF-8");
            protocol::decode_response(text.trim()).expect("responses decode")
        }
        Codec::Binary => {
            let (tag, payload) = split_frame(bytes);
            wire::decode_response_frame(tag, payload).expect("responses decode")
        }
    }
}

/// The header and body parse a binary reader performs before decoding.
fn split_frame(bytes: &[u8]) -> (u8, &[u8]) {
    let header: [u8; 4] = bytes[..4].try_into().expect("a 4-byte header");
    let len = wire::parse_header(header).expect("a valid header");
    wire::parse_body(&bytes[4..4 + len]).expect("a valid body")
}

/// Layer span names per codec: (client encode, server decode, server
/// encode, client decode).
fn names(codec: Codec) -> [&'static str; 4] {
    match codec {
        Codec::Json => [
            "protocol.encode_request",
            "protocol.decode_request",
            "protocol.encode_response",
            "protocol.decode_response",
        ],
        Codec::Binary => [
            "wire.encode_request",
            "wire.decode_request",
            "wire.encode_response",
            "wire.decode_response",
        ],
    }
}

/// One request's trip through the layers: its verb, its stage times in
/// microseconds (client encode, server decode, `Service::handle`, server
/// encode, client decode) and its bytes each way.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub verb: &'static str,
    pub stages_us: [f64; 5],
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Cost {
    /// What the layers explain of this request's round trip.
    pub fn explained_us(&self) -> f64 {
        self.stages_us.iter().sum()
    }
}

/// Replays `requests` through one codec and `service`, one span per stage
/// under a `replay.request` root. `service` handles every request, so
/// stateful verbs (ingest) must run against a scratch service.
pub fn replay(
    codec: Codec,
    requests: &[Request],
    service: &Arc<Service>,
    tracer: &mut Tracer,
) -> Vec<Cost> {
    let [enc_req, dec_req, enc_resp, dec_resp] = names(codec);
    let mut out = Vec::with_capacity(requests.len());
    for (index, request) in requests.iter().enumerate() {
        let index = index as u64;
        let root = tracer.open("replay.request", None, index);
        let s0 = tracer.now();
        let bytes = encode_request(codec, request);
        let s1 = tracer.now();
        let decoded = server_decode(codec, &bytes);
        let s2 = tracer.now();
        let response = service.handle(decoded);
        let s3 = tracer.now();
        let reply = encode_response(codec, &response);
        let s4 = tracer.now();
        let echoed = client_decode(codec, &reply);
        let s5 = tracer.now();
        std::hint::black_box(echoed);
        let bounds = [s0, s1, s2, s3, s4, s5];
        for (name, w) in [enc_req, dec_req, "service.handle", enc_resp, dec_resp]
            .into_iter()
            .zip(bounds.windows(2))
        {
            tracer.record(name, w[0], w[1], Some(root), index);
        }
        tracer.close(root);
        out.push(Cost {
            verb: request.verb(),
            stages_us: std::array::from_fn(|i| (bounds[i + 1] - bounds[i]) as f64 / 1e3),
            request_bytes: bytes.len(),
            response_bytes: reply.len(),
        });
    }
    out
}

/// Replay passes per codec: one pass of a few thousand requests takes well
/// under a second, so a spell of host noise could otherwise decide a whole
/// figure.
pub const PASSES: usize = 5;

/// [`PASSES`] replays of the same requests.
pub struct Replayed {
    passes: Vec<Vec<Cost>>,
}

impl Replayed {
    /// Passes made elsewhere, e.g. each on its own fresh service.
    pub fn from_passes(passes: Vec<Vec<Cost>>) -> Self {
        Self { passes }
    }
}

/// [`replay`] [`PASSES`] times.
pub fn replay_passes(
    codec: Codec,
    requests: &[Request],
    service: &Arc<Service>,
    tracer: &mut Tracer,
) -> Replayed {
    Replayed {
        passes: (0..PASSES)
            .map(|_| replay(codec, requests, service, tracer))
            .collect(),
    }
}

impl Replayed {
    /// Every pass's samples pooled per verb and stage.
    pub fn by_verb(&self) -> ByVerb {
        let mut out = ByVerb::new();
        for cost in self.passes.iter().flatten() {
            let stages = out.entry(cost.verb).or_default();
            for (samples, &us) in [
                &mut stages.client_encode,
                &mut stages.server_decode,
                &mut stages.handle,
                &mut stages.server_encode,
                &mut stages.client_decode,
            ]
            .into_iter()
            .zip(&cost.stages_us)
            {
                samples.push(us);
            }
            stages.request_bytes.push(cost.request_bytes as f64);
            stages.response_bytes.push(cost.response_bytes as f64);
        }
        out
    }

    /// Per request, in stream order, each stage's median over the passes.
    pub fn per_request(&self) -> Vec<Cost> {
        (0..self.passes[0].len())
            .map(|i| {
                let first = self.passes[0][i];
                Cost {
                    stages_us: std::array::from_fn(|stage| {
                        median(
                            &self
                                .passes
                                .iter()
                                .map(|pass| pass[i].stages_us[stage])
                                .collect::<Vec<_>>(),
                        )
                    }),
                    ..first
                }
            })
            .collect()
    }
}

/// Reports the codec-layer and handle medians of one codec's replay of
/// the workload's main verb: `{protocol|wire}.{decode_request,
/// encode_response}_us` and `service.handle_us` (the latter from the JSON
/// replay only, so it is reported once).
pub fn report_layers(report: &mut crate::report::Report, codec: Codec, main: &Stages) {
    let layer = match codec {
        Codec::Json => "protocol",
        Codec::Binary => "wire",
    };
    report.metric(
        format!("{layer}.decode_request_us"),
        median(&main.server_decode),
        "us",
    );
    report.metric(
        format!("{layer}.encode_response_us"),
        median(&main.server_encode),
        "us",
    );
    if codec == Codec::Json {
        report.metric("service.handle_us", median(&main.handle), "us");
    }
}

/// `net.*` figures of one codec: the traced round trip, the part of it
/// no layer explains (transport), the bytes each way, and what tracing
/// itself added over the untraced window.
pub fn report_net(
    report: &mut crate::report::Report,
    codec: Codec,
    (traced_p50, plain_p50): (f64, f64),
    transport_us: f64,
    stages: &Stages,
) {
    let c = codec.label();
    report.metric(format!("net.rtt_us.{c}"), traced_p50, "us");
    report.metric(format!("net.transport_us.{c}"), transport_us, "us");
    report.metric(
        format!("net.bytes_request.{c}"),
        median(&stages.request_bytes),
        "B",
    );
    report.metric(
        format!("net.bytes_response.{c}"),
        median(&stages.response_bytes),
        "B",
    );
    report.metric(
        format!("trace.overhead_us.{c}"),
        traced_p50 - plain_p50,
        "us",
    );
}

/// How far the stage sum may stray from the traced round trip (the
/// ROADMAP's 10%).
pub const STAGE_SUM_BOUND: f64 = 0.10;

/// Model round trips measured per pass.
const MODEL_SAMPLES: usize = 4096;

/// The stage-sum check: the stage model ([`crate::echo`]) replays each
/// codec's request sequence, every request spending its own replayed stage
/// times in the threads that run them and moving its own bytes, one model
/// connection per codec side by side like the window's connections. Its
/// round-trip p50 over [`PASSES`] runs is the stage sum including
/// transport under load; it is set against the traced round trip's p50.
/// The model's p50 and the error are notes in the human report, not
/// metrics (only `query-hot` runs the model), and a miss is not counted
/// as a failure: the model runs after
/// the window, and on a host whose speed drifts over seconds the two can
/// disagree by more than [`STAGE_SUM_BOUND`] with nothing wrong in the
/// program (see the README's *Traced run*).
pub fn stage_sum_check(
    report: &mut crate::report::Report,
    codecs: &[(Codec, &[Cost], f64)],
) -> Result<(), String> {
    let d = |us: f64| std::time::Duration::from_secs_f64(us / 1e6);
    let connections: Vec<Vec<crate::echo::Shape>> = codecs
        .iter()
        .map(|(_, costs, _)| {
            costs
                .iter()
                .map(|c| crate::echo::Shape {
                    request_len: c.request_bytes,
                    response_len: c.response_bytes,
                    client_before: d(c.stages_us[0]),
                    server: d(c.stages_us[1] + c.stages_us[2] + c.stages_us[3]),
                    client_after: d(c.stages_us[4]),
                })
                .collect()
        })
        .collect();
    let mut samples = vec![Vec::new(); codecs.len()];
    for _ in 0..PASSES {
        let models = crate::echo::concurrent(&connections, MODEL_SAMPLES)?;
        for (all, model) in samples.iter_mut().zip(models) {
            all.extend(model);
        }
    }
    for ((codec, costs, rtt), model) in codecs.iter().zip(samples) {
        let c = codec.label();
        let rtt = *rtt;
        let predicted = median(&model);
        let error = (predicted / rtt - 1.0).abs();
        let explained = median(&costs.iter().map(Cost::explained_us).collect::<Vec<_>>());
        report.note(format!(
            "stage sum {c}: net.model_rtt_us p50 {predicted:.2} us (layers alone p50 {explained:.2} us) vs traced rtt p50 {rtt:.2} us: net.stage_sum_error {error:.3}, {} the bound {STAGE_SUM_BOUND}",
            if error <= STAGE_SUM_BOUND { "within" } else { "NOT within" },
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(stages_us: [f64; 5]) -> Cost {
        Cost {
            verb: "best_for_privacy",
            stages_us,
            request_bytes: 10,
            response_bytes: 20,
        }
    }

    #[test]
    fn per_request_costs_are_medians_over_the_passes_and_pool_by_verb() {
        let passes = [1.0, 9.0, 2.0]
            .iter()
            .map(|&v| vec![cost([v; 5]), cost([10.0 * v; 5])])
            .collect();
        let replayed = Replayed { passes };
        let per_request = replayed.per_request();
        assert_eq!(per_request[0].stages_us, [2.0; 5]);
        assert_eq!(per_request[1].explained_us(), 100.0);
        let by_verb = replayed.by_verb();
        assert_eq!(by_verb["best_for_privacy"].handle.len(), 6);
        assert_eq!(by_verb["best_for_privacy"].response_bytes[0], 20.0);
    }
}
