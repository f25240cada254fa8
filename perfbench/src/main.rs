//! The repo benchmark: three seeded closed-loop workloads against the
//! production service behind its socket front door, in this process, plus
//! a traced per-layer breakdown. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload <query-hot|ingest-stream|key-churn|all> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything before it
//! is the human report.

mod check;
mod echo;
mod gen;
mod host;
mod ingest_stream;
mod key_churn;
mod layers;
mod query_hot;
mod replay;
mod report;
mod stack;
mod stats;
mod trace;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// Where span files and full result records go, relative to the checkout.
const OUT_DIR: &str = ".perfbench_out";

/// Spans written per traced run (the first ones recorded; self time uses
/// all of them). A traced socket window records ~10^5–10^6 spans.
const MAX_SPANS_WRITTEN: usize = 200_000;

pub const WORKLOADS: [&str; 3] = ["query-hot", "ingest-stream", "key-churn"];

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn run_one(opts: &Opts, host: &host::HostRecord) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Vec::new();
    match opts.workload.as_str() {
        "query-hot" => query_hot::run(opts, &mut report, &mut spans)?,
        "ingest-stream" => ingest_stream::run(opts, &mut report, &mut spans)?,
        "key-churn" => key_churn::run(opts, &mut report, &mut spans)?,
        other => unreachable!("validated workload {other}"),
    }
    if !opts.trace {
        report.metric("success_rate", 1.0 - report.error_rate(), "ratio");
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    if opts.trace {
        let layers = trace::self_time_by_layer(&spans);
        let total: u64 = layers.values().sum();
        for (layer, nanos) in &layers {
            report.note(format!(
                "self time {layer:<10} {:>12.3} ms ({:.1}%)",
                *nanos as f64 / 1e6,
                100.0 * *nanos as f64 / total.max(1) as f64
            ));
        }
        let path = Path::new(OUT_DIR).join(format!("spans-{tag}.jsonl"));
        let written = &spans[..spans.len().min(MAX_SPANS_WRITTEN)];
        trace::write_jsonl(&path, written)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!(
            "{} of {} spans written to {}",
            written.len(),
            spans.len(),
            path.display()
        ));
    }
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":{},\"metrics\":{{{}}}}}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        host.to_json(),
        report.correct(),
        report.attempted,
        report.failed,
        report.failures_json(),
        report.metrics_json("").join(",")
    );
    let path = Path::new(OUT_DIR).join(format!("result-{tag}.json"));
    std::fs::write(&path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::HostRecord::capture();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "host: nproc={} commit={} OPTRR_TUNE={} tuning={:?} seed={} seconds={} trace={}",
        host.nproc, host.commit, host.optrr_tune, host.tuning, opts.seed, opts.seconds, opts.trace
    );
    let workloads: Vec<&str> = match opts.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let prefixed = workloads.len() > 1;
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for workload in workloads {
        let one = Opts {
            workload: workload.to_string(),
            ..opts.clone()
        };
        let report = match run_one(&one, &host) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.human(workload));
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
        let prefix = if prefixed {
            format!("{workload}/")
        } else {
            String::new()
        };
        metrics.extend(report.metrics_json(&prefix));
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let o = parse_args(&args(
            "--workload key-churn --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("key-churn", 42, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload all --trace 2")).is_err());
        assert!(parse_args(&args("--workload all --seconds 0")).is_err());
        assert!(parse_args(&args("--workload all --seed")).is_err());
    }
}
