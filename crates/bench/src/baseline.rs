//! The one writer and the one report for the committed `BENCH_*.json`
//! baselines.
//!
//! Every bench binary ends with [`write_baseline`]: it prints the run's
//! headline figures as `perf-delta:` lines and, unless the run is a
//! `--smoke` run, writes `BENCH_<name>.json` as
//! `{"host": {...}, "results": <payload>}`. The host block records what the
//! numbers depend on: core count, the raw `OPTRR_TUNE`, the thresholds
//! [`optrr::tuning`] installed, and the commit (best effort). [`report`]
//! reads the committed files back and prints the same lines, so a bench
//! run and a review of its baseline read alike.
//!
//! A headline figure is any numeric field named as a ratio (`*_over_*`), a
//! rate (`*qps`, `*_per_sec*`), a median latency (`*_p50_ns`) or an
//! overhead (`*_percent`); rows are labelled by their `name`, `payload`,
//! `codec`, `n` or `population` field.

use serde::{Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The baselines the bench binaries commit, in report order; each is
/// `BENCH_<name>.json` at the workspace root.
const BASELINES: [&str; 6] = [
    "kernels",
    "fitness",
    "pipeline",
    "serve",
    "serve_tenants",
    "net",
];

/// Row fields that name a row in a report line rather than measure it.
const LABEL_KEYS: [&str; 5] = ["name", "payload", "codec", "n", "population"];

/// The workspace root, where the committed baselines live.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// What a baseline's numbers depend on besides the code.
#[derive(Serialize)]
struct Host {
    cores: usize,
    /// The raw `OPTRR_TUNE` value, `null` when unset.
    optrr_tune: Option<String>,
    kernel_min_pairs: usize,
    batch_min_work: usize,
    calibrated: bool,
    /// `git rev-parse --short HEAD`, `null` outside a checkout.
    commit: Option<String>,
}

impl Host {
    fn probe(root: &Path) -> Self {
        let tuning = optrr::tuning();
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(root)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|hash| hash.trim().to_string());
        Self {
            cores: crate::cores(),
            optrr_tune: std::env::var("OPTRR_TUNE").ok(),
            kernel_min_pairs: tuning.kernel_min_pairs,
            batch_min_work: tuning.batch_min_work,
            calibrated: tuning.calibrated,
            commit,
        }
    }
}

/// Prints the payload's headline lines, then writes
/// `root/BENCH_<name>.json` — unless `smoke`, in which case nothing is
/// written. A failed write is a warning, not a panic.
pub fn write_baseline(root: &Path, name: &str, smoke: bool, payload: &impl Serialize) {
    let results = payload.to_value();
    let mut lines = Vec::new();
    headlines(name, &results, &mut lines);
    for line in &lines {
        println!("{line}");
    }
    let path = root.join(format!("BENCH_{name}.json"));
    if smoke {
        println!("smoke mode: not writing {}", path.display());
        return;
    }
    let baseline = Value::Object(vec![
        ("host".into(), Host::probe(root).to_value()),
        ("results".into(), results),
    ]);
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    match std::fs::write(&path, json + "\n") {
        Ok(()) => println!("wrote baseline {}", path.display()),
        Err(error) => eprintln!("warning: could not write {}: {error}", path.display()),
    }
}

/// Prints the headline lines of every committed baseline under `root`.
/// A missing, unparsable or pre-host file gets a one-line note instead;
/// nothing here fails a build.
pub fn report(root: &Path, out: &mut impl Write) -> std::io::Result<()> {
    for name in BASELINES {
        let file = format!("BENCH_{name}.json");
        let Ok(text) = std::fs::read_to_string(root.join(&file)) else {
            writeln!(out, "perf-delta: {file}: not committed, skipping")?;
            continue;
        };
        let value = match serde_json::from_str::<Value>(&text) {
            Ok(value) => value,
            Err(error) => {
                writeln!(out, "perf-delta: {file}: unparsable ({error})")?;
                continue;
            }
        };
        let (Some(host), Some(results)) = (value.get("host"), value.get("results")) else {
            writeln!(
                out,
                "perf-delta: {file}: no host block (legacy format), skipping"
            )?;
            continue;
        };
        let host = serde_json::to_string(host).expect("value serializes");
        writeln!(out, "perf-delta: {name} host {host}")?;
        let mut lines = Vec::new();
        headlines(name, results, &mut lines);
        for line in lines {
            writeln!(out, "{line}")?;
        }
    }
    Ok(())
}

fn is_headline(key: &str) -> bool {
    key.contains("_over_")
        || key.ends_with("qps")
        || key.contains("_per_sec")
        || key.ends_with("_p50_ns")
        || key.ends_with("_percent")
}

/// `key value`, with ratios as `1.23x`.
fn figure(key: &str, value: &Value) -> String {
    let x = value.as_f64().unwrap_or(f64::NAN);
    if key.contains("_over_") {
        format!("{key} {x:.2}x")
    } else if let Some(int) = value.as_u64() {
        format!("{key} {int}")
    } else {
        format!("{key} {x:.1}")
    }
}

/// One `perf-delta:` line per object holding headline figures, walking
/// nested rows depth-first; `path` names the object.
fn headlines(path: &str, value: &Value, lines: &mut Vec<String>) {
    match value {
        Value::Object(fields) => {
            let figures: Vec<String> = fields
                .iter()
                .filter(|(key, value)| is_headline(key) && value.as_f64().is_some())
                .map(|(key, value)| figure(key, value))
                .collect();
            if !figures.is_empty() {
                lines.push(format!("perf-delta: {path}: {}", figures.join(", ")));
            }
            for (key, child) in fields {
                headlines(&format!("{path} {key}"), child, lines);
            }
        }
        Value::Array(items) => {
            for item in items {
                let label: Vec<String> = LABEL_KEYS
                    .iter()
                    .filter_map(|key| {
                        let field = item.get(key)?;
                        let text = (field.as_str().map(String::from))
                            .or_else(|| field.as_u64().map(|v| v.to_string()))?;
                        Some(format!("{key}={text}"))
                    })
                    .collect();
                headlines(&format!("{path}[{}]", label.join(" ")), item, lines);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory standing in for the workspace root.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_baseline_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn report_text(root: &Path) -> String {
        let mut out = Vec::new();
        report(root, &mut out).expect("report writes to memory");
        String::from_utf8(out).expect("report is UTF-8")
    }

    /// A `BENCH_kernels.json` payload in the shape `bench_kernels` emits.
    fn kernels_payload() -> Value {
        serde_json::from_str(
            r#"{"batch_evaluation": [
                {"n": 10, "matrices": 128, "serial": {"p50_ns": 900},
                 "serial_over_parallel": 0.87, "serial_over_calibrated": 1.0},
                {"n": 20, "matrices": 128, "serial": {"p50_ns": 4800},
                 "serial_over_parallel": 1.02, "serial_over_calibrated": 1.01}
            ]}"#,
        )
        .expect("payload parses")
    }

    #[test]
    fn smoke_mode_writes_nothing() {
        let root = scratch("smoke");
        write_baseline(&root, "kernels", true, &kernels_payload());
        let entries = std::fs::read_dir(&root).expect("scratch dir").count();
        assert_eq!(entries, 0, "a smoke run must not write a baseline");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn written_baseline_round_trips_with_host_and_results() {
        let root = scratch("write");
        let payload = kernels_payload();
        write_baseline(&root, "kernels", false, &payload);
        let text = std::fs::read_to_string(root.join("BENCH_kernels.json")).expect("written");
        let value: Value = serde_json::from_str(&text).expect("baseline parses");
        let host = value.get("host").expect("host block");
        assert!(host.get("cores").and_then(Value::as_u64).unwrap() >= 1);
        let tuning = optrr::tuning();
        assert_eq!(
            host.get("batch_min_work").and_then(Value::as_u64),
            Some(tuning.batch_min_work as u64)
        );
        assert!(host.get("optrr_tune").is_some() && host.get("commit").is_some());
        assert_eq!(value.get("results"), Some(&payload));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn report_notes_missing_unparsable_and_legacy_files() {
        let root = scratch("notes");
        std::fs::write(root.join("BENCH_fitness.json"), "{ not json").unwrap();
        std::fs::write(root.join("BENCH_net.json"), r#"{"connections": 512}"#).unwrap();
        let text = report_text(&root);
        assert_eq!(
            text.lines().count(),
            BASELINES.len(),
            "one note per file:\n{text}"
        );
        assert!(text.contains("perf-delta: BENCH_kernels.json: not committed, skipping"));
        assert!(text.contains("perf-delta: BENCH_fitness.json: unparsable"));
        assert!(text.contains("perf-delta: BENCH_net.json: no host block (legacy format)"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn report_prints_batch_evaluation_lines() {
        let root = scratch("report");
        write_baseline(&root, "kernels", false, &kernels_payload());
        let text = report_text(&root);
        assert!(
            text.contains("perf-delta: kernels host {\"cores\":"),
            "{text}"
        );
        assert!(text.contains(
            "perf-delta: kernels batch_evaluation[n=10]: \
             serial_over_parallel 0.87x, serial_over_calibrated 1.00x"
        ));
        assert!(
            text.contains("perf-delta: kernels batch_evaluation[n=20]: serial_over_parallel 1.02x")
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
