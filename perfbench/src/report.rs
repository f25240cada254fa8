//! Accumulates checks and metrics, prints the human report and the final
//! JSON line, and writes the full result record.

use std::fmt::Write as _;

/// Caps how many failure messages are kept (the count is always exact).
const KEPT_FAILURES: usize = 20;

#[derive(Debug, Default)]
pub struct Report {
    /// Requests and whole-run checks attempted.
    pub attempted: u64,
    /// Failed, refused or incorrect responses and failed checks.
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a whole-run check: `Err` counts as one incorrect response.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(reason) = outcome {
            self.fail(format!("{what}: {reason}"));
        }
    }

    /// Counts one failure of something already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(reason);
        }
    }

    /// Merges a window's tallies.
    pub fn absorb(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        for reason in failures {
            self.fail(reason.clone());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines: notes, failures, then one line per metric.
    pub fn human(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {title}");
        for note in &self.notes {
            let _ = writeln!(out, "   {note}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "   FAILED {failure}");
        }
        let _ = writeln!(
            out,
            "   checks: {} attempted, {} failed, error_rate = {} ratio",
            self.attempted,
            self.failed,
            self.error_rate()
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "   {name:<42} {value:>16.6} {unit}");
        }
        out
    }

    /// The metrics object of the result line.
    pub fn metrics_json(&self, prefix: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{prefix}{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect()
    }

    pub fn failures_json(&self) -> String {
        let quoted: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        format!("[{}]", quoted.join(","))
    }
}

/// The final line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot hold) become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.absorb(1, &[]);
        r.check("ok", Ok(()));
        r.metric("setup_s", 0.25, "s");
        let line = result_line(r.correct(), r.attempted, r.failed, &r.metrics_json(""));
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn failures_count_into_the_error_rate() {
        let mut r = Report::default();
        r.absorb(3, &["x".into()]);
        r.check("y", Err("broke".into()));
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert_eq!(r.error_rate(), 2.0 / 3.0);
        assert!(!r.correct());
        assert!(r.human("t").contains("FAILED y: broke"));
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_number(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
