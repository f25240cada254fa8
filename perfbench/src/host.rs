//! The host and configuration record written with every result.

use std::path::Path;

/// Everything needed to tell whether two results are comparable.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub commit: String,
    pub optrr_tune: String,
    pub tuning: optrr::tune::Tuning,
}

impl HostRecord {
    /// Pins `OPTRR_TUNE=off` unless the caller chose a value (the
    /// calibration probe would otherwise move the parallel thresholds from
    /// run to run), clears inherited `OPTRR_SERVE_*` overrides so the
    /// production configuration is the one measured, then resolves the
    /// tuning. Must run before any thread starts.
    pub fn capture() -> Self {
        if std::env::var_os("OPTRR_TUNE").is_none() {
            std::env::set_var("OPTRR_TUNE", "off");
        }
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("OPTRR_SERVE_") {
                std::env::remove_var(name);
            }
        }
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: commit(Path::new(".")),
            optrr_tune: std::env::var("OPTRR_TUNE").unwrap_or_default(),
            tuning: optrr::tune::tuning(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"commit\":\"{}\",\"optrr_tune\":\"{}\",\"tuning\":{{\"kernel_min_pairs\":{},\"batch_min_work\":{},\"calibrated\":{}}}}}",
            self.nproc,
            self.commit,
            self.optrr_tune,
            self.tuning.kernel_min_pairs,
            self.tuning.batch_min_work,
            self.tuning.calibrated
        )
    }
}

/// The checked-out commit, read from `.git` under `root` without running
/// git; `unknown` outside a repository (an exported source tree).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
