//! What the benchmark reads about its host and its own process: the host
//! label every report carries, and process CPU time.

use std::path::Path;
use std::process::Command;

use crate::json::quote;

/// Linux's `USER_HZ`: `/proc/self/stat` reports CPU time in these ticks.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The host a report was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    pub fn detect(repo_root: &Path) -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            nproc: allowed_cpus().unwrap_or(available_parallelism),
            available_parallelism,
            rustc: rustc_version(),
            git_rev: git_rev(repo_root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Whether numbers from this host may gate anything: a host with fewer
    /// than two cores cannot show parallel behaviour.
    pub fn gates(&self) -> bool {
        self.nproc.min(self.available_parallelism) >= 2
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"rustc\": {}, \"git_rev\": {}, \"gates\": {}}}",
            self.nproc,
            self.available_parallelism,
            quote(&self.rustc),
            quote(&self.git_rev),
            self.gates()
        )
    }
}

/// The number of CPUs in this process's affinity mask.
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut n = 0;
    for part in list.trim().split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(n)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` without running git (a
/// checkout without `.git` reports `None`).
fn git_rev(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// User plus system CPU time of this process so far, in seconds (all
/// threads, including exited ones).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}
