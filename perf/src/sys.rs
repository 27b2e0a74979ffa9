//! What the numbers were measured on: core count, cache sizes, compiler,
//! revision — and the peak resident set of a process.

use crate::json::Json;
use std::path::Path;

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc/<pid>/status`; `None` when the process is gone.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cache_size(level: u32) -> String {
    // Levels 2 and 3 have one (unified) entry each; find it by its level.
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .map(|s| s.trim().to_string())
                .ok()
        };
        if read("level").as_deref() == Some(level.to_string().as_str()) {
            if let Some(size) = read("size") {
                return size;
            }
        }
    }
    "unknown".into()
}

/// The checked-out revision, read from `.git` without running git (the
/// acceptance harness runs the benchmark in a plain directory, where this
/// is "unknown").
fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Host description stored with every result file.
pub fn host_info() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("l2", Json::str(cache_size(2))),
        ("l3", Json::str(cache_size(3))),
        ("rustc", Json::str(rustc_version())),
        ("git_rev", Json::str(git_rev(Path::new(".")))),
        ("shards", Json::Num(crate::sink::SHARDS as f64)),
    ])
}
