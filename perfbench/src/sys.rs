//! Process facts read from `/proc`: CPU time per process and per thread,
//! peak resident memory, and the run's provenance.

use std::path::Path;

/// Clock ticks per second of `/proc/*/stat` CPU fields (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// user + system CPU seconds from a `/proc/.../stat` line.
fn stat_cpu_seconds(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &text[text.rfind(')').expect("stat line has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let tick = |i: usize| -> f64 { fields[i].parse().expect("numeric CPU field") };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// CPU seconds used by the whole process so far.
pub fn process_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// Peak resident set size of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, when it is a git work tree
/// (`unknown` otherwise, e.g. in an exported source tree).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(Path::new(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".to_string()),
        None => head,
    }
}
