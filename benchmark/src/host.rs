//! What a result file is stamped with, and the process's own gauges.

use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Git revision of the benchmarked tree and whether it has uncommitted
/// changes; `unknown` outside a git checkout.
fn git_rev() -> (String, bool) {
    let dir = env!("CARGO_MANIFEST_DIR");
    match command_line("git", &["-C", dir, "rev-parse", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = command_line("git", &["-C", dir, "status", "--porcelain"])
                .is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        _ => ("unknown".to_string(), false),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn stamp() -> Json {
    let (rev, dirty) = git_rev();
    Json::obj(vec![
        ("git_rev", Json::str(rev)),
        ("git_dirty", Json::Bool(dirty)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        ),
    ])
}

/// Sets glibc malloc's `mmap` threshold to its 32 MiB ceiling and turns
/// heap trimming off, so that every block below 32 MiB comes from a heap
/// that only grows. Left alone, glibc starts both thresholds at 128 KiB
/// and raises them to the size of the first large block freed; until
/// then, and whenever a live block happens to sit on top of the heap,
/// the same allocation is a fresh `mmap` (page faults, less resident) in
/// one run and warm heap in the next — a fifth apart in `build_s` and
/// `peak_rss_mb`, by how the run's threads interleaved. Call before the
/// first thread is spawned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` stores two integers in the allocator's
    // parameters; no other thread exists yet.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_allocator() {}

fn status_field(field: &str) -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> usize {
    status_field("Threads:").map_or(0, |n| n as usize)
}
