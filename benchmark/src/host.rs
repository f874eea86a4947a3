//! What the host is, recorded next to every result, and the process
//! memory readings the end-to-end metrics use.

use std::process::Command;

use crate::json::Json;

/// Peak resident set of this process in MiB (`VmHWM`); `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set, in MiB, among the child processes this
/// process has waited for — how `corpus-cli` sees the memory of the `tmc`
/// invocations it spawned. `0.0` if the call fails.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        ru_utime: [i64; 2],
        ru_stime: [i64; 2],
        ru_maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;

    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (layout above, guarded by the cfg);
    // `getrusage` writes only within it and keeps no pointer to it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Other targets have a different `struct rusage`; report nothing rather
/// than guess its layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mib() -> f64 {
    0.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record written into `result.json`: processor counts as the
/// kernel and as the Rust runtime report them, toolchain, and revision.
pub fn describe(repo_root: &std::path::Path) -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let root = repo_root.to_string_lossy();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_revision",
            Json::Str(command_line("git", &["-C", &root, "rev-parse", "HEAD"])),
        ),
    ])
}
