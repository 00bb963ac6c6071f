//! What the host says about this process and itself (`/proc`, `rustc`,
//! `git`). Every reader degrades to a placeholder: a missing file must
//! not fail a measurement.

use std::process::Command;

/// Linux reports process times in USER_HZ ticks, 100 per second.
const MS_PER_TICK: f64 = 10.0;

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in ms.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some(close) = stat.rfind(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * MS_PER_TICK
}

/// One-minute load average.
pub fn load_avg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
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

/// The machine and toolchain a result was measured on.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostInfo {
    pub fn collect() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}
