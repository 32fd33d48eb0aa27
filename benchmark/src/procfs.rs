//! Process CPU time, peak memory and host facts read from Linux `/proc`
//! (no dependencies: the build is offline).

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on every mainstream Linux ABI).
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    cpu_seconds_from_stat(&stat).unwrap_or(f64::NAN)
}

/// Fields 14 and 15 (`utime`, `stime`) of a `stat` line; the command name
/// in field 2 may contain spaces, so fields are counted after its `)`.
fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(files, bytes)` under `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                let (f, b) = dir_usage(&entry.path());
                files += f;
                bytes += b;
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|v| v.split_once(':')))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_are_counted_after_the_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0";
        assert_eq!(cpu_seconds_from_stat(line), Some(3.0));
        assert_eq!(cpu_seconds_from_stat("garbage"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
