//! The CleanML engine's benchmark: three workloads, end-to-end metrics
//! for the measured runs, per-layer metrics for traced runs. It drives the
//! system only through public functions and times each layer from outside,
//! around the calls into it.

pub mod client;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;

/// Seconds the HTTP clients of every run's serving phase send requests:
/// eight closed-loop clients at the gateway's ~45 requests/s each collect
/// about 2500 requests, more than the 1000 a p99 with 10 samples beyond it
/// needs.
pub const RUN_SECONDS: u64 = 8;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(report: &workload::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
