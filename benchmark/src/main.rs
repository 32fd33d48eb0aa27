//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload
//! <quick_cold|paper_cv|serve_warm> --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process (so CPU time and peak RSS belong to it
//! alone) and prints the result as the last line of standard output.
//! Progress, sample counts, reconciliation lines and host provenance go to
//! standard error and to `.bench_out/`. `--print-benchmark-json` prints the
//! repository's `BENCHMARK.json`; `--layers` prints each per-layer metric
//! with the end-to-end metric it should move.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cleanml_layerbench::workload::{run, Scale, Workload};
use cleanml_layerbench::{json_str, metrics, procfs, result_json, RUN_SECONDS};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Removes the run's stores however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_head() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--layers") {
        for l in metrics::per_layer() {
            println!("{}\t{}\t{}", l.name, l.unit, l.moves);
        }
        return ExitCode::SUCCESS;
    }
    let Some(workload) = flag(&args, "--workload").and_then(|w| Workload::parse(&w)) else {
        eprintln!("usage: --workload <quick_cold|paper_cv|serve_warm> [--seed N] [--seconds S] [--trace 0|1]");
        return ExitCode::from(2);
    };
    let parse = |name: &str, default: u64| match flag(&args, name) {
        None => Some(default),
        Some(v) => v.parse().ok(),
    };
    let (Some(seed), Some(seconds), Some(trace @ 0..=1)) =
        (parse("--seed", 1), parse("--seconds", RUN_SECONDS), parse("--trace", 0))
    else {
        eprintln!("error: --seed, --seconds and --trace take whole numbers (--trace 0 or 1)");
        return ExitCode::from(2);
    };
    let traced = trace == 1;

    let name = workload.name();
    let run_dir =
        RunDir(PathBuf::from(".bench_run").join(format!("{name}-{}", std::process::id())));
    let out_dir = Path::new(".bench_out");
    let trace_out = out_dir.join(format!("{name}-seed{seed}.trace.json"));
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_head\": {}}}",
        json_str(name),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&procfs::cpu_model()),
        json_str(&rustc_version()),
        json_str(&git_head()),
    );
    eprintln!("[bench] {provenance}");

    let scale = Scale::full(workload, seconds);
    let report = match run(
        workload,
        seed,
        &scale,
        traced,
        &run_dir.0,
        traced.then_some(trace_out.as_path()),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[bench] {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(run_dir);
    for note in &report.notes {
        eprintln!("[bench] {note}");
    }
    let result = result_json(&report);
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    let record = format!(
        "{{\"provenance\": {provenance}, \"notes\": [{}], \"result\": {result}}}\n",
        notes.join(", ")
    );
    let record_path = out_dir.join(format!("{name}-seed{seed}-trace{trace}.json"));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&record_path, record))
    {
        eprintln!("[bench] cannot write {}: {e}", record_path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
