//! `cleanml-bench-trajectory` — the measured performance trajectory.
//!
//! Runs the repository's quick study three ways against fresh cache
//! directories — cold with telemetry, warm-resumed with telemetry, and
//! cold with the registry disabled — then writes `BENCH_quick.json`:
//! wall-clock for each leg, per-kind task-latency summaries and the
//! slowest tasks pulled from the metrics registry, and the measured
//! telemetry overhead (asserted under 2%). Committing the
//! file gives the repository its first perf baseline; regenerate it with
//! `cargo run --release -p cleanml-bench --bin cleanml-bench-trajectory`
//! after changes that should move the needle.
//!
//! Flags: `--out FILE` (default `BENCH_quick.json`), `--splits N`
//! (default 2), `--workers N`, `--errors LIST`, `--trace-out FILE`
//! (records an extra traced cold run so tracing cost never pollutes the
//! overhead measurement). Any other argument, or a bad value, exits with
//! code 2.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cleanml_bench::{
    flag_value, parse_error_types, splits_flag, text_value, workers_flag, Cli, FlagDef,
    WORKERS_FLAG,
};
use cleanml_core::schema::ErrorType;
use cleanml_core::ExperimentConfig;
use cleanml_engine::{telemetry, Engine, EngineConfig, HistogramSummary, RunReport, TaskKind};

/// The overhead budget: an instrumented quick study must stay within 2%
/// of the same study with every telemetry site disabled.
const OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Wall-clock measurements are noisy on shared runners; re-measure up to
/// this many times (keeping per-leg minima) before declaring the budget
/// blown. The on/off order alternates between attempts so machine warm-up
/// drift never lands on the same leg twice in a row.
const MAX_ATTEMPTS: usize = 5;

const CLI: Cli = Cli {
    name: "cleanml-bench-trajectory",
    positionals: &[],
    groups: &[
        &[
            FlagDef::valued(
                "--out",
                "FILE",
                "where the trajectory goes (default BENCH_quick.json)",
            ),
            FlagDef::valued("--trace-out", "FILE", "record an extra traced cold run's spans"),
            FlagDef::valued("--splits", "N", "train/test splits, 2-1000 (default 2)"),
            FlagDef::valued("--errors", "LIST", "comma-separated error types (default: all five)"),
        ],
        WORKERS_FLAG,
    ],
};

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    out: PathBuf,
    trace_out: Option<PathBuf>,
    /// Worker threads (`0` = all available cores).
    workers: usize,
    splits: usize,
    error_types: Vec<ErrorType>,
}

/// Checks the command line (program name excluded) against [`CLI`] and
/// parses it.
fn parse_args(args: &[String]) -> Result<Args, String> {
    CLI.check(args)?;
    Ok(Args {
        out: flag_value(args, "--out", "FILE", text_value)?
            .map_or_else(|| "BENCH_quick.json".into(), PathBuf::from),
        trace_out: flag_value(args, "--trace-out", "FILE", text_value)?.map(PathBuf::from),
        workers: workers_flag(args)?,
        splits: splits_flag(args)?.unwrap_or(2),
        error_types: flag_value(args, "--errors", "error types", parse_error_types)?
            .unwrap_or_else(|| ErrorType::all().to_vec()),
    })
}

fn engine_cfg(workers: usize, cache_dir: PathBuf) -> EngineConfig {
    EngineConfig {
        workers,
        cache_dir: Some(cache_dir),
        cache_max_bytes: None,
        listen: None,
        lease_timeout: cleanml_engine::DEFAULT_LEASE_TIMEOUT,
        http_token: None,
    }
}

/// One measured study leg: fresh engine, optionally pre-warmed cache dir.
fn run_leg(
    workers: usize,
    cache_dir: &Path,
    error_types: &[ErrorType],
    cfg: &ExperimentConfig,
) -> (Duration, RunReport) {
    let mut engine = Engine::new(engine_cfg(workers, cache_dir.to_path_buf()));
    let started = Instant::now();
    let (_db, report) =
        engine.run_study_with_report(error_types, cfg).expect("trajectory study run");
    (started.elapsed(), report)
}

fn json_str(s: &str) -> String {
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

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn main() {
    let Args { out: out_path, trace_out, workers, splits, error_types } =
        CLI.or_exit(parse_args(&std::env::args().skip(1).collect::<Vec<_>>()));
    let mut cfg = ExperimentConfig::quick();
    cfg.n_splits = splits;

    let t = telemetry::global();
    let scratch = std::env::temp_dir().join(format!("cleanml-trajectory-{}", std::process::id()));
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut fresh_dir = |tag: &str, n: usize| {
        let d = scratch.join(format!("{tag}-{n}"));
        dirs.push(d.clone());
        d
    };

    // Reported walls keep per-leg minima across attempts; the overhead
    // estimate is the best adjacent on/off pair. The latency summaries
    // and slowest tasks come from the *first* cold instrumented run (the
    // registry is cumulative, so capturing right after the first run
    // isolates exactly that run's figures).
    let mut cold_on = Duration::MAX;
    let mut warm_on = Duration::MAX;
    let mut cold_off = Duration::MAX;
    let mut first_latency: Option<Vec<(TaskKind, HistogramSummary)>> = None;
    let mut first_slow: Vec<cleanml_engine::SlowTask> = Vec::new();
    // Fold-plane counters for the first cold instrumented leg: how many
    // candidate×fold fits its Train tasks executed and how many fold
    // materializations the shared FoldPlans answered from cache. The
    // quick budget runs a single candidate (`n_candidates: 1`), so
    // fold_reuse = 0 is expected here; reuse can only fire on
    // multi-candidate budgets such as paper().
    let mut train_cv_fits = 0u64;
    let mut train_fold_reuse = 0u64;
    let mut overhead_pct = f64::INFINITY;

    // Unmeasured warm-up: the first study in a fresh process pays one-off
    // costs (page cache, allocator, CPU governor ramp) that would be
    // charged to whichever measured leg ran first. A single-error-type
    // leg is enough to absorb them cheaply. Telemetry stays off so the
    // registry's first capture below holds exactly one measured run.
    {
        let dir = fresh_dir("warmup", 0);
        let warmup = &error_types[..1];
        t.set_enabled(false);
        let (wall, _) = run_leg(workers, &dir, warmup, &cfg);
        t.set_enabled(true);
        eprintln!("[trajectory] warm-up run ({}): {wall:.1?}", warmup[0].name());
    }

    for attempt in 1..=MAX_ATTEMPTS {
        // Alternate which leg runs first so slow drift in machine speed
        // cannot systematically favour one of them.
        let on_first = attempt % 2 == 1;
        let mut attempt_on = Duration::MAX;
        let mut attempt_off = Duration::MAX;
        for leg in 0..2 {
            if (leg == 0) == on_first {
                let dir = fresh_dir("on", attempt);
                t.set_enabled(true);
                t.reset_slow_tasks(); // run boundary: the table is per-run
                let cv_before = t.stats_snapshot();
                let (wall, report) = run_leg(workers, &dir, &error_types, &cfg);
                eprintln!(
                    "[trajectory] attempt {attempt}: cold run (telemetry on): {:.1?}, \
                     {} tasks executed",
                    wall,
                    report.executed_total(),
                );
                cold_on = cold_on.min(wall);
                attempt_on = wall;
                if first_latency.is_none() {
                    first_latency = Some(
                        TaskKind::ALL
                            .iter()
                            .map(|&k| (k, t.task_latency(k)))
                            .filter(|(_, s)| s.count > 0)
                            .collect(),
                    );
                    first_slow = t.slowest_tasks();
                    let cv = t.stats_snapshot().since(&cv_before);
                    train_cv_fits = cv.cv_fits;
                    train_fold_reuse = cv.fold_reuse;
                    eprintln!(
                        "[trajectory] fold plane: {} cv fits, {} fold reuses over {} Train tasks",
                        train_cv_fits,
                        train_fold_reuse,
                        report.executed(TaskKind::Train) + report.remote(TaskKind::Train),
                    );
                }

                t.reset_slow_tasks();
                let (wall, report) = run_leg(workers, &dir, &error_types, &cfg);
                let warm_trains = report.executed(TaskKind::Train) + report.remote(TaskKind::Train);
                eprintln!(
                    "[trajectory] attempt {attempt}: warm resume: {:.1?}, {} tasks executed",
                    wall,
                    report.executed_total(),
                );
                if warm_trains > 0 {
                    eprintln!("[trajectory] WARNING: warm resume re-trained {warm_trains} models");
                }
                warm_on = warm_on.min(wall);
            } else {
                let dir = fresh_dir("off", attempt);
                t.set_enabled(false);
                let (wall, _) = run_leg(workers, &dir, &error_types, &cfg);
                t.set_enabled(true);
                eprintln!("[trajectory] attempt {attempt}: cold run (telemetry off): {wall:.1?}");
                cold_off = cold_off.min(wall);
                attempt_off = wall;
            }
        }

        // The overhead estimate compares each attempt's own adjacent
        // on/off pair (both legs share the same machine epoch, so slow
        // drift cancels) and keeps the best pair seen. A single pair
        // where the instrumented run is not measurably slower bounds the
        // true overhead below the noise floor.
        let pair_pct = ((attempt_on.as_secs_f64() - attempt_off.as_secs_f64())
            / attempt_off.as_secs_f64()
            * 100.0)
            .max(0.0);
        overhead_pct = overhead_pct.min(pair_pct);
        if overhead_pct < OVERHEAD_BUDGET_PCT {
            break;
        }
        eprintln!(
            "[trajectory] attempt {attempt}: overhead {pair_pct:.2}% (best \
             {overhead_pct:.2}%) over budget; re-measuring"
        );
    }

    // The intra-process scaling leg: the same cold study at 4 workers
    // against a fresh cache. On a single-core host the honest figure is
    // ~1x (the nested-parallel plane cannot beat physics); on a
    // multi-core host it measures how well the zero-copy plane and
    // worker pool convert cores into wall-clock.
    const SCALE_WORKERS: usize = 4;
    let (cold_w4, scaling_efficiency) = {
        let dir = fresh_dir("w4", 0);
        t.set_enabled(true);
        t.reset_slow_tasks();
        let (wall, report) = run_leg(SCALE_WORKERS, &dir, &error_types, &cfg);
        let speedup = cold_on.as_secs_f64() / wall.as_secs_f64();
        eprintln!(
            "[trajectory] cold run (workers={SCALE_WORKERS}): {:.1?}, {} tasks executed, \
             {speedup:.2}x vs measured cold leg",
            wall,
            report.executed_total(),
        );
        (wall, speedup / SCALE_WORKERS as f64)
    };

    // The traced leg runs after (and apart from) the measured ones, so
    // span recording never counts against the overhead budget.
    if let Some(path) = &trace_out {
        t.start_tracing();
        let dir = fresh_dir("trace", 0);
        let (wall, _) = run_leg(workers, &dir, &error_types, &cfg);
        eprintln!("[trajectory] traced cold run: {wall:.1?}");
        match t.write_trace(path) {
            Ok(n) => eprintln!("[trajectory] wrote {n} trace events to {}", path.display()),
            Err(e) => {
                eprintln!("[trajectory] trace write failed ({}): {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"cleanml-bench-trajectory/v1\",\n");
    j.push_str("  \"profile\": \"quick\",\n");
    j.push_str(&format!("  \"splits\": {},\n", cfg.n_splits));
    let names: Vec<String> =
        error_types.iter().map(|et| json_str(&et.name().to_ascii_lowercase())).collect();
    j.push_str(&format!("  \"error_types\": [{}],\n", names.join(", ")));
    j.push_str(&format!(
        "  \"workers\": {},\n",
        engine_cfg(workers, scratch.clone()).effective_workers()
    ));
    // The host's core count contextualizes scaling_efficiency: on a
    // 1-core host the w4 leg cannot beat physics and ~1/4 efficiency is
    // the honest ceiling, not a regression.
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    j.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    j.push_str(&format!("  \"cold_wall_ms\": {:.1},\n", ms(cold_on)));
    j.push_str(&format!("  \"cold_wall_ms_w4\": {:.1},\n", ms(cold_w4)));
    j.push_str(&format!("  \"scaling_efficiency\": {scaling_efficiency:.3},\n"));
    j.push_str(&format!("  \"warm_wall_ms\": {:.1},\n", ms(warm_on)));
    j.push_str(&format!("  \"telemetry_off_cold_wall_ms\": {:.1},\n", ms(cold_off)));
    j.push_str(&format!("  \"telemetry_overhead_pct\": {overhead_pct:.2},\n"));
    j.push_str(&format!("  \"train_cv_fits\": {train_cv_fits},\n"));
    j.push_str(&format!("  \"train_fold_reuse\": {train_fold_reuse},\n"));
    j.push_str("  \"task_latency\": {\n");
    let latency = first_latency.unwrap_or_default();
    let rows: Vec<String> = latency
        .iter()
        .map(|(k, s)| {
            format!(
                "    {}: {{\"count\": {}, \"total_ms\": {:.1}, \"mean_ms\": {:.3}, \
                 \"p50_ms\": {:.1}, \"p90_ms\": {:.1}, \"p99_ms\": {:.1}}}",
                json_str(k.name()),
                s.count,
                s.sum_micros as f64 / 1000.0,
                s.mean_ms(),
                s.p50_ms,
                s.p90_ms,
                s.p99_ms,
            )
        })
        .collect();
    j.push_str(&rows.join(",\n"));
    j.push_str("\n  },\n");
    j.push_str("  \"slowest_tasks\": [\n");
    let rows: Vec<String> = first_slow
        .iter()
        .map(|s| {
            format!(
                "    {{\"label\": {}, \"kind\": {}, \"class\": {}, \"dur_ms\": {:.1}}}",
                json_str(&s.label),
                json_str(s.kind),
                json_str(&s.class),
                s.dur_us as f64 / 1000.0,
            )
        })
        .collect();
    j.push_str(&rows.join(",\n"));
    j.push_str("\n  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &j) {
        eprintln!("[trajectory] failed to write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    eprintln!("[trajectory] wrote {}", out_path.display());

    if overhead_pct < OVERHEAD_BUDGET_PCT {
        println!(
            "[trajectory] telemetry overhead {overhead_pct:.2}% < {OVERHEAD_BUDGET_PCT}% budget \
             (best cold walls: {:.1?} instrumented, {:.1?} disabled)",
            cold_on, cold_off,
        );
    } else {
        println!(
            "[trajectory] telemetry overhead {overhead_pct:.2}% EXCEEDS {OVERHEAD_BUDGET_PCT}% \
             budget after {MAX_ATTEMPTS} attempts",
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_with_defaults() {
        let defaults = Args {
            out: "BENCH_quick.json".into(),
            trace_out: None,
            workers: 0,
            splits: 2,
            error_types: ErrorType::all().to_vec(),
        };
        assert_eq!(parse("").unwrap(), defaults);
        let args = parse(
            "--out b.json --trace-out t.json --workers 3 --splits 4 --errors outliers,duplicates",
        )
        .unwrap();
        assert_eq!(
            args,
            Args {
                out: "b.json".into(),
                trace_out: Some("t.json".into()),
                workers: 3,
                splits: 4,
                error_types: vec![ErrorType::Outliers, ErrorType::Duplicates],
            }
        );
    }

    #[test]
    fn bad_values_are_errors_not_defaults() {
        for bad in [
            "--splits 1",
            "--splits 1001",
            "--splits x",
            "--workers x",
            "--workers -1",
            "--errors bogus",
            "--out",
            "--out --splits",
            "--trace-out",
            "--quick",
            "--splits 2 --splits 3",
            "--workers",
            "BENCH.json",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with(bad.split(' ').next().unwrap()), "{bad}: {err}");
        }
    }
}
