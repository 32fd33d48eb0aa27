//! # cleanml-bench
//!
//! The reproduction harness: one binary per paper table (Tables 11–19),
//! scientific ablation binaries, and Criterion micro-benchmarks.
//!
//! Every `tableNN` binary regenerates the corresponding table of the paper's
//! evaluation section from scratch — generate datasets, run the §IV protocol
//! through the `cleanml-engine` scheduler, apply Benjamini–Yekutieli, issue
//! the §V-A queries — and prints rows in the paper's `NN% (count)` format.
//! Absolute counts depend on the synthetic stand-ins (see the README's
//! *Substitutions* section); the *shape* — which flags dominate, which
//! methods/models/datasets deviate — is the reproduction target.
//!
//! All binaries accept a profile argument:
//!
//! * `--quick` — 6 splits, no tuning (seconds; CI smoke).
//! * `--standard` — the default: paper's 20 splits, default hyper-parameters.
//! * `--paper` — 20 splits with random search + 5-fold CV (slow).
//!
//! plus the engine flags:
//!
//! * `--workers N` — worker threads (default: all cores).
//! * `--cache-dir DIR` — persistent artifact cache; a killed or repeated
//!   run against a warm cache skips all finished cleaning and training.
//! * `--cache-max-bytes N[k|m|g]` — byte budget for the cache directory;
//!   least-recently-used artifacts are evicted to stay under it.
//! * `--cache-stats` — print an end-of-run cache summary line (memory/disk
//!   hits, misses, writes, evictions, store size, remote accounting).
//! * `--listen ADDR` — accept remote `cleanml-worker` connections; remote
//!   workers lease ready tasks and ship artifacts back over TCP.
//! * `--lease-timeout SECS` — how long a leased worker may go silent
//!   before its task is re-queued (default 5).
//! * `--trace-out FILE` — record per-task spans and write them as Chrome
//!   trace-event JSON on exit (load in `chrome://tracing` / Perfetto).

use std::sync::{mpsc, Arc};

use cleanml_core::database::FlagDist;
use cleanml_core::schema::ErrorType;
use cleanml_core::{CleanMlDb, ExperimentConfig};
use cleanml_engine::remote::http::MAX_SPLITS;
use cleanml_engine::{Engine, EngineConfig, EngineEvent, SlowTask, StatsSnapshot, TaskKind};
use cleanml_parallel::ThreadBridge;
use cleanml_stats::Flag;

/// The command line without the program name.
fn cli_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Prints a flag error and exits with code 2, the CLI-misuse status.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The value after `flag` in `args`, through `parse`: `Ok(None)` when the
/// flag is absent, an error naming the flag and `what` it expects when
/// the value is missing or does not parse. An explicitly given value is
/// never silently replaced by a default.
pub fn flag_value<T>(
    args: &[String],
    flag: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let value = args.get(pos + 1).map_or("", String::as_str);
    match parse(value) {
        Some(v) => Ok(Some(v)),
        None => Err(format!("{flag} expects {what}, got `{value}`")),
    }
}

/// A text flag value ([`flag_value`]'s `parse`): non-empty, and not the
/// next flag — a value like `--quick` was never meant as one.
pub fn text_value(v: &str) -> Option<String> {
    Some(v.to_string()).filter(|v| !v.is_empty() && !v.starts_with("--"))
}

/// The profile `args` select, as the gateway spells it: `--paper` wins
/// over `--quick`; the default is `standard`.
pub fn profile_name(args: &[String]) -> &'static str {
    if args.iter().any(|a| a == "--paper") {
        "paper"
    } else if args.iter().any(|a| a == "--quick") {
        "quick"
    } else {
        "standard"
    }
}

/// The experiment configuration `args` select: the profile plus
/// `--splits` (within the gateway's `2..=1000`) and `--seed`.
pub fn parse_config(args: &[String]) -> Result<ExperimentConfig, String> {
    let mut cfg = match profile_name(args) {
        "paper" => ExperimentConfig::paper(),
        "quick" => ExperimentConfig::quick(),
        _ => ExperimentConfig::standard(),
    };
    if let Some(n) = splits_flag(args)? {
        cfg.n_splits = n;
    }
    if let Some(seed) = flag_value(args, "--seed", "an unsigned integer", |v| v.parse().ok())? {
        cfg.base_seed = seed;
    }
    Ok(cfg)
}

/// `--splits`: a split count within the gateway's `2..=MAX_SPLITS`.
pub fn splits_flag(args: &[String]) -> Result<Option<usize>, String> {
    flag_value(args, "--splits", &format!("a split count in 2..={MAX_SPLITS}"), |v| {
        v.parse().ok().filter(|n| (2..=MAX_SPLITS).contains(n))
    })
}

/// Parses the common CLI profile flags; exits with code 2 on a bad value.
pub fn config_from_args() -> ExperimentConfig {
    or_exit(parse_config(&cli_args()))
}

/// The engine configuration `args` select (`--workers`, `--cache-dir`,
/// `--cache-max-bytes`, `--listen`, `--lease-timeout`, `--http-token`).
pub fn parse_engine_config(args: &[String]) -> Result<EngineConfig, String> {
    Ok(EngineConfig {
        workers: flag_value(args, "--workers", "a worker count", |v| v.parse().ok())?.unwrap_or(0),
        cache_dir: flag_value(args, "--cache-dir", "DIR", text_value)?
            .map(std::path::PathBuf::from),
        cache_max_bytes: flag_value(args, "--cache-max-bytes", "N[k|m|g]", parse_byte_size)?,
        listen: flag_value(args, "--listen", "HOST:PORT", text_value)?,
        lease_timeout: flag_value(args, "--lease-timeout", "whole seconds > 0", |v| {
            v.parse().ok().filter(|&s| s > 0).map(std::time::Duration::from_secs)
        })?
        .unwrap_or(cleanml_engine::DEFAULT_LEASE_TIMEOUT),
        http_token: flag_value(args, "--http-token", "a non-empty token", text_value)?,
    })
}

/// Parses the engine CLI flags; exits with code 2 on a bad value.
pub fn engine_from_args() -> EngineConfig {
    or_exit(parse_engine_config(&cli_args()))
}

/// Parses a byte size: a plain integer, optionally suffixed `k`/`m`/`g`
/// (case-insensitive, powers of 1024), e.g. `64m`.
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 10),
        'm' | 'M' => (&s[..s.len() - 1], 20),
        'g' | 'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<u64>().ok()?.checked_mul(1u64 << shift)
}

/// Applies `f` to every item on `--workers` threads (the caller and its
/// helpers) and returns the results in input order, as a serial loop
/// would. Kernels called inside `f`, or outside this call, stay serial.
pub fn fan_out<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let helpers = engine_from_args().effective_workers().saturating_sub(1);
    cleanml_parallel::install_bridge(Arc::new(ThreadBridge { helpers }));
    let out = cleanml_parallel::run_indexed(items.len(), |i| f(&items[i]));
    cleanml_parallel::clear_bridge();
    out
}

/// Parses one error-type name, tolerant of case, spaces and underscores
/// (`missing_values`, `Missing Values` and `missingvalues` all match).
pub fn parse_error_type(token: &str) -> Option<ErrorType> {
    let norm = |s: &str| -> String {
        s.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_ascii_lowercase()
    };
    let wanted = norm(token);
    ErrorType::all().into_iter().find(|et| norm(et.name()) == wanted)
}

/// Parses a comma-separated error-type list for `--errors`.
pub fn parse_error_types(list: &str) -> Option<Vec<ErrorType>> {
    list.split(',').map(|tok| parse_error_type(tok.trim())).collect()
}

/// Runs a study through the engine with live progress on stderr — the
/// shared entry point of every `tableNN` binary.
pub fn run_study_cli(error_types: &[ErrorType], cfg: &ExperimentConfig) -> CleanMlDb {
    let engine_cfg = engine_from_args();
    let telemetry = cleanml_engine::telemetry::global();
    let trace_out = or_exit(flag_value(&cli_args(), "--trace-out", "FILE", text_value))
        .map(std::path::PathBuf::from);
    if trace_out.is_some() {
        telemetry.start_tracing();
    }
    let (tx, rx) = mpsc::channel();
    let mut engine = Engine::new(engine_cfg).with_events(tx);
    eprintln!("[engine] {} workers", engine.workers());
    if let Some(addr) = engine.remote_addr() {
        eprintln!("[engine] listening on {addr} (connect with: cleanml-worker --connect {addr})");
    }

    let render = std::thread::spawn(move || {
        let mut to_run = 0usize;
        let mut done = 0usize;
        for event in rx {
            match event {
                EngineEvent::GraphReady { total, cache_hits, pruned, to_run: t } => {
                    to_run = t;
                    eprintln!(
                        "[engine] {total} tasks: {t} to run, {cache_hits} cache hits, \
                         {pruned} pruned"
                    );
                }
                EngineEvent::TaskFinished { ok: true, .. } => {
                    done += 1;
                    if done.is_multiple_of(100) || done == to_run {
                        eprint!("\r[engine] {done}/{to_run} tasks done");
                    }
                }
                EngineEvent::WorkerJoined { worker } => {
                    eprintln!("\n[engine] remote worker joined: {worker}");
                }
                EngineEvent::LeaseExpired { worker, id, kind } => {
                    eprintln!(
                        "\n[engine] lease expired: task {id} ({}) re-queued after silence \
                         from {worker}",
                        kind.name()
                    );
                }
                EngineEvent::WorkerLeft { worker, completed } => {
                    eprintln!("\n[engine] remote worker left: {worker} ({completed} tasks)");
                }
                EngineEvent::RunFinished if to_run > 0 => {
                    eprintln!();
                }
                _ => {}
            }
        }
    });

    let started = std::time::Instant::now();
    let before = telemetry.stats_snapshot();
    telemetry.reset_slow_tasks(); // run boundary: the table is per-run
    let (db, report) = engine.run_study_with_report(error_types, cfg).expect("engine study run");
    let delta = telemetry.stats_snapshot().since(&before);
    let store_totals = engine.disk_store().map(|s| (s.total_bytes(), s.len()));
    let store_line = store_totals.map(|(bytes, _)| {
        format!(
            "; store: {} writes, {} evicted, {} B",
            delta.store_writes, delta.store_evictions, bytes
        )
    });
    drop(engine); // closes the event channel
    render.join().expect("progress thread");
    let by_kind: Vec<String> =
        report.executed.iter().map(|(k, n)| format!("{} {}", n, k.name())).collect();
    let remote_line = if report.remote_workers > 0 {
        format!(
            "; remote: {} workers executed {} tasks, {} leases re-queued",
            report.remote_workers,
            report.remote_total(),
            report.releases,
        )
    } else {
        String::new()
    };
    eprintln!(
        "[engine] executed {} tasks in {:.1?} ({}); cache: {} hits, {} pruned{}{}",
        report.executed_total(),
        started.elapsed(),
        if by_kind.is_empty() { "all cached".to_string() } else { by_kind.join(", ") },
        report.cache_hits,
        report.pruned,
        store_line.unwrap_or_default(),
        remote_line,
    );
    if std::env::args().any(|a| a == "--cache-stats") {
        // The line is derived from the metrics registry (snapshot delta
        // over the run), the same source `cleanml-query` reads over
        // `/metrics`.
        let slow = telemetry.slowest_tasks();
        println!("{}", cache_stats_line(&delta, store_totals, &slow));
        for (i, s) in slow.iter().enumerate() {
            eprintln!(
                "[engine] slowest {}: {} {} ({}) {:.1} ms",
                i + 1,
                s.kind,
                s.label,
                if s.class.is_empty() { "-" } else { &s.class },
                s.dur_us as f64 / 1000.0,
            );
        }
    }
    if let Some(path) = trace_out {
        match telemetry.write_trace(&path) {
            Ok(n) => eprintln!("[engine] wrote {n} trace events to {}", path.display()),
            Err(e) => eprintln!("[engine] trace write failed ({}): {e}", path.display()),
        }
    }
    db
}

/// Renders the end-of-run `--cache-stats` summary of a run's registry
/// `delta`: layer-by-layer cache counters, the persistent store's size,
/// and the run's execution provenance (local vs remote, plus re-leased
/// orphans), in a stable greppable format. `executed_train` counts
/// `Train` tasks across both provenances — the warm-memo acceptance
/// signal (a warm serve answers with `executed_train=0`). `cv_fits` and
/// `fold_reuse` come from the fold plane: how many candidate×fold model
/// fits the search grid executed and how many fold materializations were
/// answered by an already-built `FoldPlan` view (a warm serve, having
/// trained nothing, reports `cv_fits=0`). `slow` is the registry's top-8
/// slowest-tasks table; each entry renders as `kind:class:duration` (`-`
/// when empty).
pub fn cache_stats_line(
    delta: &StatsSnapshot,
    store_totals: Option<(u64, usize)>,
    slow: &[SlowTask],
) -> String {
    let (store_bytes, store_entries) = store_totals.unwrap_or((0, 0));
    let train = TaskKind::ALL.iter().position(|&k| k == TaskKind::Train).expect("a task kind");
    format!(
        "[cache-stats] memory_hits={} disk_hits={} misses={} disk_writes={} \
         disk_evictions={} store_entries={} store_bytes={} executed_local={} \
         executed_remote={} executed_train={} remote_workers={} releases={} \
         cv_fits={} fold_reuse={} slowest={}",
        delta.memory_hits,
        delta.disk_hits,
        delta.misses,
        delta.store_writes,
        delta.store_evictions,
        store_entries,
        store_bytes,
        delta.executed_local.iter().sum::<u64>(),
        delta.executed_remote.iter().sum::<u64>(),
        delta.executed_local[train] + delta.executed_remote[train],
        delta.workers_joined,
        delta.releases,
        delta.cv_fits,
        delta.fold_reuse,
        slowest_tasks_field(slow),
    )
}

/// The `slowest=` field of [`cache_stats_line`]: comma-joined
/// `kind:class:duration` entries, slowest first (`-` when the table is
/// empty or telemetry was off).
pub fn slowest_tasks_field(slow: &[SlowTask]) -> String {
    if slow.is_empty() {
        return "-".into();
    }
    slow.iter()
        .map(|s| {
            format!(
                "{}:{}:{:.1}ms",
                s.kind,
                if s.class.is_empty() { "-" } else { &s.class },
                s.dur_us as f64 / 1000.0,
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Fans the per-dataset jobs of grouped comparisons (Tables 17/19) out
/// with [`fan_out`] and regroups the flags by comparison, preserving
/// order.
pub fn grouped_flags<F>(comparisons: &[(&[&str], ErrorType)], f: F) -> Vec<Vec<Flag>>
where
    F: Fn(&str, ErrorType) -> Flag + Sync,
{
    let jobs: Vec<(usize, &str, ErrorType)> = comparisons
        .iter()
        .enumerate()
        .flat_map(|(ci, (datasets, et))| datasets.iter().map(move |&d| (ci, d, *et)))
        .collect();
    let flags = fan_out(&jobs, |&(_, name, et)| f(name, et));
    let mut grouped = vec![Vec::new(); comparisons.len()];
    for (&(ci, _, _), flag) in jobs.iter().zip(flags) {
        grouped[ci].push(flag);
    }
    grouped
}

/// The canonical RFC-4180 field escaping lives beside the relation
/// renderers in `cleanml_core::database`; re-exported here for the table
/// binaries.
pub use cleanml_core::database::csv_escape;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Converts a grouped query result into printable rows.
pub fn rows_of<K: std::fmt::Display>(
    map: &std::collections::BTreeMap<K, FlagDist>,
) -> Vec<(String, FlagDist)> {
    map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Builds a [`FlagDist`] from individual flags (Tables 17–19 aggregation).
pub fn dist_of(flags: &[Flag]) -> FlagDist {
    let mut d = FlagDist::default();
    for &f in flags {
        d.add(f);
    }
    d
}

/// Prints the run configuration banner.
pub fn banner(table: &str, cfg: &ExperimentConfig) {
    println!(
        "CleanML reproduction — {table} | splits={} search={:?} alpha={} seed={}",
        cfg.n_splits, cfg.search, cfg.alpha, cfg.base_seed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_aggregation() {
        let d = dist_of(&[Flag::Positive, Flag::Negative, Flag::Positive]);
        assert_eq!(d.p, 2);
        assert_eq!(d.n, 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn rows_render() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("EEG".to_string(), FlagDist { p: 1, s: 0, n: 0 });
        let rows = rows_of(&m);
        assert_eq!(rows[0].0, "EEG");
    }

    #[test]
    fn grouped_flags_preserves_comparison_order() {
        let comparisons: [(&[&str], ErrorType); 2] =
            [(&["A", "B"], ErrorType::Outliers), (&["C"], ErrorType::Duplicates)];
        let grouped = grouped_flags(&comparisons, |name, et| {
            if name == "B" || et == ErrorType::Duplicates {
                Flag::Positive
            } else {
                Flag::Insignificant
            }
        });
        assert_eq!(grouped, vec![vec![Flag::Insignificant, Flag::Positive], vec![Flag::Positive]]);
    }

    #[test]
    fn csv_escaping_covers_rfc4180() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_escape("cr\rhere"), "\"cr\rhere\"");
        assert_eq!(csv_escape(""), "");
    }

    #[test]
    fn cache_stats_line_is_stable_and_greppable() {
        let counters = StatsSnapshot {
            memory_hits: 1,
            disk_hits: 2,
            misses: 3,
            store_writes: 4,
            store_evictions: 5,
            ..Default::default()
        };
        let at = |kind| TaskKind::ALL.iter().position(|&k| k == kind).unwrap();
        let mut delta = StatsSnapshot {
            workers_joined: 2,
            releases: 1,
            cv_fits: 45,
            fold_reuse: 30,
            ..counters
        };
        delta.executed_local[at(TaskKind::Train)] = 6;
        delta.executed_local[at(TaskKind::Reduce)] = 2;
        delta.executed_remote[at(TaskKind::Train)] = 9;
        let slow = vec![
            SlowTask {
                label: "train eeg lr".into(),
                kind: "Train",
                class: "eeg".into(),
                dur_us: 5_250,
            },
            SlowTask {
                label: "clean citation".into(),
                kind: "Clean",
                class: String::new(),
                dur_us: 900,
            },
        ];
        assert_eq!(
            cache_stats_line(&delta, Some((1024, 7)), &slow),
            "[cache-stats] memory_hits=1 disk_hits=2 misses=3 disk_writes=4 \
             disk_evictions=5 store_entries=7 store_bytes=1024 executed_local=8 \
             executed_remote=9 executed_train=15 remote_workers=2 releases=1 \
             cv_fits=45 fold_reuse=30 slowest=Train:eeg:5.2ms,Clean:-:0.9ms"
        );
        // no persistent layer / purely local run: fields read as zero,
        // line shape stable
        let local = cache_stats_line(&counters, None, &[]);
        assert!(local.contains("store_entries=0 store_bytes=0"));
        assert!(local.ends_with(
            "executed_local=0 executed_remote=0 executed_train=0 remote_workers=0 releases=0 \
             cv_fits=0 fold_reuse=0 slowest=-"
        ));
    }

    #[test]
    fn error_type_names_parse_tolerantly() {
        assert_eq!(parse_error_type("missing_values"), Some(ErrorType::MissingValues));
        assert_eq!(parse_error_type("Missing Values"), Some(ErrorType::MissingValues));
        assert_eq!(parse_error_type("MISLABELS"), Some(ErrorType::Mislabels));
        assert_eq!(parse_error_type("nonsense"), None);
        assert_eq!(
            parse_error_types("outliers, duplicates"),
            Some(vec![ErrorType::Outliers, ErrorType::Duplicates])
        );
        assert_eq!(parse_error_types("outliers,bogus"), None);
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("12345"), Some(12345));
        assert_eq!(parse_byte_size("64k"), Some(64 << 10));
        assert_eq!(parse_byte_size("8M"), Some(8 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size(" 1k "), Some(1024));
        assert_eq!(parse_byte_size("x"), None);
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("18446744073709551615g"), None, "overflow rejected");
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn config_flags_parse_strictly() {
        let cfg = parse_config(&args("--quick --splits 3 --seed 7")).unwrap();
        assert_eq!((cfg.n_splits, cfg.base_seed), (3, 7));
        assert_eq!(cfg.search, ExperimentConfig::quick().search);
        assert_eq!(
            parse_config(&args("--paper")).unwrap().search,
            ExperimentConfig::paper().search
        );
        assert_eq!(parse_config(&[]).unwrap().n_splits, ExperimentConfig::standard().n_splits);
        assert_eq!(parse_config(&args("--splits 1000")).unwrap().n_splits, 1000);
        for bad in ["--splits abc", "--splits 1", "--splits 1001", "--splits", "--seed -1"] {
            let err = parse_config(&args(bad)).unwrap_err();
            assert!(err.starts_with(bad.split(' ').next().unwrap()), "{bad}: {err}");
        }
        assert_eq!(profile_name(&args("--quick --paper")), "paper");
        assert_eq!(profile_name(&args("--quick")), "quick");
        assert_eq!(profile_name(&[]), "standard");
    }

    #[test]
    fn engine_flags_parse_strictly() {
        let cfg = parse_engine_config(&args(
            "--workers 3 --cache-dir runs --cache-max-bytes 2m --listen 127.0.0.1:0 \
             --lease-timeout 9 --http-token s3cret",
        ))
        .unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.cache_dir, Some(std::path::PathBuf::from("runs")));
        assert_eq!(cfg.cache_max_bytes, Some(2 << 20));
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.lease_timeout, std::time::Duration::from_secs(9));
        assert_eq!(cfg.http_token.as_deref(), Some("s3cret"));
        let defaults = parse_engine_config(&[]).unwrap();
        assert_eq!((defaults.workers, defaults.listen), (0, None));
        assert_eq!(defaults.lease_timeout, cleanml_engine::DEFAULT_LEASE_TIMEOUT);
        for bad in [
            "--workers x",
            "--workers -2",
            "--workers",
            "--cache-dir",
            "--cache-max-bytes 2q",
            "--listen --quick",
            "--lease-timeout 0",
            "--http-token",
            "--http-token --quick",
        ] {
            let err = parse_engine_config(&args(bad)).unwrap_err();
            assert!(err.starts_with(bad.split(' ').next().unwrap()), "{bad}: {err}");
        }
    }
}
