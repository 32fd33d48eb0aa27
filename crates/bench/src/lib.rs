//! # cleanml-bench
//!
//! The reproduction harness: one binary per paper table (Tables 11–19),
//! the scientific ablation binaries, `study`, and the serving daemon with
//! its clients.
//!
//! Every `tableNN` binary regenerates the corresponding table of the paper's
//! evaluation section from scratch — generate datasets, run the §IV protocol
//! through the `cleanml-engine` scheduler, apply Benjamini–Yekutieli, issue
//! the §V-A queries — and prints rows in the paper's `NN% (count)` format.
//! Absolute counts depend on the synthetic stand-ins (see the README's
//! *Substitutions* section); the *shape* — which flags dominate, which
//! methods/models/datasets deviate — is the reproduction target.
//!
//! Every binary checks its whole command line against one flag table
//! ([`Cli`]) before it does any work: a flag outside the table, a flag
//! given twice, a missing or unparsable value or an extra positional
//! prints the error and the usage generated from the table, and exits 2.
//! The tables are built from shared groups: [`PROFILE_FLAGS`],
//! [`WORKERS_FLAG`], [`ENGINE_FLAGS`] and [`RUN_OUTPUT_FLAGS`]. `study`,
//! Tables 11–16 and `ablation_corrections` take all four
//! ([`STUDY_FLAGS`]); Tables 18 and 19, `ablation_detectors` and
//! `ablation_splits` take the profile and `--workers` ([`FAN_OUT_FLAGS`]),
//! and Table 17 also takes `--cap`.

#![forbid(unsafe_code)]

use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cleanml_core::database::FlagDist;
use cleanml_core::schema::ErrorType;
use cleanml_core::{CleanMlDb, ExperimentConfig};
use cleanml_engine::remote::http::MAX_SPLITS;
use cleanml_engine::{Engine, EngineConfig, EngineEvent, SlowTask, StatsSnapshot, TaskKind};
use cleanml_stats::Flag;

/// One entry of a binary's flag table.
#[derive(Debug)]
pub struct FlagDef {
    /// The flag as typed, e.g. `--splits`.
    pub name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl FlagDef {
    /// A flag without a value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        FlagDef { name, value: None, help }
    }

    /// A flag whose value is the next argument.
    pub const fn valued(name: &'static str, value: &'static str, help: &'static str) -> Self {
        FlagDef { name, value: Some(value), help }
    }
}

/// The profile: the protocol budget, the split count and the seed
/// ([`parse_config`]).
pub const PROFILE_FLAGS: &[FlagDef] = &[
    FlagDef::switch("--quick", "6 splits, no tuning (seconds)"),
    FlagDef::switch("--standard", "the default: 20 splits, default hyper-parameters"),
    FlagDef::switch("--paper", "20 splits with random search + 5-fold CV (slow)"),
    FlagDef::valued("--splits", "N", "train/test splits, 2-1000"),
    FlagDef::valued("--seed", "S", "base seed"),
];

/// `--workers` ([`workers_flag`]).
pub const WORKERS_FLAG: &[FlagDef] =
    &[FlagDef::valued("--workers", "N", "worker threads (default 0: all cores)")];

/// The engine flags besides `--workers` ([`parse_engine_config`]).
pub const ENGINE_FLAGS: &[FlagDef] = &[
    FlagDef::valued("--cache-dir", "DIR", "persistent artifact store"),
    FlagDef::valued("--cache-max-bytes", "N[k|m|g]", "byte budget for the store (LRU eviction)"),
    FlagDef::valued("--listen", "HOST:PORT", "serve cleanml-worker leases and HTTP clients"),
    FlagDef::valued("--lease-timeout", "SECS", "silence before a remote lease is re-queued (5)"),
    FlagDef::valued("--http-token", "TOK", "bearer token for the gateway's /studies routes"),
];

/// A study run's output beyond its relations ([`parse_run_args`]).
pub const RUN_OUTPUT_FLAGS: &[FlagDef] = &[
    FlagDef::switch("--cache-stats", "print an end-of-run cache and provenance summary"),
    FlagDef::valued("--trace-out", "FILE", "write per-task spans as Chrome trace-event JSON"),
];

/// The table of a binary that runs a study through [`run_study_cli`]:
/// `study`, Tables 11–16 and `ablation_corrections`.
pub const STUDY_FLAGS: &[&[FlagDef]] =
    &[PROFILE_FLAGS, WORKERS_FLAG, ENGINE_FLAGS, RUN_OUTPUT_FLAGS];

/// The table of a binary that fans its own jobs out with [`fan_out`]:
/// Tables 18 and 19, `ablation_detectors` and `ablation_splits`.
pub const FAN_OUT_FLAGS: &[&[FlagDef]] = &[PROFILE_FLAGS, WORKERS_FLAG];

/// A binary's command line: the flags it reads, as a list of groups, and
/// the positionals it takes, all optional and in order.
pub struct Cli {
    /// The binary's name, as its usage line spells it.
    pub name: &'static str,
    pub positionals: &'static [&'static str],
    pub groups: &'static [&'static [FlagDef]],
}

impl Cli {
    fn flags(&self) -> impl Iterator<Item = &'static FlagDef> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    /// Checks `args` (program name excluded) against the table and returns
    /// the positionals. A flag outside the table, a flag given twice, a
    /// value flag without a value and a positional beyond the table's are
    /// errors; each message starts with the argument at fault. Values are
    /// parsed afterwards by their readers ([`flag_value`] and the like):
    /// once this check passes, each flag appears at most once and no value
    /// starts with `--`, so a reader finds a flag where this check saw it.
    pub fn check<'a>(&self, args: &'a [String]) -> Result<Vec<&'a str>, String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut positionals = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') {
                if positionals.len() == self.positionals.len() {
                    return Err(format!("{arg}: unexpected argument"));
                }
                positionals.push(arg.as_str());
                continue;
            }
            let Some(flag) = self.flags().find(|f| f.name == arg) else {
                return Err(format!("{arg}: not a flag of {}", self.name));
            };
            if seen.contains(&flag.name) {
                return Err(format!("{arg}: given more than once"));
            }
            seen.push(flag.name);
            if let Some(what) = flag.value {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => {}
                    value => {
                        let got = value.map_or("", String::as_str);
                        return Err(format!("{arg} expects {what}, got `{got}`"));
                    }
                }
            }
        }
        Ok(positionals)
    }

    /// The usage text: the synopsis, then one line per flag.
    pub fn usage(&self) -> String {
        let label = |f: &FlagDef| match f.value {
            Some(value) => format!("{} {value}", f.name),
            None => f.name.to_string(),
        };
        let width = self.flags().map(|f| label(f).len()).max().unwrap_or(0);
        let mut text = format!("usage: {}", self.name);
        if self.flags().next().is_some() {
            text.push_str(" [flags]");
        }
        for p in self.positionals {
            text.push_str(&format!(" [{p}]"));
        }
        for f in self.flags() {
            text.push_str(&format!("\n  {:<width$}  {}", label(f), f.help));
        }
        text
    }

    /// Reads the process's command line (program name excluded) and
    /// parses it with `parse`, which is handed the arguments and the
    /// positionals of [`Cli::check`]. On any error prints it with the
    /// usage and exits 2, before the binary does any work.
    pub fn parse<T>(&self, parse: impl FnOnce(&[String], &[&str]) -> Result<T, String>) -> T {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.or_exit(self.check(&args).and_then(|positionals| parse(&args, &positionals)))
    }

    /// [`or_exit`], with the usage printed after the error.
    pub fn or_exit<T>(&self, parsed: Result<T, String>) -> T {
        or_exit(parsed.map_err(|e| format!("{e}\n{}", self.usage())))
    }
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
fn splits_flag(args: &[String]) -> Result<Option<usize>, String> {
    flag_value(args, "--splits", &format!("a split count in 2..={MAX_SPLITS}"), |v| {
        v.parse().ok().filter(|n| (2..=MAX_SPLITS).contains(n))
    })
}

/// `--workers`: a worker count, `0` (the default) for all cores.
pub fn workers_flag(args: &[String]) -> Result<usize, String> {
    Ok(flag_value(args, "--workers", "a worker count", |v| v.parse().ok())?.unwrap_or(0))
}

/// The engine configuration `args` select (`--workers`, `--cache-dir`,
/// `--cache-max-bytes`, `--listen`, `--lease-timeout`, `--http-token`).
pub fn parse_engine_config(args: &[String]) -> Result<EngineConfig, String> {
    Ok(EngineConfig {
        workers: workers_flag(args)?,
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

/// What a study binary reads besides its profile: the engine
/// configuration and the run-output flags.
pub struct RunArgs {
    pub engine: EngineConfig,
    pub trace_out: Option<PathBuf>,
    pub cache_stats: bool,
}

/// The [`RunArgs`] `args` select ([`STUDY_FLAGS`] beyond the profile).
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    Ok(RunArgs {
        engine: parse_engine_config(args)?,
        trace_out: flag_value(args, "--trace-out", "FILE", text_value)?.map(PathBuf::from),
        cache_stats: args.iter().any(|a| a == "--cache-stats"),
    })
}

/// Checks and parses the command line of a study binary: the profile and
/// the [`RunArgs`].
pub fn study_cli(name: &'static str) -> (ExperimentConfig, RunArgs) {
    let cli = Cli { name, positionals: &[], groups: STUDY_FLAGS };
    cli.parse(|args, _| Ok((parse_config(args)?, parse_run_args(args)?)))
}

/// Checks and parses the command line of a fan-out binary: the profile
/// and the `--workers` count for [`fan_out`].
pub fn fan_out_cli(name: &'static str) -> (ExperimentConfig, usize) {
    let cli = Cli { name, positionals: &[], groups: FAN_OUT_FLAGS };
    cli.parse(|args, _| Ok((parse_config(args)?, workers_flag(args)?)))
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

/// Applies `f` to every item on at most `workers` threads (the caller and
/// `workers − 1` helpers; `0` = all cores) and returns the results in input
/// order, as a serial loop would. Each thread claims the next unclaimed
/// item until none is left. A panic in `f` stops the claims and reaches
/// the caller with its original payload once every thread has stopped.
pub fn fan_out<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let helpers = EngineConfig { workers, ..Default::default() }
        .effective_workers()
        .min(items.len())
        .saturating_sub(1);
    let next = AtomicUsize::new(0);
    let drive = || {
        catch_unwind(AssertUnwindSafe(|| {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break done };
                done.push((i, f(item)));
            }
        }))
        .inspect_err(|_| next.store(items.len(), Ordering::Relaxed))
    };
    // Helpers are joined by hand: left to the scope, a helper's panic
    // would surface as a generic "a scoped thread panicked".
    let driven = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(drive)).collect();
        let mut driven = vec![drive()];
        driven.extend(helpers.into_iter().map(|h| h.join().unwrap_or_else(Err)));
        driven
    });
    let mut slots: Vec<Option<U>> = items.iter().map(|_| None).collect();
    for done in driven {
        for (i, out) in done.unwrap_or_else(|payload| resume_unwind(payload)) {
            slots[i] = Some(out);
        }
    }
    slots.into_iter().map(|out| out.expect("every item ran")).collect()
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
/// shared entry point of the study binaries ([`STUDY_FLAGS`]).
pub fn run_study_cli(error_types: &[ErrorType], cfg: &ExperimentConfig, run: RunArgs) -> CleanMlDb {
    let RunArgs { engine, trace_out, cache_stats } = run;
    let telemetry = cleanml_engine::telemetry::global();
    if trace_out.is_some() {
        telemetry.start_tracing();
    }
    let (tx, rx) = mpsc::channel();
    let mut engine = Engine::new(engine).with_events(tx);
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
    if cache_stats {
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
    let train = TaskKind::Train.index();
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
/// on `workers` threads with [`fan_out`] and regroups the flags by
/// comparison, preserving order.
pub fn grouped_flags<F>(
    comparisons: &[(&[&str], ErrorType)],
    workers: usize,
    f: F,
) -> Vec<Vec<Flag>>
where
    F: Fn(&str, ErrorType) -> Flag + Sync,
{
    let jobs: Vec<(usize, &str, ErrorType)> = comparisons
        .iter()
        .enumerate()
        .flat_map(|(ci, (datasets, et))| datasets.iter().map(move |&d| (ci, d, *et)))
        .collect();
    let flags = fan_out(&jobs, workers, |&(_, name, et)| f(name, et));
    let mut grouped = vec![Vec::new(); comparisons.len()];
    for (&(ci, _, _), flag) in jobs.iter().zip(flags) {
        grouped[ci].push(flag);
    }
    grouped
}

/// Connects to `addr`, retrying every 250 ms for up to `retry`: in a
/// scripted launch the server may still be starting. Each retry is noted
/// on stderr under `who`.
pub fn connect_with_retry(addr: &str, retry: Duration, who: &str) -> Result<TcpStream, String> {
    let deadline = Instant::now() + retry;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() < deadline => {
                eprintln!("[{who}] {addr} not ready ({e}); retrying");
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        }
    }
}

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
    fn fan_out_matches_serial_order() {
        // a permutation, with uneven work, so completion order differs
        // from input order; and no items at all
        let permuted: Vec<u64> = (0..97).map(|i| (i * 37) % 97).collect();
        let f = |&x: &u64| {
            for _ in 0..x % 7 {
                std::thread::yield_now();
            }
            x.wrapping_mul(0x9E37_79B9)
        };
        for items in [&permuted[..], &[]] {
            let serial: Vec<u64> = items.iter().map(f).collect();
            for workers in [1, 2, 8] {
                let n = items.len();
                assert_eq!(fan_out(items, workers, f), serial, "{n} items, workers={workers}");
            }
        }
    }

    /// A helper's panic reaches the caller with its original payload, not
    /// the scope's generic "a scoped thread panicked". Only helpers panic
    /// here: the caller holds its first item until one of them has run.
    #[test]
    fn helper_panics_reach_the_caller_with_their_payload() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..64).collect();
        for helpers in [1, 7] {
            let caller = std::thread::current().id();
            let helper_ran = AtomicBool::new(false);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fan_out(&items, helpers + 1, |&i| {
                    if std::thread::current().id() != caller {
                        helper_ran.store(true, Ordering::Release);
                        panic!("helper boom at item {i}");
                    }
                    while !helper_ran.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    i
                })
            }));
            let payload = caught.expect_err("a panicking item must propagate");
            let msg = payload.downcast_ref::<String>().expect("the original String payload");
            assert!(msg.starts_with("helper boom at item "), "helpers={helpers}: {msg}");
        }
    }

    #[test]
    fn grouped_flags_preserves_comparison_order() {
        let comparisons: [(&[&str], ErrorType); 2] =
            [(&["A", "B"], ErrorType::Outliers), (&["C"], ErrorType::Duplicates)];
        let grouped = grouped_flags(&comparisons, 2, |name, et| {
            if name == "B" || et == ErrorType::Duplicates {
                Flag::Positive
            } else {
                Flag::Insignificant
            }
        });
        assert_eq!(grouped, vec![vec![Flag::Insignificant, Flag::Positive], vec![Flag::Positive]]);
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
    fn flag_values_are_not_the_out_dir() {
        let study = Cli { name: "study", positionals: &["out_dir"], groups: STUDY_FLAGS };
        let check = |line: &str| study.check(&args(line)).map(|p| p.join(" "));
        // the README's tracing invocation
        assert_eq!(check("--quick --splits 2 --trace-out trace.json out/").unwrap(), "out/");
        for flag in study.flags().filter(|f| f.value.is_some()) {
            assert_eq!(check(&format!("{} value out", flag.name)).unwrap(), "out", "{flag:?}");
        }
        assert_eq!(check("--quick --cache-stats").unwrap(), "");
        assert_eq!(check("out --workers 2").unwrap(), "out");
        assert_eq!(check("--seed -1").unwrap(), "", "a value may start with one dash");
        for (bad, culprit) in [
            ("--help", "--help: "),
            ("--quik", "--quik: "),
            ("-h", "-h: "),
            ("--cap 2", "--cap: "),
            ("--splits 2 --splits 3 out", "--splits: "),
            ("--quick --quick", "--quick: "),
            ("--splits", "--splits expects N"),
            ("--trace-out --quick", "--trace-out expects FILE"),
            ("a b", "b: "),
            ("--workers 2 a --quick b", "b: "),
        ] {
            let err = check(bad).unwrap_err();
            assert!(err.starts_with(culprit), "{bad}: {err}");
        }
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let study = Cli { name: "study", positionals: &["out_dir"], groups: STUDY_FLAGS };
        let usage = study.usage();
        assert!(usage.starts_with("usage: study [flags] [out_dir]\n"), "{usage}");
        assert_eq!(usage.lines().count(), 1 + study.flags().count());
        assert!(usage.contains("\n  --splits N  "), "{usage}");
        assert!(usage.contains("\n  --cache-stats  "), "{usage}");
        let dump = Cli { name: "dump_datasets", positionals: &["out_dir", "seed"], groups: &[] };
        assert_eq!(dump.check(&args("out 7")).unwrap(), ["out", "7"]);
        assert!(dump.check(&args("out 7 8")).unwrap_err().starts_with("8: "));
        assert_eq!(dump.usage(), "usage: dump_datasets [out_dir] [seed]");
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
