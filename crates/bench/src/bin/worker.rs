//! `cleanml-worker` — a remote task executor for the distributed engine.
//!
//! Connects to a coordinator (a study binary started with `--listen`),
//! rebuilds the study's task graph from the wire handshake, then leases
//! ready tasks, fetches their inputs by content address, and ships
//! finished artifacts back as CMAF frames until the coordinator says
//! goodbye:
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin study -- \
//!     --quick --listen 127.0.0.1:7401 --cache-dir run_dir out_dir &
//! cargo run --release -p cleanml-bench --bin cleanml-worker -- \
//!     --connect 127.0.0.1:7401
//! ```
//!
//! The worker is stateless and disposable: `kill -9` it mid-task and the
//! coordinator re-leases the orphaned work after `--lease-timeout`; start
//! as many as the coordinator's study has parallel width.

use std::time::Duration;

use cleanml_bench::{connect_with_retry, flag_value, text_value, Cli, FlagDef};
use cleanml_engine::remote::{run_worker, FaultPlan};

const CLI: Cli = Cli {
    name: "cleanml-worker",
    positionals: &[],
    groups: &[&[
        FlagDef::valued("--connect", "HOST:PORT", "a coordinator's --listen address (required)"),
        FlagDef::valued("--name", "NAME", "the worker's name (default: worker-<pid>)"),
        FlagDef::valued("--retry", "SECS", "how long to retry the connect (default 30)"),
    ]],
};

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    /// `None` names the worker after its process id.
    name: Option<String>,
    /// How long to keep retrying the connect.
    retry: Duration,
}

/// Checks the command line (program name excluded) against [`CLI`] and
/// parses it.
fn parse_args(args: &[String]) -> Result<Args, String> {
    CLI.check(args)?;
    let Some(addr) = flag_value(args, "--connect", "HOST:PORT", text_value)? else {
        return Err("--connect HOST:PORT is required".into());
    };
    Ok(Args {
        addr,
        name: flag_value(args, "--name", "a worker name", text_value)?,
        retry: Duration::from_secs(
            flag_value(args, "--retry", "whole seconds", |v| v.parse().ok())?.unwrap_or(30),
        ),
    })
}

fn main() {
    let Args { addr, name, retry } =
        CLI.or_exit(parse_args(&std::env::args().skip(1).collect::<Vec<_>>()));
    let name = name.unwrap_or_else(|| format!("worker-{}", std::process::id()));

    // The coordinator may still be building its graph (or not be up yet in
    // a scripted launch): retry the connect for a bounded window.
    let stream = connect_with_retry(&addr, retry, &name).unwrap_or_else(|e| {
        eprintln!("[{name}] {e}");
        std::process::exit(1);
    });
    eprintln!("[{name}] connected to {addr}");

    match run_worker(stream, &name, &FaultPlan::default()) {
        Ok(summary) => {
            println!(
                "[{name}] session complete: {} tasks executed, {} inputs fetched, \
                 {} dependencies recomputed locally",
                summary.completed,
                summary.fetched,
                summary.computed.saturating_sub(summary.completed),
            );
        }
        Err(e) => {
            eprintln!("[{name}] session failed: {e}");
            std::process::exit(1);
        }
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
        let args = parse("--connect 127.0.0.1:7401").unwrap();
        let defaults =
            Args { addr: "127.0.0.1:7401".into(), name: None, retry: Duration::from_secs(30) };
        assert_eq!(args, defaults);
        let args = parse("--connect h:1 --name w1 --retry 5").unwrap();
        assert_eq!((args.name.as_deref(), args.retry), (Some("w1"), Duration::from_secs(5)));
        assert!(parse("--name w1").unwrap_err().starts_with("--connect"), "no --connect: usage");
    }

    #[test]
    fn bad_values_are_errors_not_defaults() {
        for bad in [
            "--connect h:1 --retry x",
            "--connect h:1 --retry -1",
            "--connect h:1 --retry",
            "--connect h:1 --name",
            "--connect h:1 --name --retry",
            "--connect --name",
            "--connect h:1 --quick",
            "--connect h:1 --name w1 --name w2",
            "--connect h:1 h:2",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
