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

use std::net::TcpStream;
use std::time::{Duration, Instant};

use cleanml_bench::{flag_value, or_exit, text_value};
use cleanml_engine::remote::{run_worker, FaultPlan};

fn usage() -> ! {
    eprintln!(
        "usage: cleanml-worker --connect HOST:PORT [--name NAME] [--retry SECS]\n\
         connects to a study coordinator started with --listen"
    );
    std::process::exit(2);
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    /// `None` names the worker after its process id.
    name: Option<String>,
    /// How long to keep retrying the connect.
    retry: Duration,
}

/// Parses the command line (program name excluded); `Ok(None)` without
/// `--connect`.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let Some(addr) = flag_value(args, "--connect", "HOST:PORT", text_value)? else {
        return Ok(None);
    };
    Ok(Some(Args {
        addr,
        name: flag_value(args, "--name", "a worker name", text_value)?,
        retry: Duration::from_secs(
            flag_value(args, "--retry", "whole seconds", |v| v.parse().ok())?.unwrap_or(30),
        ),
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(Args { addr, name, retry }) = or_exit(parse_args(&args)) else { usage() };
    let name = name.unwrap_or_else(|| format!("worker-{}", std::process::id()));

    // The coordinator may still be building its graph (or not be up yet in
    // a scripted launch): retry the connect for a bounded window.
    let deadline = Instant::now() + retry;
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(stream) => break stream,
            Err(e) if Instant::now() < deadline => {
                eprintln!("[{name}] {addr} not ready ({e}); retrying");
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => {
                eprintln!("[{name}] cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        }
    };
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

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_with_defaults() {
        let args = parse("--connect 127.0.0.1:7401").unwrap().unwrap();
        let defaults =
            Args { addr: "127.0.0.1:7401".into(), name: None, retry: Duration::from_secs(30) };
        assert_eq!(args, defaults);
        let args = parse("--connect h:1 --name w1 --retry 5").unwrap().unwrap();
        assert_eq!((args.name.as_deref(), args.retry), (Some("w1"), Duration::from_secs(5)));
        assert_eq!(parse("--name w1").unwrap(), None, "no --connect: usage");
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
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
