//! Runs the complete single-error-type study (all five error types, all
//! participating datasets) through the `cleanml-engine` scheduler and
//! materializes the CleanML relational database as CSV files — the paper's
//! central artifact (§III's relations R1/R2/R3).
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin study -- \
//!     [--quick|--paper] [--splits N] [--seed N] [--workers N] \
//!     [--cache-dir DIR] [--cache-max-bytes N[k|m|g]] [--cache-stats] \
//!     [--listen ADDR] [--lease-timeout SECS] [--trace-out FILE] [out_dir]
//! ```
//!
//! With `--cache-dir`, a repeated or resumed invocation — including one
//! killed mid-run — skips every finished cleaning, training and
//! evaluation task via the engine's content-addressed artifact store;
//! `--cache-max-bytes` keeps the run directory under a byte budget with
//! LRU eviction.
//!
//! With `--listen`, this process becomes a distributed coordinator:
//! `cleanml-worker --connect ADDR` processes lease ready tasks over TCP
//! and ship artifacts back into the shared store; a worker killed mid-run
//! costs only its in-flight task (re-leased after `--lease-timeout`).

use std::path::{Path, PathBuf};

use cleanml_bench::{banner, config_from_args, header, run_study_cli};
use cleanml_core::schema::ErrorType;
use cleanml_core::{CleanMlDb, Relation};

/// Writes the relations in their canonical CSV form — the same renderers
/// the serving layer ships over the wire, so a `cleanml-query` response
/// byte-matches these files.
fn dump(db: &CleanMlDb, dir: &Path) -> std::io::Result<()> {
    std::fs::write(dir.join("r1.csv"), db.r1_csv())?;
    std::fs::write(dir.join("r2.csv"), db.r2_csv())?;
    std::fs::write(dir.join("r3.csv"), db.r3_csv())?;
    Ok(())
}

/// Flags whose next argument is their value, never the `out_dir`.
const VALUE_FLAGS: [&str; 8] = [
    "--splits",
    "--seed",
    "--workers",
    "--cache-dir",
    "--cache-max-bytes",
    "--listen",
    "--lease-timeout",
    "--trace-out",
];

/// Positional `out_dir` among `args` (program name excluded): the first
/// non-flag argument that is not a value of a preceding flag.
fn out_dir(args: &[String]) -> PathBuf {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            return PathBuf::from(a);
        }
    }
    PathBuf::from("cleanml_db")
}

fn main() {
    let cfg = config_from_args();
    banner("Full CleanML study", &cfg);
    let dir = out_dir(&std::env::args().skip(1).collect::<Vec<_>>());
    std::fs::create_dir_all(&dir).expect("create output directory");

    let all = [
        ErrorType::MissingValues,
        ErrorType::Outliers,
        ErrorType::Duplicates,
        ErrorType::Inconsistencies,
        ErrorType::Mislabels,
    ];
    let db = run_study_cli(&all, &cfg);
    dump(&db, &dir).expect("write CSVs");

    header("CleanML database written");
    println!(
        "{}: R1 = {} rows, R2 = {} rows, R3 = {} rows ({} hypotheses BY-corrected in R1)",
        dir.display(),
        db.r1.len(),
        db.r2.len(),
        db.r3.len(),
        db.n_hypotheses(Relation::R1),
    );
    for et in all {
        let q1 = db.q1(Relation::R1, et);
        println!(
            "  {:<16} P {:>5}  S {:>5}  N {:>5}",
            et.name(),
            q1.render(cleanml_core::Flag::Positive),
            q1.render(cleanml_core::Flag::Insignificant),
            q1.render(cleanml_core::Flag::Negative),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(args: &[&str]) -> PathBuf {
        out_dir(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_values_are_not_the_out_dir() {
        // the README's tracing invocation
        assert_eq!(
            scan(&["--quick", "--splits", "2", "--trace-out", "trace.json", "out/"]),
            PathBuf::from("out/")
        );
        for flag in VALUE_FLAGS {
            assert_eq!(scan(&[flag, "value", "out"]), PathBuf::from("out"), "{flag}");
        }
        assert_eq!(scan(&["--quick", "--cache-stats"]), PathBuf::from("cleanml_db"));
        assert_eq!(scan(&["out", "--workers", "2"]), PathBuf::from("out"));
    }
}
