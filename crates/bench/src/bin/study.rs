//! Runs the complete single-error-type study (all five error types, all
//! participating datasets) through the `cleanml-engine` scheduler and
//! materializes the CleanML relational database as CSV files — the paper's
//! central artifact (§III's relations R1/R2/R3).
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin study -- \
//!     [--quick|--standard|--paper] [--splits N] [--seed S] [--workers N] \
//!     [--cache-dir DIR] [--cache-max-bytes N[k|m|g]] [--listen HOST:PORT] \
//!     [--lease-timeout SECS] [--http-token TOK] [--cache-stats] \
//!     [--trace-out FILE] [out_dir]
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

use cleanml_bench::{
    banner, header, parse_config, parse_run_args, run_study_cli, Cli, STUDY_FLAGS,
};
use cleanml_core::schema::ErrorType;
use cleanml_core::{CleanMlDb, Relation};

const CLI: Cli = Cli { name: "study", positionals: &["out_dir"], groups: STUDY_FLAGS };

/// Writes the relations in their canonical CSV form — the same renderers
/// the serving layer ships over the wire, so a `cleanml-query` response
/// byte-matches these files.
fn dump(db: &CleanMlDb, dir: &Path) -> std::io::Result<()> {
    std::fs::write(dir.join("r1.csv"), db.r1_csv())?;
    std::fs::write(dir.join("r2.csv"), db.r2_csv())?;
    std::fs::write(dir.join("r3.csv"), db.r3_csv())?;
    Ok(())
}

fn main() {
    let (cfg, run, dir) = CLI.parse(|args, positionals| {
        let dir = PathBuf::from(positionals.first().copied().unwrap_or("cleanml_db"));
        Ok((parse_config(args)?, parse_run_args(args)?, dir))
    });
    banner("Full CleanML study", &cfg);

    let all = [
        ErrorType::MissingValues,
        ErrorType::Outliers,
        ErrorType::Duplicates,
        ErrorType::Inconsistencies,
        ErrorType::Mislabels,
    ];
    // the engine opens its store (and fails on an unusable one) first, so
    // a run that stops there leaves no output directory behind
    let db = run_study_cli(&all, &cfg, run);
    std::fs::create_dir_all(&dir).expect("create output directory");
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
