//! Reproduces paper Table 17: cleaning mixed error types vs. a single error
//! type (§VII-A).
//!
//! Rows: Credit (missing values + outliers), Restaurant & Movie
//! (inconsistencies + duplicates), Airbnb (missing values + outliers +
//! duplicates); each compared against cleaning one of its component error
//! types. `--cap N` bounds each error type's method catalogue inside the
//! Cartesian product (default 3; `--paper` uses the full catalogue).

use cleanml_bench::{
    banner, dist_of, flag_value, grouped_flags, header, parse_config, profile_name, workers_flag,
    Cli, FlagDef, PROFILE_FLAGS, WORKERS_FLAG,
};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::mixed::compare_mixed_vs_single;
use cleanml_core::schema::ErrorType;
use cleanml_core::study::dataset_seed;
use cleanml_datagen::{generate, spec_by_name};

const CLI: Cli = Cli {
    name: "table17",
    positionals: &[],
    groups: &[
        PROFILE_FLAGS,
        WORKERS_FLAG,
        &[FlagDef::valued(
            "--cap",
            "N",
            "method catalogue cap per error type (default 3; --paper: all)",
        )],
    ],
};

fn main() {
    let (cfg, workers, cap) = CLI.parse(|args, _| {
        let cap = flag_value(args, "--cap", "a method count", |v| v.parse().ok())?.unwrap_or(3);
        // the paper runs the full catalogue
        let cap = if profile_name(args) == "paper" { usize::MAX } else { cap };
        Ok((parse_config(args)?, workers_flag(args)?, cap))
    });
    banner("Table 17 (Mixed Error Types vs Single Error Type)", &cfg);
    println!("method catalogue cap per error type: {cap}");

    // (datasets, single error type under comparison)
    let comparisons: [(&[&str], ErrorType); 7] = [
        (&["Credit"], ErrorType::Outliers),
        (&["Credit"], ErrorType::MissingValues),
        (&["Restaurant", "Movie"], ErrorType::Inconsistencies),
        (&["Restaurant", "Movie"], ErrorType::Duplicates),
        (&["Airbnb"], ErrorType::Outliers),
        (&["Airbnb"], ErrorType::MissingValues),
        (&["Airbnb"], ErrorType::Duplicates),
    ];

    header("Cleaning Mixed Error Types vs. Single Error Type");
    // One job per (dataset, single error type): all comparisons run
    // concurrently on `--workers` threads.
    let grouped = grouped_flags(&comparisons, workers, |name, single| {
        let spec = spec_by_name(name).expect("known dataset");
        let data = generate(spec, dataset_seed(name, cfg.base_seed));
        compare_mixed_vs_single(&data, single, cap, &cfg).expect("comparison").flag
    });

    let mut rows = Vec::new();
    for ((datasets, single), row_flags) in comparisons.iter().zip(&grouped) {
        let label = format!("{} | mixed vs {}", datasets.join(","), single.name());
        rows.push((label, dist_of(row_flags)));
    }
    print!("{}", render_flag_table("P = mixed better, N = mixed worse", &rows));
}
