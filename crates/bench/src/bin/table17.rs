//! Reproduces paper Table 17: cleaning mixed error types vs. a single error
//! type (§VII-A).
//!
//! Rows: Credit (missing values + outliers), Restaurant & Movie
//! (inconsistencies + duplicates), Airbnb (missing values + outliers +
//! duplicates); each compared against cleaning one of its component error
//! types. `--cap N` bounds each error type's method catalogue inside the
//! Cartesian product (default 3; `--paper` uses the full catalogue).

use cleanml_bench::{banner, config_from_args, dist_of, grouped_flags, header};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::mixed::compare_mixed_vs_single;
use cleanml_core::schema::ErrorType;
use cleanml_core::study::dataset_seed;
use cleanml_datagen::{generate, spec_by_name};

fn cap_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--paper") {
        return usize::MAX;
    }
    args.iter()
        .position(|a| a == "--cap")
        .and_then(|p| args.get(p + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn main() {
    let cfg = config_from_args();
    let cap = cap_from_args();
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
    let grouped = grouped_flags(&comparisons, |name, single| {
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
