//! Reproduces paper Table 19: automatic vs. human cleaning (§VII-C).
//!
//! Human cleaning = ground-truth repair (the generators retain the paper's
//! missing truth): BabyProduct's missing values, Clothing's mislabels, and
//! the three inconsistency datasets' canonical spellings.
//! P = human cleaning better than the best automatic method.

use cleanml_bench::{banner, dist_of, fan_out_cli, grouped_flags, header};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::human::compare_human_vs_automatic;
use cleanml_core::schema::ErrorType;
use cleanml_core::study::dataset_seed;
use cleanml_datagen::{generate, spec_by_name};

fn main() {
    let (cfg, workers) = fan_out_cli("table19");
    banner("Table 19 (Automatic vs Human Cleaning)", &cfg);

    let comparisons: [(&[&str], ErrorType); 3] = [
        (&["BabyProduct"], ErrorType::MissingValues),
        (&["Clothing"], ErrorType::Mislabels),
        (&["Company", "Restaurant", "University"], ErrorType::Inconsistencies),
    ];

    header("Automatic Cleaning vs Human Cleaning (P = human better)");
    // One job per (dataset, error type), all run concurrently.
    let grouped = grouped_flags(&comparisons, workers, |name, et| {
        let spec = spec_by_name(name).expect("known dataset");
        let data = generate(spec, dataset_seed(name, cfg.base_seed));
        compare_human_vs_automatic(&data, et, &cfg).expect("comparison").flag
    });

    let mut rows = Vec::new();
    for ((datasets, et), row_flags) in comparisons.iter().zip(&grouped) {
        rows.push((format!("{} | {}", datasets.join(","), et.name()), dist_of(row_flags)));
    }
    print!("{}", render_flag_table("per-dataset flags aggregated", &rows));
}
