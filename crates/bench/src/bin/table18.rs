//! Reproduces paper Table 18: data cleaning vs. robust-ML approaches
//! (§VII-B).
//!
//! Rows:
//! 1. LR + best cleaning vs **NaCL** on the missing-value datasets;
//! 2. best model + best cleaning vs **NaCL** on the same datasets;
//! 3. best model + best cleaning vs **MLP** on mislabels, inconsistencies,
//!    outliers and duplicates.
//!
//! P = cleaning better than the robust model.

use cleanml_bench::{banner, dist_of, fan_out, fan_out_cli, header};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::robust::{compare_cleaning_vs_robust, table18_pool, RobustBaseline};
use cleanml_core::schema::ErrorType;
use cleanml_core::study::generate_datasets_for;

fn run_row(
    label: &str,
    error_type: ErrorType,
    lr_only: bool,
    baseline: RobustBaseline,
    cfg: &cleanml_core::ExperimentConfig,
    workers: usize,
) -> (String, cleanml_core::FlagDist) {
    let pool = table18_pool(lr_only);
    // Generate eagerly (shared mislabel bases are built once), then fan the
    // per-dataset comparisons out.
    let datasets = generate_datasets_for(error_type, cfg.base_seed);
    let flags = fan_out(&datasets, workers, |data| {
        compare_cleaning_vs_robust(data, error_type, &pool, baseline, cfg).expect("comparison").flag
    });
    (label.to_owned(), dist_of(&flags))
}

fn main() {
    let (cfg, workers) = fan_out_cli("table18");
    banner("Table 18 (Robust ML vs Data Cleaning)", &cfg);

    header("Data Cleaning for ML vs Robust ML (P = cleaning better)");
    let rows = vec![
        run_row(
            "LR + Best Cleaning vs NaCL | Missing Values",
            ErrorType::MissingValues,
            true,
            RobustBaseline::Nacl,
            &cfg,
            workers,
        ),
        run_row(
            "Best Model + Best Cleaning vs NaCL | Missing Values",
            ErrorType::MissingValues,
            false,
            RobustBaseline::Nacl,
            &cfg,
            workers,
        ),
        run_row(
            "Best Model + Best Cleaning vs MLP | Mislabel",
            ErrorType::Mislabels,
            false,
            RobustBaseline::Mlp,
            &cfg,
            workers,
        ),
        run_row(
            "Best Model + Best Cleaning vs MLP | Inconsistency",
            ErrorType::Inconsistencies,
            false,
            RobustBaseline::Mlp,
            &cfg,
            workers,
        ),
        run_row(
            "Best Model + Best Cleaning vs MLP | Outliers",
            ErrorType::Outliers,
            false,
            RobustBaseline::Mlp,
            &cfg,
            workers,
        ),
        run_row(
            "Best Model + Best Cleaning vs MLP | Duplicates",
            ErrorType::Duplicates,
            false,
            RobustBaseline::Mlp,
            &cfg,
            workers,
        ),
    ];
    print!("{}", render_flag_table("per-dataset flags aggregated", &rows));
}
