//! Ablation: how the multiple-testing correction changes the study's
//! conclusions (paper §IV-C's motivation for choosing Benjamini–Yekutieli).
//!
//! Runs one error type's study once, then re-derives all flags under four
//! regimes — uncorrected, Bonferroni, Benjamini–Hochberg, BY — and prints
//! the R1 flag distributions side by side. Expected shape: discoveries
//! shrink monotonically from uncorrected → BH → BY, with Bonferroni the
//! bluntest instrument (it kills borderline effects BH/BY keep, paper's
//! critique of it).

use cleanml_bench::{banner, header, run_study_cli, study_cli};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;
use cleanml_stats::Correction;

fn main() {
    let (cfg, run) = study_cli("ablation_corrections");
    banner("Ablation: FDR correction choice", &cfg);
    let error_type = ErrorType::MissingValues;
    // the engine study applies BY; we re-correct from the stored p-values.
    let base = run_study_cli(&[error_type], &cfg, run);

    header(&format!("R1 flags for {} under each correction", error_type.name()));
    let mut rows = Vec::new();
    for (name, correction) in [
        ("uncorrected", Correction::None),
        ("Bonferroni", Correction::Bonferroni),
        ("Benjamini-Hochberg", Correction::BenjaminiHochberg),
        ("Benjamini-Yekutieli", Correction::BenjaminiYekutieli),
    ] {
        let mut db = base.clone();
        db.apply_correction(correction, cfg.alpha);
        rows.push((name.to_owned(), db.q1(Relation::R1, error_type)));
    }
    print!("{}", render_flag_table("flag distribution per correction", &rows));
    println!("\nhypotheses corrected per relation: R1 = {}", base.n_hypotheses(Relation::R1));
}
