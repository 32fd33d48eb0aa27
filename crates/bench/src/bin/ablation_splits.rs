//! Ablation: flag stability vs. the number of train/test splits.
//!
//! The paper fixes 20 splits (§IV-B); this ablation shows why fewer splits
//! under-power the t-tests: the same experiment's p-values and flags are
//! recomputed at 5 / 10 / 20 / 40 splits.

use cleanml_bench::{banner, fan_out, fan_out_cli, header};
use cleanml_core::schema::{Detection, ErrorType, Repair, Scenario, Spec1};
use cleanml_core::{run_r1_experiment, ExperimentConfig};
use cleanml_datagen::{generate, spec_by_name};
use cleanml_ml::ModelKind;

fn main() {
    let (base_cfg, workers) = fan_out_cli("ablation_splits");
    banner("Ablation: split count vs statistical power", &base_cfg);
    let data = generate(spec_by_name("EEG").expect("known"), base_cfg.base_seed);
    let spec = Spec1 {
        dataset: "EEG".into(),
        error_type: ErrorType::Outliers,
        detection: Detection::Iqr,
        repair: Repair::ImputeMean,
        model: ModelKind::LogisticRegression,
        scenario: Scenario::BD,
    };

    header("EEG / IQR+Mean / LR / BD at increasing split counts");
    println!("{:>7} {:>10} {:>10} {:>12} {:>6}", "splits", "mean B", "mean D", "p(two)", "flag");
    // the four split counts are independent experiments: fan them out
    let counts = [5usize, 10, 20, 40];
    let outcomes = fan_out(&counts, workers, |&n_splits| {
        let cfg = ExperimentConfig { n_splits, ..base_cfg };
        run_r1_experiment(&data, &spec, &cfg).expect("experiment")
    });
    for (n_splits, out) in counts.iter().zip(&outcomes) {
        println!(
            "{n_splits:>7} {:>10.4} {:>10.4} {:>12.2e} {:>6}",
            out.evidence.mean_before, out.evidence.mean_after, out.evidence.p_two, out.flag
        );
    }
    println!(
        "\nThe effect estimate stabilizes while the p-value shrinks with more \
         splits — fewer than the paper's 20 leaves borderline effects\n\
         undetectable once Benjamini–Yekutieli correction is applied."
    );
}
