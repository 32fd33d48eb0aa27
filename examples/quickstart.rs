//! Quickstart: run one CleanML experiment end to end.
//!
//! Mirrors the paper's running example (Example 4.1): the EEG dataset,
//! outliers detected by IQR and repaired by mean imputation, a logistic
//! regression model, scenario BD (model development), 20 train/test splits,
//! and the three paired t-tests that produce the P/N/S flag.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cleanml::core::schema::{Detection, ErrorType, Repair, Scenario, Spec1};
use cleanml::core::{run_r1_experiment, ExperimentConfig};
use cleanml::datagen::{generate, spec_by_name};
use cleanml::ml::ModelKind;

fn main() {
    // 1. Generate the EEG stand-in dataset (outliers injected; ground truth
    //    retained — see the README's Substitutions section for why).
    let spec = spec_by_name("EEG").expect("EEG is one of the 14 datasets");
    let data = generate(spec, 42);
    println!(
        "EEG stand-in: {} rows, {} columns, errors: {:?}",
        data.dirty.n_rows(),
        data.dirty.n_columns(),
        data.error_types
    );

    // 2. Specify the experiment (paper Table 6, s1).
    let experiment = Spec1 {
        dataset: "EEG".into(),
        error_type: ErrorType::Outliers,
        detection: Detection::Iqr,
        repair: Repair::ImputeMean,
        model: ModelKind::LogisticRegression,
        scenario: Scenario::BD,
    };

    // 3. Run the §IV-A protocol over 20 splits.
    let cfg = ExperimentConfig::standard();
    let outcome = run_r1_experiment(&data, &experiment, &cfg).expect("experiment");

    // 4. Inspect the metric pairs (paper Table 10) and the flag.
    println!("\nsplit  B (dirty-train)  D (clean-train)");
    for (s, (b, d)) in outcome.pairs.iter().enumerate() {
        println!("{s:>5}  {b:>15.3}  {d:>15.3}");
    }
    println!(
        "\nmean B = {:.4}, mean D = {:.4}",
        outcome.evidence.mean_before, outcome.evidence.mean_after
    );
    println!(
        "p-values: two-tailed {:.2e}, upper {:.2e}, lower {:.2e}",
        outcome.evidence.p_two, outcome.evidence.p_upper, outcome.evidence.p_lower
    );
    println!("flag = {} (P = cleaning helped, N = hurt, S = insignificant)", outcome.flag);
}
