//! Reproduces paper Table 16: the cross-error-type summary of empirical
//! findings.
//!
//! Runs the full single-error study (all five error types) and derives, per
//! error type: the dominant flag pattern from Q1 and whether the impact
//! depends on datasets / scenarios / cleaning algorithms / ML models. A
//! dependency is declared when the positive-flag share varies by more than
//! 25 percentage points across the groups of the corresponding query —
//! the same qualitative judgement the paper makes from its Q2/Q3/Q4/Q5
//! tables.

use cleanml_bench::{banner, header, run_study_cli, study_cli};
use cleanml_core::database::{CleanMlDb, FlagDist};
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;
use cleanml_stats::Flag;

/// Spread (max − min) of positive-flag percentage across groups.
fn p_spread<K>(map: &std::collections::BTreeMap<K, FlagDist>) -> f64 {
    let pcts: Vec<f64> =
        map.values().filter(|d| d.total() > 0).map(|d| d.pct(Flag::Positive)).collect();
    if pcts.len() < 2 {
        return 0.0;
    }
    let max = pcts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = pcts.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

fn depends(spread: f64) -> &'static str {
    if spread > 25.0 {
        "Yes"
    } else {
        "No"
    }
}

fn dominant(dist: &FlagDist) -> String {
    let mut parts: Vec<(&str, f64)> = vec![
        ("P", dist.pct(Flag::Positive)),
        ("S", dist.pct(Flag::Insignificant)),
        ("N", dist.pct(Flag::Negative)),
    ];
    parts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let top: Vec<&str> = parts.iter().filter(|(_, pct)| *pct >= 25.0).map(|(f, _)| *f).collect();
    format!("Varying (Mostly {})", top.join(" & "))
}

fn summarize(db: &CleanMlDb, et: ErrorType) -> [String; 5] {
    let q1 = db.q1(Relation::R1, et);
    let by_dataset = db.q5(Relation::R1, et);
    let by_scenario = db.q2(Relation::R1, et);
    let by_detection = db.q4_detection(Relation::R1, et);
    let by_repair = db.q4_repair(Relation::R1, et);
    let by_model = db.q3(et);

    let cleaning_spread = p_spread(&by_detection).max(p_spread(&by_repair));
    let cleaning_dep = if by_detection.len() <= 1 && by_repair.len() <= 1 {
        "N.A.".to_string()
    } else {
        depends(cleaning_spread).to_string()
    };

    [
        dominant(&q1),
        depends(p_spread(&by_dataset)).to_string(),
        depends(p_spread(&by_scenario)).to_string(),
        cleaning_dep,
        depends(p_spread(&by_model)).to_string(),
    ]
}

fn main() {
    let (cfg, run) = study_cli("table16");
    banner("Table 16 (Summary of Empirical Findings)", &cfg);
    let all = [
        ErrorType::Duplicates,
        ErrorType::Inconsistencies,
        ErrorType::MissingValues,
        ErrorType::Mislabels,
        ErrorType::Outliers,
    ];
    let db = run_study_cli(&all, &cfg, run);

    header("Summary of Empirical Findings for Single Error Types");
    println!(
        "{:<16} {:<26} {:>9} {:>10} {:>14} {:>14}",
        "Error Type", "Impact on ML", "Datasets", "Scenarios", "Cleaning Algos", "ML Algorithms"
    );
    for et in all {
        let [impact, ds, sc, cl, ml] = summarize(&db, et);
        println!("{:<16} {:<26} {:>9} {:>10} {:>14} {:>14}", et.name(), impact, ds, sc, cl, ml);
    }

    header("Relation sizes");
    println!(
        "R1 rows = {} ({} hypotheses), R2 rows = {} ({}), R3 rows = {} ({})",
        db.r1.len(),
        db.n_hypotheses(Relation::R1),
        db.r2.len(),
        db.n_hypotheses(Relation::R2),
        db.r3.len(),
        db.n_hypotheses(Relation::R3),
    );
}
