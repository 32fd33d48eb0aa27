//! Reproduces paper Table 12: query results for **outliers**.
//!
//! Q1 over R1/R2/R3, Q3 (per-model) over R1, Q4.1 (detector) and Q4.2
//! (repair) over R1/R2, Q5 (per-dataset) over R1.

use cleanml_bench::{banner, header, rows_of, run_study_cli, study_cli};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;

fn main() {
    let (cfg, run) = study_cli("table12");
    banner("Table 12 (Outliers)", &cfg);
    let db = run_study_cli(&[ErrorType::Outliers], &cfg, run);

    header("Q1 (E = Outliers)");
    let rows = vec![
        ("R1".to_string(), db.q1(Relation::R1, ErrorType::Outliers)),
        ("R2".to_string(), db.q1(Relation::R2, ErrorType::Outliers)),
        ("R3".to_string(), db.q1(Relation::R3, ErrorType::Outliers)),
    ];
    print!("{}", render_flag_table("flag distribution", &rows));

    header("Q3 (E = Outliers) on R1");
    print!("{}", render_flag_table("by ML model", &rows_of(&db.q3(ErrorType::Outliers))));

    for (rel, name) in [(Relation::R1, "R1"), (Relation::R2, "R2")] {
        header(&format!("Q4.1 (E = Outliers) on {name}"));
        print!(
            "{}",
            render_flag_table("by detection", &rows_of(&db.q4_detection(rel, ErrorType::Outliers)))
        );
        header(&format!("Q4.2 (E = Outliers) on {name}"));
        print!(
            "{}",
            render_flag_table("by repair", &rows_of(&db.q4_repair(rel, ErrorType::Outliers)))
        );
    }

    header("Q5 (E = Outliers) on R1");
    print!(
        "{}",
        render_flag_table("by dataset", &rows_of(&db.q5(Relation::R1, ErrorType::Outliers)))
    );
}
