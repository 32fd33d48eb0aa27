//! Reproduces paper Table 11: query results for **missing values**.
//!
//! Q1 over R1/R2/R3, Q4.2 (imputation method breakdown) over R1/R2, and Q5
//! (per-dataset breakdown) over R1.

use cleanml_bench::{banner, header, rows_of, run_study_cli, study_cli};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;

fn main() {
    let (cfg, run) = study_cli("table11");
    banner("Table 11 (Missing Values)", &cfg);
    let db = run_study_cli(&[ErrorType::MissingValues], &cfg, run);

    header("Q1 (E = Missing Values)");
    let rows = vec![
        ("R1".to_string(), db.q1(Relation::R1, ErrorType::MissingValues)),
        ("R2".to_string(), db.q1(Relation::R2, ErrorType::MissingValues)),
        ("R3".to_string(), db.q1(Relation::R3, ErrorType::MissingValues)),
    ];
    print!("{}", render_flag_table("flag distribution", &rows));

    for (rel, name) in [(Relation::R1, "R1"), (Relation::R2, "R2")] {
        header(&format!("Q4.2 (E = Missing Values) on {name}"));
        let map = db.q4_repair(rel, ErrorType::MissingValues);
        print!("{}", render_flag_table("by imputation method", &rows_of(&map)));
    }

    header("Q5 (E = Missing Values) on R1");
    let map = db.q5(Relation::R1, ErrorType::MissingValues);
    print!("{}", render_flag_table("by dataset", &rows_of(&map)));
}
