//! Reproduces paper Table 14: query results for **inconsistencies**.
//!
//! Q1 over R1 and R2&R3, Q5 (per-dataset) over R1.

use cleanml_bench::{banner, header, rows_of, run_study_cli, study_cli};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;

fn main() {
    let (cfg, run) = study_cli("table14");
    banner("Table 14 (Inconsistencies)", &cfg);
    let db = run_study_cli(&[ErrorType::Inconsistencies], &cfg, run);

    header("Q1 (E = Inconsistencies)");
    let rows = vec![
        ("R1".to_string(), db.q1(Relation::R1, ErrorType::Inconsistencies)),
        ("R2 & R3".to_string(), db.q1(Relation::R2, ErrorType::Inconsistencies)),
    ];
    print!("{}", render_flag_table("flag distribution", &rows));

    header("Q5 (E = Inconsistencies) on R1");
    print!(
        "{}",
        render_flag_table("by dataset", &rows_of(&db.q5(Relation::R1, ErrorType::Inconsistencies)))
    );
}
