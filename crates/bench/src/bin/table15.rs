//! Reproduces paper Table 15: query results for **duplicates**.
//!
//! Q1 over R1/R2/R3, Q4.1 (ZeroER vs key collision) over R1/R2, Q5 over R1.

use cleanml_bench::{banner, header, rows_of, run_study_cli, study_cli};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;

fn main() {
    let (cfg, run) = study_cli("table15");
    banner("Table 15 (Duplicates)", &cfg);
    let db = run_study_cli(&[ErrorType::Duplicates], &cfg, run);

    header("Q1 (E = Duplicates)");
    let rows = vec![
        ("R1".to_string(), db.q1(Relation::R1, ErrorType::Duplicates)),
        ("R2".to_string(), db.q1(Relation::R2, ErrorType::Duplicates)),
        ("R3".to_string(), db.q1(Relation::R3, ErrorType::Duplicates)),
    ];
    print!("{}", render_flag_table("flag distribution", &rows));

    for (rel, name) in [(Relation::R1, "R1"), (Relation::R2, "R2")] {
        header(&format!("Q4.1 (E = Duplicates) on {name}"));
        print!(
            "{}",
            render_flag_table(
                "by detection",
                &rows_of(&db.q4_detection(rel, ErrorType::Duplicates))
            )
        );
    }

    header("Q5 (E = Duplicates) on R1");
    print!(
        "{}",
        render_flag_table("by dataset", &rows_of(&db.q5(Relation::R1, ErrorType::Duplicates)))
    );
}
