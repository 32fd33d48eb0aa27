//! Reproduces paper Table 13: query results for **mislabels**.
//!
//! Q1, Q2 (scenario BD vs CD), Q3 (per-model) and Q5 (per-dataset-variant)
//! over the 13 mislabel datasets (Clothing + 4 × {uniform, major, minor}).

use cleanml_bench::{banner, header, rows_of, run_study_cli, study_cli};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::schema::ErrorType;
use cleanml_core::Relation;

fn main() {
    let (cfg, run) = study_cli("table13");
    banner("Table 13 (Mislabels)", &cfg);
    let db = run_study_cli(&[ErrorType::Mislabels], &cfg, run);

    header("Q1 (E = Mislabel)");
    let rows = vec![
        ("R1".to_string(), db.q1(Relation::R1, ErrorType::Mislabels)),
        ("R2 & R3".to_string(), db.q1(Relation::R2, ErrorType::Mislabels)),
    ];
    print!("{}", render_flag_table("flag distribution", &rows));

    for (rel, name) in [(Relation::R1, "R1"), (Relation::R2, "R2 & R3")] {
        header(&format!("Q2 (E = Mislabel) on {name}"));
        print!("{}", render_flag_table("by scenario", &rows_of(&db.q2(rel, ErrorType::Mislabels))));
    }

    header("Q3 (E = Mislabel) on R1");
    print!("{}", render_flag_table("by ML model", &rows_of(&db.q3(ErrorType::Mislabels))));

    header("Q5 (E = Mislabel) on R1");
    print!(
        "{}",
        render_flag_table("by dataset", &rows_of(&db.q5(Relation::R1, ErrorType::Mislabels)))
    );
}
