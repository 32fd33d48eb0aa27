//! Writes all 14 dataset stand-ins (dirty + ground truth) as CSV files.
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin dump_datasets -- [out_dir] [seed]
//! ```

use std::path::PathBuf;

use cleanml_bench::Cli;
use cleanml_datagen::{generate, specs};
use cleanml_dataset::csv::write_csv_file;

const CLI: Cli = Cli { name: "dump_datasets", positionals: &["out_dir", "seed"], groups: &[] };

fn main() {
    let (dir, seed) = CLI.parse(|_, positionals| {
        let dir = PathBuf::from(positionals.first().copied().unwrap_or("datasets_out"));
        let seed = match positionals.get(1) {
            Some(s) => {
                s.parse().map_err(|_| format!("seed expects an unsigned integer, got `{s}`"))?
            }
            None => 42u64,
        };
        Ok((dir, seed))
    });
    std::fs::create_dir_all(&dir).expect("create output directory");

    println!("writing 14 datasets (seed {seed}) to {}", dir.display());
    for spec in specs() {
        let ds = generate(spec, seed);
        let dirty_path = dir.join(format!("{}_dirty.csv", spec.name));
        let clean_path = dir.join(format!("{}_truth.csv", spec.name));
        write_csv_file(&ds.dirty, &dirty_path).expect("write dirty");
        write_csv_file(&ds.clean_cells, &clean_path).expect("write truth");
        println!(
            "  {:<12} {:>4} rows  {:>3} missing cells  {:>3} dup rows  {:>3} mislabels  ({})",
            spec.name,
            ds.dirty.n_rows(),
            ds.dirty.n_missing_cells(),
            ds.duplicate_rows.len(),
            ds.mislabeled_rows.len(),
            spec.description,
        );
    }
}
