//! Domain scenario: entity resolution on the Restaurant catalogue.
//!
//! Uses the cleaning API directly (no study machinery) to compare the two
//! duplicate detectors of the paper — key collision and ZeroER-style
//! unsupervised matching — against the generator's ground truth, reporting
//! pairwise precision/recall and the downstream effect of each repair.
//!
//! ```sh
//! cargo run --release --example dedupe_restaurants
//! ```

use std::collections::HashSet;

use cleanml::cleaning::duplicates::{self, DuplicateDetection};
use cleanml::datagen::{generate, spec_by_name};

fn main() {
    let data = generate(spec_by_name("Restaurant").expect("known"), 7);
    let injected: HashSet<usize> = data.duplicate_rows.iter().copied().collect();
    println!(
        "Restaurant stand-in: {} rows, {} injected duplicates",
        data.dirty.n_rows(),
        injected.len()
    );

    for detection in [DuplicateDetection::KeyCollision, DuplicateDetection::ZeroEr] {
        let (cleaner, cleaned, report) = duplicates::fit(detection, &data.dirty).expect("fit");
        let pairs = cleaner.detect_pairs(&data.dirty).expect("detect");

        // A detected pair is correct when at least one side is an injected
        // duplicate (the other being its source or a sibling duplicate).
        let tp = pairs.iter().filter(|(a, b)| injected.contains(a) || injected.contains(b)).count();
        let fp = pairs.len() - tp;
        let found: HashSet<usize> =
            pairs.iter().flat_map(|&(a, b)| [a, b]).filter(|r| injected.contains(r)).collect();
        let precision = if pairs.is_empty() { 1.0 } else { tp as f64 / pairs.len() as f64 };
        let recall = found.len() as f64 / injected.len().max(1) as f64;

        println!(
            "\n{:<14} pairs={:<4} precision={:.2} recall={:.2} fp={} rows {} -> {}",
            detection.name(),
            pairs.len(),
            precision,
            recall,
            fp,
            report.rows_before,
            cleaned.n_rows()
        );
    }

    println!(
        "\nThe paper's finding (Table 15): ZeroER is more aggressive than key \
         collision — higher recall on fuzzy duplicates, but its false positives \
         can delete informative rows and hurt the downstream model."
    );
}
