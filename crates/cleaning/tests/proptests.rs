//! Property-based tests for the cleaning algorithms.

use proptest::prelude::*;

use cleanml_cleaning::duplicates::{self, DuplicateDetection};
use cleanml_cleaning::missing::{self, CatImpute, MissingRepair, NumImpute};
use cleanml_cleaning::outliers::{self, OutlierDetection, OutlierRepair};
use cleanml_cleaning::zeroer::{PairGmm, SimMatrix};
use cleanml_dataset::{FieldMeta, Schema, Table, Value};

/// Runs `f` twice — serially and under a real multi-thread subwork
/// bridge — and hands both results to the caller for equality checks.
/// This is the Clean half of the engine's determinism invariant: nested
/// parallelism must never change what a cleaner computes.
fn serial_and_bridged<T>(f: impl Fn() -> T) -> (T, T) {
    let serial = f();
    cleanml_parallel::install_bridge(std::sync::Arc::new(cleanml_parallel::ThreadBridge {
        helpers: 3,
    }));
    let bridged = f();
    cleanml_parallel::clear_bridge();
    (serial, bridged)
}

fn arb_entity_table() -> impl Strategy<Value = Table> {
    // Names drawn from a small vocabulary with occasional typo suffixes:
    // enough collisions and near-collisions that ZeroER's O(n²) sweep has
    // real matches to find.
    let row = (0usize..12, 0usize..4, -10.0f64..10.0, prop::bool::ANY);
    prop::collection::vec(row, 4..40).prop_map(|rows| {
        const NAMES: [&str; 12] = [
            "Luigi Pizza",
            "Sushi Ko",
            "Taco Town",
            "Burger Barn",
            "Pho Place",
            "Curry Corner",
            "Bagel Bros",
            "Noodle Nest",
            "Dumpling Den",
            "Pasta Palace",
            "Salad Stop",
            "Waffle Works",
        ];
        let schema = Schema::new(vec![
            FieldMeta::key("name"),
            FieldMeta::num_feature("rating"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for (ni, variant, rating, y) in rows {
            let name = match variant {
                0 => NAMES[ni].to_string(),
                1 => format!("{}e", NAMES[ni]),
                2 => NAMES[ni].to_lowercase(),
                _ => format!("{} #2", NAMES[ni]),
            };
            t.push_row(vec![
                Value::from(name.as_str()),
                Value::from(rating),
                Value::from(if y { "a" } else { "b" }),
            ])
            .expect("schema");
        }
        t
    })
}

fn arb_numeric_table() -> impl Strategy<Value = Table> {
    let row = (prop::option::of(-100.0f64..100.0), prop::bool::ANY);
    prop::collection::vec(row, 5..60).prop_map(|rows| {
        let schema = Schema::new(vec![FieldMeta::num_feature("x"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        for (x, y) in rows {
            t.push_row(vec![Value::from(x), Value::from(if y { "a" } else { "b" })])
                .expect("schema");
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every missing-value repair removes all missing cells (or rows) and is
    /// idempotent: re-cleaning a cleaned table changes nothing.
    #[test]
    fn missing_repairs_complete_and_idempotent(t in arb_numeric_table()) {
        for repair in MissingRepair::all() {
            let cleaner = missing::fit(repair, &t).expect("fit");
            let (clean, report) = cleaner.apply(&t).expect("apply");
            prop_assert_eq!(clean.n_missing_cells(), 0, "{:?}", repair);
            prop_assert_eq!(report.rows_before, t.n_rows());
            let (clean2, report2) = cleaner.apply(&clean).expect("re-apply");
            prop_assert_eq!(&clean2, &clean, "{:?} not idempotent", repair);
            prop_assert_eq!(report2.repaired, 0);
        }
    }

    /// Simple imputation fills with a statistic of the observed training
    /// values, so imputed cells stay inside the observed range.
    #[test]
    fn imputation_within_observed_range(t in arb_numeric_table()) {
        let observed = t.column(0).expect("col").numeric_values();
        prop_assume!(!observed.is_empty());
        let lo = observed.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = observed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for num in [NumImpute::Mean, NumImpute::Median, NumImpute::Mode] {
            let cleaner = missing::fit(
                MissingRepair::Impute { num, cat: CatImpute::Mode },
                &t,
            ).expect("fit");
            let (clean, _) = cleaner.apply(&t).expect("apply");
            for v in clean.column(0).expect("col").numeric_values() {
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo},{hi}]");
            }
        }
    }

    /// Outlier cleaning never changes the row count and only rewrites the
    /// cells it detected.
    #[test]
    fn outlier_cleaning_touches_only_detections(t in arb_numeric_table(), seed in any::<u64>()) {
        prop_assume!(t.column(0).expect("col").numeric_values().len() >= 3);
        for detection in [
            OutlierDetection::Sd { n_sigmas: 3.0 },
            OutlierDetection::Iqr { k: 1.5 },
        ] {
            let cleaner = outliers::fit(detection, OutlierRepair::Median, &t, seed).expect("fit");
            let cells = cleaner.detect(&t).expect("detect");
            let (clean, report) = cleaner.apply(&t).expect("apply");
            prop_assert_eq!(clean.n_rows(), t.n_rows());
            prop_assert_eq!(report.detected, cells.len());
            for r in 0..t.n_rows() {
                let was_flagged = cells.contains(&(r, 0));
                let changed = clean.get(r, 0).expect("cell") != t.get(r, 0).expect("cell");
                if changed {
                    prop_assert!(was_flagged, "row {r} changed without detection");
                }
            }
        }
    }

    /// ZeroER duplicate cleaning is byte-identical whether the O(n²)
    /// similarity sweeps run serially or fan out over a subwork bridge,
    /// and the training table `fit` cleans from its own matches is the one
    /// a fresh `apply` gives.
    #[test]
    fn zeroer_nested_parallel_matches_serial(t in arb_entity_table()) {
        let (serial, bridged) = serial_and_bridged(|| {
            let (cleaner, clean, report) =
                duplicates::fit(DuplicateDetection::ZeroEr, &t).expect("fit");
            let pairs = cleaner.detect_pairs(&t).expect("detect");
            let applied = cleaner.apply(&t).expect("apply");
            (pairs, clean, report, applied)
        });
        prop_assert_eq!(&serial.0, &bridged.0, "pairs diverge under bridge");
        prop_assert_eq!(&serial.1, &bridged.1, "cleaned table diverges under bridge");
        prop_assert_eq!(serial.2, bridged.2);
        prop_assert_eq!(&serial.3, &(serial.1.clone(), serial.2), "fit's cleaning vs apply");
        prop_assert_eq!(serial.2.detected, serial.0.len());
    }

    /// Per-column outlier fitting (including the seeded isolation forest)
    /// is byte-identical serial vs nested-parallel.
    #[test]
    fn outlier_nested_parallel_matches_serial(t in arb_numeric_table(), seed in any::<u64>()) {
        prop_assume!(t.column(0).expect("col").numeric_values().len() >= 3);
        for detection in [
            OutlierDetection::Sd { n_sigmas: 3.0 },
            OutlierDetection::IsolationForest { n_trees: 10, contamination: 0.1 },
        ] {
            let (serial, bridged) = serial_and_bridged(|| {
                let cleaner = outliers::fit(detection, OutlierRepair::Median, &t, seed)
                    .expect("fit");
                let cells = cleaner.detect(&t).expect("detect");
                let (clean, _) = cleaner.apply(&t).expect("apply");
                (cells, clean)
            });
            prop_assert_eq!(&serial.0, &bridged.0, "{:?} cells diverge", detection);
            prop_assert_eq!(&serial.1, &bridged.1, "{:?} table diverges", detection);
        }
    }

    /// The ZeroER mixture always yields finite posteriors in [0, 1].
    #[test]
    fn gmm_posteriors_bounded(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 2..60),
        query in prop::collection::vec(0.0f64..1.0, 3),
    ) {
        let mut points = SimMatrix::zeroed(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            points.set_row(i, row);
        }
        if let Some(gmm) = PairGmm::fit(&points) {
            let p = gmm.posterior_match(&query);
            prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p), "posterior {p}");
        }
    }
}
