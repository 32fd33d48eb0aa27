//! Numeric outlier detection and repair (paper §III-B2).
//!
//! Three detectors, matching the paper's parameters exactly:
//!
//! * **SD** — a cell is an outlier when it lies more than `n = 3` standard
//!   deviations from its column's training mean.
//! * **IQR** — outside `[Q1 − 1.5·IQR, Q3 + 1.5·IQR]` of the training
//!   quartiles.
//! * **Isolation Forest** — per-column isolation forests (CleanML applies
//!   scikit-learn's `IsolationForest` with `contamination = 0.01` to obtain
//!   per-cell outlier masks); a cell is an outlier when its anomaly score
//!   exceeds the `1 − contamination` quantile of the training scores.
//!
//! Repairs impute the flagged cells with the mean / median / mode of the
//! column's **non-outlying** training values, or with HoloClean-style
//! inference — mirroring the paper's "same repairs as missing values, minus
//! the categorical variants" (outliers are numeric-only).

use std::collections::HashMap;

use cleanml_dataset::{Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::CleaningError;
use crate::holoclean::HoloCleanImputer;
use crate::report::TableReport;
use crate::Result;

/// Outlier detection rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierDetection {
    /// Mean ± `n_sigmas`·σ (paper: n = 3).
    Sd { n_sigmas: f64 },
    /// Tukey fences with multiplier `k` (paper: k = 1.5).
    Iqr { k: f64 },
    /// Per-column isolation forest (paper: contamination = 0.01).
    IsolationForest { contamination: f64, n_trees: usize },
}

impl OutlierDetection {
    /// The paper's three detectors with its exact parameters.
    pub fn paper_detectors() -> [OutlierDetection; 3] {
        [
            OutlierDetection::Sd { n_sigmas: 3.0 },
            OutlierDetection::Iqr { k: 1.5 },
            OutlierDetection::IsolationForest { contamination: 0.01, n_trees: 50 },
        ]
    }

    /// Short name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            OutlierDetection::Sd { .. } => "SD",
            OutlierDetection::Iqr { .. } => "IQR",
            OutlierDetection::IsolationForest { .. } => "IF",
        }
    }
}

/// Outlier repair rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutlierRepair {
    Mean,
    Median,
    Mode,
    HoloClean,
}

impl OutlierRepair {
    /// All four repairs in Table 2 order.
    pub fn all() -> [OutlierRepair; 4] {
        [OutlierRepair::Mean, OutlierRepair::Median, OutlierRepair::Mode, OutlierRepair::HoloClean]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OutlierRepair::Mean => "Mean",
            OutlierRepair::Median => "Median",
            OutlierRepair::Mode => "Mode",
            OutlierRepair::HoloClean => "HoloClean",
        }
    }
}

/// Per-column fitted detector state.
#[derive(Debug, Clone)]
enum ColumnDetector {
    Range { lo: f64, hi: f64 },
    Forest { forest: IsolationForest1D, threshold: f64 },
}

/// A fitted outlier cleaner.
#[derive(Debug, Clone)]
pub struct FittedOutliers {
    detection: OutlierDetection,
    repair: OutlierRepair,
    detectors: HashMap<usize, ColumnDetector>,
    /// Repair value per column (for Mean/Median/Mode repairs).
    repair_values: HashMap<usize, f64>,
    holoclean: Option<HoloCleanImputer>,
}

/// Fits detector bounds and repair statistics on `train`.
pub fn fit(
    detection: OutlierDetection,
    repair: OutlierRepair,
    train: &Table,
    seed: u64,
) -> Result<FittedOutliers> {
    let cols = train.schema().numeric_feature_indices();
    if cols.is_empty() {
        return Err(CleaningError::NotApplicable {
            method: "outlier cleaning",
            reason: "no numeric feature columns".into(),
        });
    }

    // Each column's isolation-forest seed is derived from the column's
    // position in `cols`, not from a shared stream.
    let mut detectors = HashMap::new();
    for (i, &col) in cols.iter().enumerate() {
        let c = train.column(col)?;
        let detector = match detection {
            OutlierDetection::Sd { n_sigmas } => {
                let mean = cleanml_dataset::stats::mean(c).unwrap_or(0.0);
                let sd = cleanml_dataset::stats::std_dev(c).unwrap_or(0.0);
                ColumnDetector::Range { lo: mean - n_sigmas * sd, hi: mean + n_sigmas * sd }
            }
            OutlierDetection::Iqr { k } => {
                let q1 = cleanml_dataset::stats::quantile(c, 0.25).unwrap_or(0.0);
                let q3 = cleanml_dataset::stats::quantile(c, 0.75).unwrap_or(0.0);
                let iqr = q3 - q1;
                ColumnDetector::Range { lo: q1 - k * iqr, hi: q3 + k * iqr }
            }
            OutlierDetection::IsolationForest { contamination, n_trees } => {
                let values = c.numeric_values();
                let forest = IsolationForest1D::fit(&values, n_trees, seed.wrapping_add(i as u64));
                let mut scores: Vec<f64> = values.iter().map(|&v| forest.score(v)).collect();
                scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
                let threshold = if scores.is_empty() {
                    f64::INFINITY
                } else {
                    cleanml_dataset::stats::quantile_sorted(&scores, 1.0 - contamination)
                };
                ColumnDetector::Forest { forest, threshold }
            }
        };
        detectors.insert(col, detector);
    }

    // Repair statistics over the *non-outlying* training values.
    let mut repair_values = HashMap::new();
    if repair != OutlierRepair::HoloClean {
        for &col in &cols {
            let c = train.column(col)?;
            let det = &detectors[&col];
            let mut inliers: Vec<f64> =
                c.numeric_values().into_iter().filter(|&v| !is_outlier(det, v)).collect();
            if inliers.is_empty() {
                inliers = c.numeric_values();
            }
            let value = match repair {
                OutlierRepair::Mean => {
                    if inliers.is_empty() {
                        0.0
                    } else {
                        inliers.iter().sum::<f64>() / inliers.len() as f64
                    }
                }
                OutlierRepair::Median => {
                    if inliers.is_empty() {
                        0.0
                    } else {
                        inliers.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                        cleanml_dataset::stats::quantile_sorted(&inliers, 0.5)
                    }
                }
                OutlierRepair::Mode => {
                    if inliers.is_empty() {
                        0.0
                    } else {
                        mode_of(&mut inliers)
                    }
                }
                OutlierRepair::HoloClean => unreachable!(),
            };
            repair_values.insert(col, value);
        }
    }

    let holoclean =
        if repair == OutlierRepair::HoloClean { Some(HoloCleanImputer::fit(train)?) } else { None };

    Ok(FittedOutliers { detection, repair, detectors, repair_values, holoclean })
}

fn is_outlier(det: &ColumnDetector, v: f64) -> bool {
    match det {
        ColumnDetector::Range { lo, hi } => v < *lo || v > *hi,
        ColumnDetector::Forest { forest, threshold } => forest.score(v) > *threshold,
    }
}

fn mode_of(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut best = values[0];
    let mut best_count = 1;
    let mut cur = values[0];
    let mut cur_count = 1;
    for &v in &values[1..] {
        if v == cur {
            cur_count += 1;
        } else {
            cur = v;
            cur_count = 1;
        }
        if cur_count > best_count {
            best = cur;
            best_count = cur_count;
        }
    }
    best
}

impl FittedOutliers {
    /// The detection rule.
    pub fn detection(&self) -> OutlierDetection {
        self.detection
    }

    /// The repair rule.
    pub fn repair(&self) -> OutlierRepair {
        self.repair
    }

    /// Flags outlying cells of `table` (pairs of `(row, col)`).
    pub fn detect(&self, table: &Table) -> Result<Vec<(usize, usize)>> {
        let mut cells = Vec::new();
        for (&col, det) in &self.detectors {
            let c = table.column(col)?;
            for r in 0..table.n_rows() {
                if let Some(v) = c.num(r) {
                    if is_outlier(det, v) {
                        cells.push((r, col));
                    }
                }
            }
        }
        cells.sort_unstable();
        Ok(cells)
    }

    /// Cleans one table: detects outlying cells and overwrites them with the
    /// fitted repair value.
    pub fn apply(&self, table: &Table) -> Result<(Table, TableReport)> {
        let cells = self.detect(table)?;
        let mut out = table.clone();
        for &(r, col) in &cells {
            let value = match self.repair {
                OutlierRepair::HoloClean => {
                    let imputer = self.holoclean.as_ref().expect("fitted for HoloClean");
                    // Impute from the row's *other* attributes; if the model
                    // has no signal, keep the training mean estimate.
                    imputer.impute_numeric(table, r, col).unwrap_or(0.0)
                }
                _ => self.repair_values.get(&col).copied().unwrap_or(0.0),
            };
            out.set(r, col, Value::Num(value))?;
        }
        let report = TableReport {
            rows_before: table.n_rows(),
            rows_after: out.n_rows(),
            detected: cells.len(),
            repaired: cells.len(),
        };
        Ok((out, report))
    }
}

/// A one-dimensional isolation forest.
///
/// Each tree recursively picks a uniform split point within the current
/// value range until the sample is isolated or the depth cap is hit; the
/// anomaly score is `2^(−E[path]/c(ψ))` (Liu et al., ICDM'08). Values far
/// outside the bulk isolate quickly and score near 1.
#[derive(Debug, Clone)]
pub struct IsolationForest1D {
    trees: Vec<Tree1D>,
    c_psi: f64,
}

#[derive(Debug, Clone)]
enum Tree1D {
    Leaf { size: usize },
    Split { at: f64, left: Box<Tree1D>, right: Box<Tree1D> },
}

/// Average unsuccessful-search path length in a BST of n nodes.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_664_9) - 2.0 * (n - 1.0) / n
}

impl IsolationForest1D {
    /// Builds `n_trees` isolation trees over subsamples of `values`.
    pub fn fit(values: &[f64], n_trees: usize, seed: u64) -> IsolationForest1D {
        const PSI: usize = 128;
        let mut rng = StdRng::seed_from_u64(seed);
        let psi = PSI.min(values.len().max(1));
        let max_depth = (psi as f64).log2().ceil() as usize + 1;
        let mut trees = Vec::with_capacity(n_trees.max(1));
        for _ in 0..n_trees.max(1) {
            let sample: Vec<f64> = if values.is_empty() {
                vec![0.0]
            } else {
                (0..psi).map(|_| values[rng.random_range(0..values.len())]).collect()
            };
            trees.push(build_tree1d(sample, 0, max_depth, &mut rng));
        }
        IsolationForest1D { trees, c_psi: c_factor(psi) }
    }

    /// Anomaly score in `(0, 1)`; higher = more anomalous.
    pub fn score(&self, v: f64) -> f64 {
        if self.c_psi <= 0.0 {
            return 0.5;
        }
        let mean_path: f64 =
            self.trees.iter().map(|t| path_length(t, v, 0)).sum::<f64>() / self.trees.len() as f64;
        2f64.powf(-mean_path / self.c_psi)
    }
}

fn build_tree1d(mut values: Vec<f64>, depth: usize, max_depth: usize, rng: &mut StdRng) -> Tree1D {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if depth >= max_depth || values.len() <= 1 || hi - lo < 1e-12 {
        return Tree1D::Leaf { size: values.len() };
    }
    let at = rng.random_range(lo..hi);
    let right: Vec<f64> = values.iter().copied().filter(|&v| v > at).collect();
    values.retain(|&v| v <= at);
    Tree1D::Split {
        at,
        left: Box::new(build_tree1d(values, depth + 1, max_depth, rng)),
        right: Box::new(build_tree1d(right, depth + 1, max_depth, rng)),
    }
}

fn path_length(tree: &Tree1D, v: f64, depth: usize) -> f64 {
    match tree {
        Tree1D::Leaf { size } => depth as f64 + c_factor(*size),
        Tree1D::Split { at, left, right } => {
            if v <= *at {
                path_length(left, v, depth + 1)
            } else {
                path_length(right, v, depth + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_dataset::{FieldMeta, Schema};

    /// 60 inliers around 0 plus two extreme cells.
    fn table_with_outliers() -> Table {
        let schema = Schema::new(vec![
            FieldMeta::num_feature("x"),
            FieldMeta::num_feature("z"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for i in 0..60 {
            let x = (i as f64 % 10.0) - 5.0; // -5..5
            let z = (i as f64 % 7.0) * 0.5;
            let y = if i % 2 == 0 { "p" } else { "n" };
            t.push_row(vec![Value::from(x), Value::from(z), Value::from(y)]).unwrap();
        }
        t.push_row(vec![Value::from(500.0), Value::from(1.0), Value::from("p")]).unwrap();
        t.push_row(vec![Value::from(-2.0), Value::from(-400.0), Value::from("n")]).unwrap();
        t
    }

    #[test]
    fn sd_detects_extremes() {
        let t = table_with_outliers();
        let cleaner =
            fit(OutlierDetection::Sd { n_sigmas: 3.0 }, OutlierRepair::Mean, &t, 0).unwrap();
        let cells = cleaner.detect(&t).unwrap();
        assert!(cells.contains(&(60, 0)), "x=500 missed: {cells:?}");
        assert!(cells.contains(&(61, 1)), "z=-400 missed: {cells:?}");
        // inlier cells untouched
        assert!(!cells.contains(&(0, 0)));
    }

    #[test]
    fn iqr_detects_extremes() {
        let t = table_with_outliers();
        let cleaner = fit(OutlierDetection::Iqr { k: 1.5 }, OutlierRepair::Median, &t, 0).unwrap();
        let cells = cleaner.detect(&t).unwrap();
        assert!(cells.contains(&(60, 0)));
        assert!(cells.contains(&(61, 1)));
    }

    #[test]
    fn isolation_forest_detects_extremes() {
        let t = table_with_outliers();
        let cleaner = fit(
            OutlierDetection::IsolationForest { contamination: 0.02, n_trees: 50 },
            OutlierRepair::Mean,
            &t,
            7,
        )
        .unwrap();
        let cells = cleaner.detect(&t).unwrap();
        assert!(cells.contains(&(60, 0)), "{cells:?}");
        assert!(cells.contains(&(61, 1)), "{cells:?}");
    }

    #[test]
    fn repair_uses_inlier_statistics() {
        let t = table_with_outliers();
        let cleaner =
            fit(OutlierDetection::Sd { n_sigmas: 3.0 }, OutlierRepair::Mean, &t, 0).unwrap();
        let (clean, report) = cleaner.apply(&t).unwrap();
        assert!(report.repaired >= 2);
        let fixed = clean.get(60, 0).unwrap().as_num().unwrap();
        // mean of inliers is near 0, definitely not near 500
        assert!(fixed.abs() < 10.0, "repaired value {fixed}");
        // other cells unchanged
        assert_eq!(clean.get(0, 0).unwrap(), t.get(0, 0).unwrap());
    }

    #[test]
    fn holoclean_repair_applies() {
        let t = table_with_outliers();
        let cleaner =
            fit(OutlierDetection::Sd { n_sigmas: 3.0 }, OutlierRepair::HoloClean, &t, 0).unwrap();
        let (clean, _) = cleaner.apply(&t).unwrap();
        let fixed = clean.get(60, 0).unwrap().as_num().unwrap();
        assert!(fixed.abs() < 50.0, "repaired value {fixed}");
    }

    #[test]
    fn no_numeric_features_not_applicable() {
        let schema = Schema::new(vec![FieldMeta::cat_feature("c"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::from("a"), Value::from("p")]).unwrap();
        assert!(matches!(
            fit(OutlierDetection::Sd { n_sigmas: 3.0 }, OutlierRepair::Mean, &t, 0),
            Err(CleaningError::NotApplicable { .. })
        ));
    }

    #[test]
    fn bounds_fitted_on_train_only() {
        let train = table_with_outliers();
        let cleaner =
            fit(OutlierDetection::Sd { n_sigmas: 3.0 }, OutlierRepair::Mean, &train, 0).unwrap();
        // A fresh table with one extreme value: detected via *train* bounds.
        let schema = train.schema().clone();
        let mut test = Table::new(schema);
        test.push_row(vec![Value::from(450.0), Value::from(0.0), Value::from("p")]).unwrap();
        let cells = cleaner.detect(&test).unwrap();
        assert_eq!(cells, vec![(0, 0)]);
    }

    #[test]
    fn missing_cells_ignored() {
        let schema = Schema::new(vec![FieldMeta::num_feature("x"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        for i in 0..20 {
            t.push_row(vec![
                Value::from(i as f64),
                Value::from(if i % 2 == 0 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        t.push_row(vec![Value::Null, Value::from("a")]).unwrap();
        let cleaner = fit(OutlierDetection::Iqr { k: 1.5 }, OutlierRepair::Mean, &t, 0).unwrap();
        let cells = cleaner.detect(&t).unwrap();
        assert!(cells.iter().all(|&(r, _)| r != 20));
    }

    #[test]
    fn iforest_scores_rank_extremes_higher() {
        let values: Vec<f64> = (0..200).map(|i| (i % 20) as f64).collect();
        let forest = IsolationForest1D::fit(&values, 50, 3);
        let s_in = forest.score(10.0);
        let s_out = forest.score(1000.0);
        assert!(s_out > s_in, "outlier {s_out} <= inlier {s_in}");
        assert!(s_out > 0.5);
    }

    #[test]
    fn iforest_constant_data() {
        let values = vec![5.0; 50];
        let forest = IsolationForest1D::fit(&values, 10, 0);
        let s = forest.score(5.0);
        assert!(s.is_finite());
    }

    #[test]
    fn detector_names() {
        let [sd, iqr, iforest] = OutlierDetection::paper_detectors();
        assert_eq!(sd.name(), "SD");
        assert_eq!(iqr.name(), "IQR");
        assert_eq!(iforest.name(), "IF");
        assert_eq!(OutlierRepair::all().len(), 4);
    }
}
