//! The unified cleaning-method catalogue (paper Table 2) and the single
//! train/test cleaning entry point used by the study runner.
//!
//! A [`CleaningMethod`] is an `(error type, detection, repair)` triple. The
//! [`CleaningMethod::catalogue`] for each error type reproduces Table 2 —
//! and its cardinalities reconcile exactly with the paper's R1 row counts
//! (e.g. 7 missing-value repairs × 6 datasets × 7 models = 294 = Table 11's
//! Q1 total; 10 outlier methods minus the HoloClean holistic method leave
//! 3 × 3 detector/repair combinations × 4 datasets × 2 scenarios × 7 models
//! = 504 rows in Q4.1's three detector groups, 560 total in Q1).
//!
//! [`clean_pair`] enforces the leakage protocol: fit on `train`, apply to
//! both partitions. Mislabel cleaning is the exception by design — labels
//! are cleaned per-table via confident learning (see [`crate::mislabel`]).

use cleanml_dataset::Table;
use std::fmt;

use crate::duplicates::{self, DuplicateDetection};
use crate::error::CleaningError;
use crate::inconsistency;
use crate::mislabel::ConfidentLearning;
use crate::missing::{self, CatImpute, MissingRepair, NumImpute};
use crate::outliers::{self, OutlierDetection, OutlierRepair};
use crate::report::CleaningReport;
use crate::Result;

/// The five error types of the study (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorType {
    MissingValues,
    Outliers,
    Duplicates,
    Inconsistencies,
    Mislabels,
}

impl ErrorType {
    /// All five error types.
    pub fn all() -> [ErrorType; 5] {
        [
            ErrorType::MissingValues,
            ErrorType::Outliers,
            ErrorType::Duplicates,
            ErrorType::Inconsistencies,
            ErrorType::Mislabels,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorType::MissingValues => "Missing Values",
            ErrorType::Outliers => "Outliers",
            ErrorType::Duplicates => "Duplicates",
            ErrorType::Inconsistencies => "Inconsistencies",
            ErrorType::Mislabels => "Mislabels",
        }
    }
}

impl fmt::Display for ErrorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Detection component of a cleaning method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Detection {
    /// Missing values: empty / NaN entries.
    Empty,
    /// Outliers: mean ± 3σ.
    Sd,
    /// Outliers: 1.5·IQR fences.
    Iqr,
    /// Outliers: per-column isolation forest, contamination 0.01.
    IsolationForest,
    /// Outliers: the HoloClean holistic engine (detection half approximated
    /// by the SD rule; see the README's *Substitutions* section).
    HoloClean,
    /// Duplicates: key-attribute collision.
    KeyCollision,
    /// Duplicates: ZeroER unsupervised matching.
    ZeroEr,
    /// Inconsistencies: OpenRefine-style fingerprint clustering.
    OpenRefine,
    /// Mislabels: cleanlab-style confident learning.
    Cleanlab,
}

impl Detection {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Detection::Empty => "Empty Entries",
            Detection::Sd => "SD",
            Detection::Iqr => "IQR",
            Detection::IsolationForest => "IF",
            Detection::HoloClean => "HoloClean",
            Detection::KeyCollision => "Key Collision",
            Detection::ZeroEr => "ZeroER",
            Detection::OpenRefine => "OpenRefine",
            Detection::Cleanlab => "cleanlab",
        }
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Repair component of a cleaning method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Repair {
    /// Missing values: drop incomplete rows (the paper's dirty baseline).
    Deletion,
    /// Missing values: numeric mean + categorical mode.
    MeanMode,
    /// Missing values: numeric mean + dummy category.
    MeanDummy,
    MedianMode,
    MedianDummy,
    ModeMode,
    ModeDummy,
    /// HoloClean-style probabilistic inference (missing values or the
    /// holistic outlier method).
    HoloClean,
    /// Outliers: impute flagged cells with the inlier mean.
    ImputeMean,
    ImputeMedian,
    ImputeMode,
    /// Duplicates: delete all but one record per group.
    KeepOne,
    /// Inconsistencies: merge clusters to the most frequent value.
    Merge,
    /// Mislabels: prune & relabel via confident learning.
    Cleanlab,
}

impl Repair {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Repair::Deletion => "Deletion",
            Repair::MeanMode => "MeanMode",
            Repair::MeanDummy => "MeanDummy",
            Repair::MedianMode => "MedianMode",
            Repair::MedianDummy => "MedianDummy",
            Repair::ModeMode => "ModeMode",
            Repair::ModeDummy => "ModeDummy",
            Repair::HoloClean => "HoloClean",
            Repair::ImputeMean => "Mean",
            Repair::ImputeMedian => "Median",
            Repair::ImputeMode => "Mode",
            Repair::KeepOne => "Deletion",
            Repair::Merge => "Merge",
            Repair::Cleanlab => "cleanlab",
        }
    }
}

impl fmt::Display for Repair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CleaningMethod {
    pub error_type: ErrorType,
    pub detection: Detection,
    pub repair: Repair,
}

impl CleaningMethod {
    /// The automatic cleaning methods evaluated for `error_type` — the rows
    /// of Table 2, with cardinalities matching the paper's relation sizes.
    pub fn catalogue(error_type: ErrorType) -> Vec<CleaningMethod> {
        match error_type {
            ErrorType::MissingValues => [
                Repair::MeanMode,
                Repair::MeanDummy,
                Repair::MedianMode,
                Repair::MedianDummy,
                Repair::ModeMode,
                Repair::ModeDummy,
                Repair::HoloClean,
            ]
            .into_iter()
            .map(|repair| CleaningMethod { error_type, detection: Detection::Empty, repair })
            .collect(),
            ErrorType::Outliers => {
                let mut v = Vec::with_capacity(10);
                for detection in [Detection::Sd, Detection::Iqr, Detection::IsolationForest] {
                    for repair in [Repair::ImputeMean, Repair::ImputeMedian, Repair::ImputeMode] {
                        v.push(CleaningMethod { error_type, detection, repair });
                    }
                }
                v.push(CleaningMethod {
                    error_type,
                    detection: Detection::HoloClean,
                    repair: Repair::HoloClean,
                });
                v
            }
            ErrorType::Duplicates => vec![
                CleaningMethod {
                    error_type,
                    detection: Detection::KeyCollision,
                    repair: Repair::KeepOne,
                },
                CleaningMethod {
                    error_type,
                    detection: Detection::ZeroEr,
                    repair: Repair::KeepOne,
                },
            ],
            ErrorType::Inconsistencies => vec![CleaningMethod {
                error_type,
                detection: Detection::OpenRefine,
                repair: Repair::Merge,
            }],
            ErrorType::Mislabels => vec![CleaningMethod {
                error_type,
                detection: Detection::Cleanlab,
                repair: Repair::Cleanlab,
            }],
        }
    }

    /// The deletion baseline for missing values (paper Table 5's "dirty").
    pub fn missing_deletion() -> CleaningMethod {
        CleaningMethod {
            error_type: ErrorType::MissingValues,
            detection: Detection::Empty,
            repair: Repair::Deletion,
        }
    }

    /// `Detection/Repair` label for reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.detection.name(), self.repair.name())
    }
}

/// Result of cleaning a train/test pair.
#[derive(Debug, Clone)]
pub struct CleaningOutcome {
    pub train: Table,
    pub test: Table,
    pub report: CleaningReport,
}

fn missing_repair_of(repair: Repair) -> Option<MissingRepair> {
    Some(match repair {
        Repair::Deletion => MissingRepair::Deletion,
        Repair::MeanMode => MissingRepair::Impute { num: NumImpute::Mean, cat: CatImpute::Mode },
        Repair::MeanDummy => MissingRepair::Impute { num: NumImpute::Mean, cat: CatImpute::Dummy },
        Repair::MedianMode => {
            MissingRepair::Impute { num: NumImpute::Median, cat: CatImpute::Mode }
        }
        Repair::MedianDummy => {
            MissingRepair::Impute { num: NumImpute::Median, cat: CatImpute::Dummy }
        }
        Repair::ModeMode => MissingRepair::Impute { num: NumImpute::Mode, cat: CatImpute::Mode },
        Repair::ModeDummy => MissingRepair::Impute { num: NumImpute::Mode, cat: CatImpute::Dummy },
        Repair::HoloClean => MissingRepair::HoloClean,
        _ => return None,
    })
}

/// Cleans a train/test pair with `method`, fitting all statistics on
/// `train` only.
pub fn clean_pair(
    method: &CleaningMethod,
    train: &Table,
    test: &Table,
    seed: u64,
) -> Result<CleaningOutcome> {
    let invalid = || CleaningError::NotApplicable {
        method: "cleaning method",
        reason: format!(
            "{:?} detection with {:?} repair is not a valid {:?} method",
            method.detection, method.repair, method.error_type
        ),
    };

    match method.error_type {
        ErrorType::MissingValues => {
            if method.detection != Detection::Empty {
                return Err(invalid());
            }
            let repair = missing_repair_of(method.repair).ok_or_else(invalid)?;
            let cleaner = missing::fit(repair, train)?;
            let (ctrain, rtrain) = cleaner.apply(train)?;
            let (ctest, rtest) = cleaner.apply(test)?;
            Ok(CleaningOutcome {
                train: ctrain,
                test: ctest,
                report: CleaningReport { train: rtrain, test: rtest },
            })
        }
        ErrorType::Outliers => {
            let detection = match method.detection {
                Detection::Sd => OutlierDetection::Sd { n_sigmas: 3.0 },
                Detection::Iqr => OutlierDetection::Iqr { k: 1.5 },
                Detection::IsolationForest => {
                    OutlierDetection::IsolationForest { contamination: 0.01, n_trees: 50 }
                }
                // The holistic HoloClean method: SD-rule detection half.
                Detection::HoloClean => OutlierDetection::Sd { n_sigmas: 3.0 },
                _ => return Err(invalid()),
            };
            let repair = match method.repair {
                Repair::ImputeMean => OutlierRepair::Mean,
                Repair::ImputeMedian => OutlierRepair::Median,
                Repair::ImputeMode => OutlierRepair::Mode,
                Repair::HoloClean => OutlierRepair::HoloClean,
                _ => return Err(invalid()),
            };
            let cleaner = outliers::fit(detection, repair, train, seed)?;
            let (ctrain, rtrain) = cleaner.apply(train)?;
            let (ctest, rtest) = cleaner.apply(test)?;
            Ok(CleaningOutcome {
                train: ctrain,
                test: ctest,
                report: CleaningReport { train: rtrain, test: rtest },
            })
        }
        ErrorType::Duplicates => {
            if method.repair != Repair::KeepOne {
                return Err(invalid());
            }
            let detection = match method.detection {
                Detection::KeyCollision => DuplicateDetection::KeyCollision,
                Detection::ZeroEr => DuplicateDetection::ZeroEr,
                _ => return Err(invalid()),
            };
            let cleaner = duplicates::fit(detection, train)?;
            let (ctrain, rtrain) = cleaner.apply(train)?;
            let (ctest, rtest) = cleaner.apply(test)?;
            Ok(CleaningOutcome {
                train: ctrain,
                test: ctest,
                report: CleaningReport { train: rtrain, test: rtest },
            })
        }
        ErrorType::Inconsistencies => {
            if method.detection != Detection::OpenRefine || method.repair != Repair::Merge {
                return Err(invalid());
            }
            let cleaner = inconsistency::fit(train)?;
            let (ctrain, rtrain) = cleaner.apply(train)?;
            let (ctest, rtest) = cleaner.apply(test)?;
            Ok(CleaningOutcome {
                train: ctrain,
                test: ctest,
                report: CleaningReport { train: rtrain, test: rtest },
            })
        }
        ErrorType::Mislabels => {
            if method.detection != Detection::Cleanlab || method.repair != Repair::Cleanlab {
                return Err(invalid());
            }
            let cleaner = ConfidentLearning::default();
            let (ctrain, rtrain, _) = cleaner.clean(train, seed)?;
            let (ctest, rtest, _) = cleaner.clean(test, seed.wrapping_add(1))?;
            Ok(CleaningOutcome {
                train: ctrain,
                test: ctest,
                report: CleaningReport { train: rtrain, test: rtest },
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_dataset::{FieldMeta, Schema, Value};

    #[test]
    fn catalogue_cardinalities_match_paper() {
        assert_eq!(CleaningMethod::catalogue(ErrorType::MissingValues).len(), 7);
        assert_eq!(CleaningMethod::catalogue(ErrorType::Outliers).len(), 10);
        assert_eq!(CleaningMethod::catalogue(ErrorType::Duplicates).len(), 2);
        assert_eq!(CleaningMethod::catalogue(ErrorType::Inconsistencies).len(), 1);
        assert_eq!(CleaningMethod::catalogue(ErrorType::Mislabels).len(), 1);
    }

    #[test]
    fn catalogue_methods_are_distinct() {
        for et in ErrorType::all() {
            let methods = CleaningMethod::catalogue(et);
            let mut dedup = methods.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(methods.len(), dedup.len(), "{et:?}");
        }
    }

    fn numeric_table() -> Table {
        let schema = Schema::new(vec![FieldMeta::num_feature("x"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        for i in 0..40 {
            let x = if i == 39 { 1000.0 } else { (i % 10) as f64 };
            t.push_row(vec![Value::from(x), Value::from(if i % 2 == 0 { "p" } else { "n" })])
                .unwrap();
        }
        t
    }

    #[test]
    fn clean_pair_outliers_end_to_end() {
        let t = numeric_table();
        let (train, test) = t.split(0.3, 1).unwrap();
        for method in CleaningMethod::catalogue(ErrorType::Outliers) {
            let out = clean_pair(&method, &train, &test, 0).unwrap();
            assert_eq!(out.train.n_rows(), train.n_rows(), "{}", method.label());
            assert_eq!(out.test.n_rows(), test.n_rows());
        }
    }

    #[test]
    fn clean_pair_missing_values_end_to_end() {
        let schema = Schema::new(vec![
            FieldMeta::num_feature("x"),
            FieldMeta::cat_feature("c"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for i in 0..40 {
            let x = if i % 7 == 0 { None } else { Some(i as f64) };
            let c = if i % 5 == 0 { None } else { Some(if i % 2 == 0 { "a" } else { "b" }) };
            t.push_row(vec![
                Value::from(x),
                Value::from(c),
                Value::from(if i % 2 == 0 { "p" } else { "n" }),
            ])
            .unwrap();
        }
        let (train, test) = t.split(0.3, 2).unwrap();
        for method in CleaningMethod::catalogue(ErrorType::MissingValues) {
            let out = clean_pair(&method, &train, &test, 0).unwrap();
            assert_eq!(out.train.n_missing_cells(), 0, "{}", method.label());
            assert_eq!(out.test.n_missing_cells(), 0, "{}", method.label());
        }
        // deletion baseline shrinks instead of imputing
        let out = clean_pair(&CleaningMethod::missing_deletion(), &train, &test, 0).unwrap();
        assert!(out.train.n_rows() < train.n_rows());
        assert_eq!(out.train.n_missing_cells(), 0);
    }

    #[test]
    fn invalid_combination_rejected() {
        let t = numeric_table();
        let (train, test) = t.split(0.3, 1).unwrap();
        let bad = CleaningMethod {
            error_type: ErrorType::Duplicates,
            detection: Detection::Sd,
            repair: Repair::KeepOne,
        };
        assert!(matches!(
            clean_pair(&bad, &train, &test, 0),
            Err(CleaningError::NotApplicable { .. })
        ));
        let bad = CleaningMethod {
            error_type: ErrorType::MissingValues,
            detection: Detection::Empty,
            repair: Repair::Merge,
        };
        assert!(clean_pair(&bad, &train, &test, 0).is_err());
    }

    #[test]
    fn labels_and_names() {
        let m = CleaningMethod {
            error_type: ErrorType::Outliers,
            detection: Detection::Iqr,
            repair: Repair::ImputeMean,
        };
        assert_eq!(m.label(), "IQR/Mean");
        assert_eq!(ErrorType::Mislabels.to_string(), "Mislabels");
        assert_eq!(Detection::Cleanlab.to_string(), "cleanlab");
        assert_eq!(Repair::KeepOne.to_string(), "Deletion");
    }
}
