//! # CleanML-rs
//!
//! A from-scratch Rust reproduction of *CleanML: A Study for Evaluating the
//! Impact of Data Cleaning on ML Classification Tasks* (ICDE 2021).
//!
//! This facade crate re-exports the entire workspace so examples, tests and
//! downstream users need a single dependency:
//!
//! * [`dataset`] — columnar tabular substrate (tables, schemas, splits,
//!   encoding, CSV).
//! * [`stats`] — paired t-tests, Student-t distribution, FDR control.
//! * [`ml`] — seven from-scratch classifiers plus MLP/NaCL, CV and model
//!   tuning (hyper-parameter search).
//! * [`cleaning`] — detection & repair for the five CleanML error types.
//! * [`datagen`] — synthetic stand-ins for the study's 14 datasets, with
//!   ground truth.
//! * [`core`] — the study framework: R1/R2/R3 relations, the 20-split
//!   experiment runner, the results database and its Q1–Q5 analyses.
//! * [`engine`] — the parallel study-execution engine: a worker pool
//!   over typed task DAGs with a content-addressed artifact cache for
//!   resumable, deduplicated runs.
//!
//! ## Quickstart
//!
//! ```
//! use cleanml::datagen::{spec_by_name, generate};
//! use cleanml::core::{ExperimentConfig, run_r1_experiment, Spec1};
//! use cleanml::core::schema::{ErrorType, Scenario, Detection, Repair, Model};
//!
//! // Generate the EEG stand-in dataset (outliers + mislabels).
//! let spec = spec_by_name("EEG").unwrap();
//! let data = generate(&spec, 42);
//!
//! // One R1 experiment: IQR-detected outliers repaired by mean imputation,
//! // logistic regression, model-development scenario.
//! let exp = Spec1 {
//!     dataset: "EEG".into(),
//!     error_type: ErrorType::Outliers,
//!     detection: Detection::Iqr,
//!     repair: Repair::ImputeMean,
//!     model: Model::LogisticRegression,
//!     scenario: Scenario::BD,
//! };
//! let cfg = ExperimentConfig::quick();
//! let outcome = run_r1_experiment(&data, &exp, &cfg).unwrap();
//! println!("flag = {:?}", outcome.flag);
//! ```

#![forbid(unsafe_code)]

pub use cleanml_cleaning as cleaning;
pub use cleanml_core as core;
pub use cleanml_datagen as datagen;
pub use cleanml_dataset as dataset;
pub use cleanml_engine as engine;
pub use cleanml_ml as ml;
pub use cleanml_stats as stats;
