//! # cleanml-core
//!
//! The CleanML study framework: everything between the substrates
//! (datasets, models, cleaners, statistics) and the paper's result tables.
//!
//! * [`schema`] — the R1/R2/R3 relational schema, scenarios BD/CD, and
//!   experiment specifications (paper §III).
//! * [`config`] — split counts, tuning budgets, significance level.
//! * [`runner`] — the §IV-A protocol: seeded 70/30 splits, leakage-free
//!   cleaning, training with hyper-parameter search, cases B/C/D, and the
//!   [`runner::EvalGrid`] from which all three relations derive without
//!   retraining.
//! * [`database`] — the results database, the per-relation
//!   Benjamini–Yekutieli procedure (§IV-C), and query templates Q1–Q5 (§V-A).
//! * [`analysis`] — paper-style table rendering.
//! * [`study`] — orchestration across datasets/error types, including the
//!   13 mislabel variants.
//! * [`tasks`] — the protocol decomposed into pure, `Send` task units
//!   (`Split` → `Clean` → `Train` → `Evaluate`) that `cleanml-engine`
//!   schedules across a worker pool.
//! * [`mixed`] — cleaning mixed error types vs. single types (§VII-A,
//!   Table 17).
//! * [`robust`] — cleaning vs. robust-ML baselines NaCL and MLP (§VII-B,
//!   Table 18).
//! * [`human`] — ground-truth ("human") cleaning vs. the best automatic
//!   method (§VII-C, Table 19).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod database;
pub mod error;
pub mod human;
pub mod mixed;
pub mod robust;
pub mod runner;
pub mod schema;
pub mod study;
pub mod tasks;

pub use config::ExperimentConfig;
pub use database::{CleanMlDb, FlagDist, Relation};
pub use error::CoreError;
pub use runner::{evaluate_grid, run_r1_experiment, EvalGrid, ExperimentOutcome, Result};
pub use schema::{Flag, Scenario, Spec1, Spec2, Spec3};
pub use study::{dataset_plan, generate_datasets_for, run_study, DatasetPlan};
