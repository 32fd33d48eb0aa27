//! # cleanml-cleaning
//!
//! Error detection and repair algorithms for the five CleanML error types
//! (paper §III-B, Table 2). Every method follows the paper's leakage
//! protocol: statistics are **fit on the training partition only** and then
//! applied to clean both partitions (§IV-A step 2).
//!
//! | error type | detection | repair | module |
//! |---|---|---|---|
//! | missing values | empty cells | deletion; {mean, median, mode} × {mode, dummy} imputation; HoloClean-style inference | [`missing`] |
//! | outliers | SD (µ±3σ), IQR (1.5·IQR), Isolation Forest (contamination 0.01) | mean / median / mode / HoloClean-style imputation | [`outliers`] |
//! | duplicates | key collision; ZeroER-style unsupervised matching | keep-one deletion | [`duplicates`], [`zeroer`] |
//! | inconsistencies | OpenRefine-style fingerprint clustering | merge to most frequent | [`inconsistency`] |
//! | mislabels | cleanlab-style confident learning | prune & relabel | [`mislabel`] |
//!
//! [`method`] exposes the unified [`method::CleaningMethod`] catalogue —
//! exactly the rows of the paper's Table 2 — and [`method::clean_pair`],
//! the single entry point the study runner uses.
//!
//! Substitutions relative to the paper's exact tools (HoloClean → a
//! correlation-based probabilistic imputer, ZeroER → similarity-vector GMM
//! fit by EM, OpenRefine → fingerprint keying, cleanlab → confident
//! learning) are documented in the README's *Substitutions* section; each
//! keeps the algorithmic core of the original system.

pub mod duplicates;
pub mod error;
pub mod holoclean;
pub mod inconsistency;
pub mod method;
pub mod mislabel;
pub mod missing;
#[cfg(test)]
mod oracle;
pub mod outliers;
pub mod report;
pub mod similarity;
pub mod zeroer;

pub use error::CleaningError;
pub use method::{clean_pair, CleaningMethod, CleaningOutcome, Detection, ErrorType, Repair};
pub use report::CleaningReport;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CleaningError>;
