//! # cleanml-stats
//!
//! Statistical machinery for the CleanML study (paper §IV-B and §IV-C):
//!
//! * [`special`] — log-gamma and the regularized incomplete beta function,
//!   implemented from scratch (Lanczos approximation + Lentz continued
//!   fraction).
//! * [`tdist`] — Student-t distribution CDF/survival/two-sided p-values
//!   built on [`special`].
//! * [`ttest`] — the paired-sample t-test run three ways (two-tailed,
//!   upper-tailed, lower-tailed), exactly as the paper uses it to compare 20
//!   before/after-cleaning metric pairs.
//! * [`flag`] — the paper's three-valued outcome: **P**ositive,
//!   **N**egative, or in**S**ignificant, derived from the three p-values at a
//!   significance level α.
//! * [`fdr`] — multiple-hypothesis-testing corrections: Bonferroni,
//!   Benjamini–Hochberg, and the Benjamini–Yekutieli procedure the paper
//!   applies per relation (valid under arbitrary dependence).
//! * [`descriptive`] — small slice statistics helpers.
//!
//! ```
//! use cleanml_stats::{paired_t_test, Flag, flag_from_tests, ALPHA};
//!
//! let before = [0.632, 0.631, 0.634, 0.638, 0.629, 0.632];
//! let after  = [0.657, 0.674, 0.668, 0.676, 0.669, 0.668];
//! let t = paired_t_test(&after, &before).unwrap();
//! assert_eq!(flag_from_tests(&t, ALPHA), Flag::Positive);
//! ```

#![forbid(unsafe_code)]

pub mod descriptive;
pub mod fdr;
pub mod flag;
pub mod special;
pub mod tdist;
pub mod ttest;

pub use fdr::{benjamini_hochberg, benjamini_yekutieli, bonferroni, Correction};
pub use flag::{flag_from_pvalues, flag_from_tests, Flag};
pub use ttest::{paired_t_test, PairedTTest, TTestError};

/// The significance level used throughout the paper.
pub const ALPHA: f64 = 0.05;
