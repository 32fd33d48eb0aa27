//! # cleanml-datagen
//!
//! Synthetic stand-ins for the 14 real-world datasets of the CleanML study
//! (paper Table 3), with realistic injected errors and — unlike the paper's
//! data — retained ground truth.
//!
//! The study's object of measurement is the relationship between an *error
//! mechanism*, a *cleaning algorithm*, and a *downstream model*, not any one
//! dataset's idiosyncrasies (see the README's *Substitutions* section for
//! the rationale). Each generator therefore reproduces:
//!
//! * a learnable base task — numeric and categorical features driving a
//!   binary label through a noisy latent score ([`model`]);
//! * the dataset's error types from Table 3, injected with mechanisms
//!   matching the real data's character ([`inject`]): MCAR/MAR missing
//!   cells, heavy-tailed outliers, typo'd and exact duplicate records,
//!   alternative-spelling inconsistencies, and boundary-concentrated label
//!   noise for the Clothing dataset's "real" mislabels;
//! * per-dataset error rates and class (im)balance ([`registry`]).
//!
//! ```
//! use cleanml_datagen::{spec_by_name, generate};
//!
//! let spec = spec_by_name("Titanic").unwrap();
//! let data = generate(spec, 42);
//! assert!(data.dirty.n_missing_cells() > 0);
//! assert_eq!(data.clean_cells.n_missing_cells(), 0); // ground truth retained
//! ```

#![forbid(unsafe_code)]

pub mod inject;
pub mod model;
pub mod registry;

pub use registry::{generate, spec_by_name, specs, DatasetSpec};

use cleanml_cleaning::ErrorType;
use cleanml_dataset::Table;

/// A generated dataset: the dirty table handed to experiments plus the
/// ground truth the paper lacked.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Dataset name (paper Table 3), possibly suffixed with a mislabel
    /// injection strategy (e.g. `EEGuniform`).
    pub name: String,
    /// The dirty table experiments run on.
    pub dirty: Table,
    /// Cell-level ground truth, row-aligned with `dirty`: missing cells
    /// filled, outlier cells restored, inconsistent spellings canonical,
    /// labels correct. Injected duplicate rows appear here too (aligned),
    /// flagged in [`GeneratedDataset::duplicate_rows`].
    pub clean_cells: Table,
    /// `dirty` row indices that are injected duplicates of an earlier row.
    pub duplicate_rows: Vec<usize>,
    /// `dirty` row indices whose label is wrong.
    pub mislabeled_rows: Vec<usize>,
    /// Error types present (paper Table 3 row).
    pub error_types: Vec<ErrorType>,
    /// Whether the study scores this dataset with F1 instead of accuracy.
    pub imbalanced: bool,
}

impl GeneratedDataset {
    /// `true` if the dataset carries errors of `et`.
    pub fn has_error(&self, et: ErrorType) -> bool {
        self.error_types.contains(&et)
    }
}

/// Mislabel injection strategies (paper §III-B5, following García et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MislabelStrategy {
    /// Flip 5% of the labels in each class.
    Uniform,
    /// Flip 5% of the labels in the majority class.
    Majority,
    /// Flip 5% of the labels in the minority class.
    Minority,
}

impl MislabelStrategy {
    /// All three strategies.
    pub fn all() -> [MislabelStrategy; 3] {
        [MislabelStrategy::Uniform, MislabelStrategy::Majority, MislabelStrategy::Minority]
    }

    /// Suffix used in dataset-variant names (paper Table 13: `EEGuniform`).
    pub fn suffix(&self) -> &'static str {
        match self {
            MislabelStrategy::Uniform => "uniform",
            MislabelStrategy::Majority => "major",
            MislabelStrategy::Minority => "minor",
        }
    }
}

/// The four datasets that receive synthetic mislabel injection
/// (paper §III-B5; Clothing has real mislabels).
pub const MISLABEL_INJECTION_DATASETS: [&str; 4] = ["EEG", "Marketing", "Titanic", "USCensus"];

/// Fraction of labels flipped per strategy (paper: 5%).
pub const MISLABEL_RATE: f64 = 0.05;

/// Produces the mislabel variant of a generated dataset (e.g. `EEGuniform`)
/// by flipping labels per `strategy`. The input must be mislabel-free.
pub fn inject_mislabel_variant(
    base: &GeneratedDataset,
    strategy: MislabelStrategy,
    seed: u64,
) -> GeneratedDataset {
    inject::mislabel_variant(base, strategy, MISLABEL_RATE, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names() {
        assert_eq!(MislabelStrategy::Uniform.suffix(), "uniform");
        assert_eq!(MislabelStrategy::all().len(), 3);
    }
}
