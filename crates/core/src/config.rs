//! Experiment configuration: how faithfully (and expensively) to run the
//! paper's protocol.

use cleanml_ml::cv::SearchBudget;

/// Controls splits, tuning effort and significance level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of train/test splits aggregated per experiment (paper: 20).
    pub n_splits: usize,
    /// Test fraction (paper: 0.3).
    pub test_fraction: f64,
    /// Hyper-parameter search budget per model fit.
    pub search: SearchBudget,
    /// Significance level α (paper: 0.05).
    pub alpha: f64,
    /// Base seed; split `s` uses `base_seed + s`.
    pub base_seed: u64,
}

impl ExperimentConfig {
    /// CI-friendly: 6 splits, no tuning, 2-fold validation scores.
    pub fn quick() -> Self {
        ExperimentConfig {
            n_splits: 6,
            test_fraction: 0.3,
            search: SearchBudget { n_candidates: 1, cv_folds: 2 },
            alpha: cleanml_stats::ALPHA,
            base_seed: 1,
        }
    }

    /// The harness default: the paper's 20 splits with default
    /// hyper-parameters scored by 2-fold validation.
    pub fn standard() -> Self {
        ExperimentConfig {
            n_splits: 20,
            search: SearchBudget { n_candidates: 1, cv_folds: 2 },
            ..Self::quick()
        }
    }

    /// Paper-faithful: 20 splits, random search with 5-fold CV. Expensive.
    pub fn paper() -> Self {
        ExperimentConfig { n_splits: 20, search: SearchBudget::paper(), ..Self::quick() }
    }

    /// Seed for split `s`.
    pub fn split_seed(&self, s: usize) -> u64 {
        self.base_seed.wrapping_add(s as u64)
    }

    /// Model-fit seed for split `s` (decorrelated from the split seed).
    pub fn fit_seed(&self, s: usize) -> u64 {
        self.split_seed(s).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(ExperimentConfig::standard().n_splits, 20);
        assert_eq!(ExperimentConfig::paper().search, SearchBudget::paper());
        assert!(ExperimentConfig::quick().n_splits < 20);
        assert_eq!(ExperimentConfig::default(), ExperimentConfig::standard());
    }

    #[test]
    fn seeds_distinct_per_split() {
        let cfg = ExperimentConfig::quick();
        assert_ne!(cfg.split_seed(0), cfg.split_seed(1));
        assert_ne!(cfg.fit_seed(0), cfg.fit_seed(1));
        assert_ne!(cfg.split_seed(2), cfg.fit_seed(2));
    }
}
