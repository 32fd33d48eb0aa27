//! Data cleaning vs. robust-ML approaches (paper §VII-B, Table 18).
//!
//! Instead of cleaning, one can train a model designed to tolerate the
//! dirt: **NaCL** (a logistic regression robust to missing features) for
//! missing values, or a tuned **MLP** as a generally noise-tolerant deep
//! baseline for the other error types. Per split, the cleaning side selects
//! its best cleaning method (and, depending on the row, its best model) by
//! validation score, while the robust side trains directly on the dirty
//! training partition. Both are evaluated on the same cleaned test set;
//! **P** means cleaning beat the robust model.

use cleanml_cleaning::{clean_pair, CleaningMethod, ErrorType};
use cleanml_datagen::GeneratedDataset;
use cleanml_dataset::Encoder;
use cleanml_ml::cv::random_search;
use cleanml_ml::{ModelKind, PAPER_MODELS};
use cleanml_stats::{flag_from_tests, paired_t_test, Flag};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::runner::{best_model_eval, label_classes, metric_for, Result};
use crate::schema::Evidence;

/// The robust baseline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobustBaseline {
    /// NaCL-style missing-feature-robust logistic regression.
    Nacl,
    /// Three-layer MLP (the paper's optuna-tuned deep baseline).
    Mlp,
}

impl RobustBaseline {
    fn kind(self) -> ModelKind {
        match self {
            RobustBaseline::Nacl => ModelKind::Nacl,
            RobustBaseline::Mlp => ModelKind::Mlp,
        }
    }

    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RobustBaseline::Nacl => "NaCL",
            RobustBaseline::Mlp => "MLP",
        }
    }
}

/// One Table 18 comparison result.
#[derive(Debug, Clone)]
pub struct RobustComparison {
    pub dataset: String,
    pub error_type: ErrorType,
    pub baseline: RobustBaseline,
    /// Model pool for the cleaning side (just LR for Table 18 row 1).
    pub cleaning_pool: Vec<ModelKind>,
    pub flag: Flag,
    pub evidence: Evidence,
}

/// Compares best-cleaning (+ model selection over `cleaning_pool`) against
/// `baseline` trained on the dirty data.
pub fn compare_cleaning_vs_robust(
    data: &GeneratedDataset,
    error_type: ErrorType,
    cleaning_pool: &[ModelKind],
    baseline: RobustBaseline,
    cfg: &ExperimentConfig,
) -> Result<RobustComparison> {
    if cleaning_pool.is_empty() {
        return Err(CoreError::Unsupported("empty cleaning-side model pool".into()));
    }
    let metric = metric_for(data)?;
    let classes = label_classes(&data.dirty)?;
    let methods = CleaningMethod::catalogue(error_type);

    let mut robust_accs = Vec::with_capacity(cfg.n_splits);
    let mut cleaning_accs = Vec::with_capacity(cfg.n_splits);

    for s in 0..cfg.n_splits {
        let (train0, test0) = data.dirty.split(cfg.test_fraction, cfg.split_seed(s))?;
        let seed = cfg.fit_seed(s);

        // Cleaning side: best method by validation of its best model.
        let mut best: Option<(f64, f64, cleanml_dataset::Table)> = None; // (val, acc, clean test)
        for (mi, method) in methods.iter().enumerate() {
            let out = clean_pair(method, &train0, &test0, seed.wrapping_add(mi as u64))?;
            let eval = best_model_eval(
                &out.train,
                &out.test,
                cleaning_pool,
                metric,
                &classes,
                cfg,
                seed.wrapping_add(100 + mi as u64),
            )?;
            if best.as_ref().is_none_or(|(bv, _, _)| eval.val > *bv) {
                best = Some((eval.val, eval.acc, out.test));
            }
        }
        let (_, clean_acc, chosen_test) = best.expect("catalogue non-empty");

        // Robust side: baseline trained on the *dirty* training partition,
        // evaluated on the same cleaned test set.
        let enc = Encoder::fit_with_classes(&train0, &classes)?;
        let train_m = enc.transform(&train0)?;
        let test_m = enc.transform(&chosen_test)?;
        let search = random_search(baseline.kind(), &train_m, cfg.search, seed, metric)?;
        let model = search.spec.fit(&train_m, seed)?;
        let preds = model.predict(&test_m)?;
        let robust_acc = metric.score(test_m.labels(), &preds);

        robust_accs.push(robust_acc);
        cleaning_accs.push(clean_acc);
    }

    let t = paired_t_test(&cleaning_accs, &robust_accs)?;
    let flag = flag_from_tests(&t, cfg.alpha);
    Ok(RobustComparison {
        dataset: data.name.clone(),
        error_type,
        baseline,
        cleaning_pool: cleaning_pool.to_vec(),
        flag,
        evidence: Evidence {
            p_two: t.p_two,
            p_upper: t.p_upper,
            p_lower: t.p_lower,
            mean_before: robust_accs.iter().sum::<f64>() / robust_accs.len() as f64,
            mean_after: cleaning_accs.iter().sum::<f64>() / cleaning_accs.len() as f64,
            n_splits: cfg.n_splits,
        },
    })
}

/// The paper's Table 18 row definitions for a given error type.
pub fn table18_pool(row_is_lr_only: bool) -> Vec<ModelKind> {
    if row_is_lr_only {
        vec![ModelKind::LogisticRegression]
    } else {
        PAPER_MODELS.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_datagen::{generate, spec_by_name};

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig { n_splits: 3, ..ExperimentConfig::quick() }
    }

    #[test]
    fn nacl_vs_lr_cleaning_on_missing_values() {
        let data = generate(spec_by_name("Titanic").unwrap(), 5);
        let cmp = compare_cleaning_vs_robust(
            &data,
            ErrorType::MissingValues,
            &table18_pool(true),
            RobustBaseline::Nacl,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(cmp.baseline, RobustBaseline::Nacl);
        assert_eq!(cmp.cleaning_pool, vec![ModelKind::LogisticRegression]);
        assert!((0.0..=1.0).contains(&cmp.evidence.mean_before));
        assert!((0.0..=1.0).contains(&cmp.evidence.mean_after));
    }

    #[test]
    fn mlp_vs_best_cleaning_on_outliers() {
        let data = generate(spec_by_name("Sensor").unwrap(), 5);
        // tiny pool keeps the test fast while exercising the full path
        let cmp = compare_cleaning_vs_robust(
            &data,
            ErrorType::Outliers,
            &[ModelKind::DecisionTree, ModelKind::NaiveBayes],
            RobustBaseline::Mlp,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(cmp.baseline.name(), "MLP");
        assert_eq!(cmp.evidence.n_splits, 3);
    }

    #[test]
    fn empty_pool_rejected() {
        let data = generate(spec_by_name("Sensor").unwrap(), 5);
        assert!(compare_cleaning_vs_robust(
            &data,
            ErrorType::Outliers,
            &[],
            RobustBaseline::Mlp,
            &quick_cfg(),
        )
        .is_err());
    }
}
