//! Cleaning mixed error types vs. a single error type (paper §VII-A,
//! Table 17).
//!
//! For a dataset carrying several error types, the cleaning-method space for
//! "clean everything" is the Cartesian product of each error type's Table 2
//! catalogue. Per split, both sides select their best (methods, model)
//! combination by validation score — exactly the R3 selection strategy —
//! and the paired t-test over splits yields one flag per
//! `(dataset, single error type)` comparison: **P** means cleaning all error
//! types beat cleaning only the single one.
//!
//! Combined methods are applied sequentially in a canonical order —
//! inconsistencies → duplicates → missing values → outliers — so that
//! spelling merges help duplicate detection and deduplication precedes
//! imputation statistics.

use cleanml_cleaning::{clean_pair, CleaningMethod, ErrorType};
use cleanml_datagen::GeneratedDataset;
use cleanml_dataset::Table;
use cleanml_ml::{ModelKind, PAPER_MODELS};
use cleanml_stats::{flag_from_tests, paired_t_test, Flag};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::runner::{best_model_eval, label_classes, metric_for, Result};
use crate::schema::Evidence;

/// Canonical application order for combined cleaning.
pub const MIXED_ORDER: [ErrorType; 4] = [
    ErrorType::Inconsistencies,
    ErrorType::Duplicates,
    ErrorType::MissingValues,
    ErrorType::Outliers,
];

/// Applies a sequence of cleaning methods to a train/test pair.
pub fn clean_sequence(
    methods: &[CleaningMethod],
    train: &Table,
    test: &Table,
    seed: u64,
) -> Result<(Table, Table)> {
    let mut tr = train.clone();
    let mut te = test.clone();
    for (i, m) in methods.iter().enumerate() {
        let out = clean_pair(m, &tr, &te, seed.wrapping_add(i as u64))?;
        tr = out.train;
        te = out.test;
    }
    Ok((tr, te))
}

/// Cartesian product of per-error-type catalogues (each truncated to
/// `cap` methods), ordered by [`MIXED_ORDER`].
pub fn mixed_method_space(error_types: &[ErrorType], cap: usize) -> Vec<Vec<CleaningMethod>> {
    let ordered: Vec<ErrorType> =
        MIXED_ORDER.iter().copied().filter(|et| error_types.contains(et)).collect();
    let mut combos: Vec<Vec<CleaningMethod>> = vec![Vec::new()];
    for et in ordered {
        let methods: Vec<CleaningMethod> =
            CleaningMethod::catalogue(et).into_iter().take(cap.max(1)).collect();
        let mut next = Vec::with_capacity(combos.len() * methods.len());
        for combo in &combos {
            for &m in &methods {
                let mut c = combo.clone();
                c.push(m);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

/// One Table 17 comparison result.
#[derive(Debug, Clone)]
pub struct MixedComparison {
    pub dataset: String,
    pub mixed_types: Vec<ErrorType>,
    pub single_type: ErrorType,
    pub flag: Flag,
    pub evidence: Evidence,
}

/// Compares cleaning *all* of `data`'s error types against cleaning only
/// `single`, with per-split best-method/best-model selection on both sides.
///
/// `cap` truncates each error type's catalogue to bound the Cartesian
/// product (`usize::MAX` for the paper-faithful full space).
pub fn compare_mixed_vs_single(
    data: &GeneratedDataset,
    single: ErrorType,
    cap: usize,
    cfg: &ExperimentConfig,
) -> Result<MixedComparison> {
    if !data.error_types.contains(&single) {
        return Err(CoreError::Unsupported(format!("{} does not carry {}", data.name, single)));
    }
    if data.error_types.len() < 2 {
        return Err(CoreError::Unsupported(format!(
            "{} has a single error type; nothing to mix",
            data.name
        )));
    }
    let metric = metric_for(data)?;
    let classes = label_classes(&data.dirty)?;
    let pool: &[ModelKind] = &PAPER_MODELS;

    let single_space = mixed_method_space(&[single], cap);
    let mixed_space = mixed_method_space(&data.error_types, cap);

    let mut single_accs = Vec::with_capacity(cfg.n_splits);
    let mut mixed_accs = Vec::with_capacity(cfg.n_splits);
    for s in 0..cfg.n_splits {
        let (train0, test0) = data.dirty.split(cfg.test_fraction, cfg.split_seed(s))?;
        let seed = cfg.fit_seed(s);

        let best_in = |space: &[Vec<CleaningMethod>]| -> Result<f64> {
            let mut best: Option<(f64, f64)> = None; // (val, acc)
            for (ci, combo) in space.iter().enumerate() {
                let (tr, te) =
                    clean_sequence(combo, &train0, &test0, seed.wrapping_add(ci as u64))?;
                let eval = best_model_eval(
                    &tr,
                    &te,
                    pool,
                    metric,
                    &classes,
                    cfg,
                    seed.wrapping_add(ci as u64),
                )?;
                if best.is_none_or(|(bv, _)| eval.val > bv) {
                    best = Some((eval.val, eval.acc));
                }
            }
            Ok(best.expect("non-empty method space").1)
        };

        single_accs.push(best_in(&single_space)?);
        mixed_accs.push(best_in(&mixed_space)?);
    }

    let t = paired_t_test(&mixed_accs, &single_accs)?;
    let flag = flag_from_tests(&t, cfg.alpha);
    Ok(MixedComparison {
        dataset: data.name.clone(),
        mixed_types: data.error_types.clone(),
        single_type: single,
        flag,
        evidence: Evidence {
            p_two: t.p_two,
            p_upper: t.p_upper,
            p_lower: t.p_lower,
            mean_before: single_accs.iter().sum::<f64>() / single_accs.len() as f64,
            mean_after: mixed_accs.iter().sum::<f64>() / mixed_accs.len() as f64,
            n_splits: cfg.n_splits,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_datagen::{generate, spec_by_name};

    #[test]
    fn method_space_cardinality() {
        let space = mixed_method_space(&[ErrorType::MissingValues, ErrorType::Outliers], 3);
        assert_eq!(space.len(), 9);
        for combo in &space {
            assert_eq!(combo.len(), 2);
            // canonical order: missing values before outliers
            assert_eq!(combo[0].error_type, ErrorType::MissingValues);
            assert_eq!(combo[1].error_type, ErrorType::Outliers);
        }
        let full = mixed_method_space(&[ErrorType::MissingValues], usize::MAX);
        assert_eq!(full.len(), 7);
    }

    #[test]
    fn clean_sequence_composes() {
        let data = generate(spec_by_name("Credit").unwrap(), 3);
        let (train, test) = data.dirty.split(0.3, 1).unwrap();
        let combo = vec![
            CleaningMethod::catalogue(ErrorType::MissingValues)[0],
            CleaningMethod::catalogue(ErrorType::Outliers)[0],
        ];
        let (tr, te) = clean_sequence(&combo, &train, &test, 0).unwrap();
        assert_eq!(tr.n_missing_cells(), 0);
        assert_eq!(te.n_missing_cells(), 0);
    }

    #[test]
    fn single_error_dataset_rejected() {
        let data = generate(spec_by_name("EEG").unwrap(), 3);
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        assert!(matches!(
            compare_mixed_vs_single(&data, ErrorType::Outliers, 1, &cfg),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn wrong_single_type_rejected() {
        let data = generate(spec_by_name("Credit").unwrap(), 3);
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        assert!(compare_mixed_vs_single(&data, ErrorType::Duplicates, 1, &cfg).is_err());
    }

    #[test]
    fn credit_comparison_runs() {
        let data = generate(spec_by_name("Credit").unwrap(), 3);
        let cfg = ExperimentConfig { n_splits: 3, ..ExperimentConfig::quick() };
        let cmp = compare_mixed_vs_single(&data, ErrorType::Outliers, 1, &cfg).unwrap();
        assert_eq!(cmp.dataset, "Credit");
        assert_eq!(cmp.single_type, ErrorType::Outliers);
        assert_eq!(cmp.evidence.n_splits, 3);
        assert!((0.0..=1.0).contains(&cmp.evidence.mean_after));
    }
}
