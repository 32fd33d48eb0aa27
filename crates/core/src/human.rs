//! Human cleaning vs. automatic cleaning (paper §VII-C, Table 19).
//!
//! The paper's "human cleaning" obtains ground-truth values: manually filled
//! missing cells (BabyProduct), manually corrected labels (Clothing), and
//! hand-curated rules for inconsistencies. Our generators retain exactly
//! that ground truth ([`cleanml_datagen::GeneratedDataset::clean_cells`]),
//! so the human cleaner is the truth restricted to the error type's aspect.
//! Per split, both pipelines select their best model (and the automatic side
//! its best cleaning method) by validation score; **P** means human cleaning
//! beat the best automatic method.

use cleanml_cleaning::{clean_pair, CleaningMethod, ErrorType};
use cleanml_datagen::GeneratedDataset;
use cleanml_dataset::{ColumnKind, ColumnRole, Table};
use cleanml_ml::PAPER_MODELS;
use cleanml_stats::{flag_from_tests, paired_t_test, Flag};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::runner::{best_model_eval, label_classes, metric_for, Result};
use crate::schema::Evidence;

/// Produces the human-cleaned version of `data` for one error type by
/// copying the relevant ground-truth aspect onto the dirty table:
///
/// * missing values → fill every missing feature cell from the truth;
/// * mislabels → restore every label from the truth;
/// * inconsistencies → restore categorical feature / carried-text spellings;
/// * outliers → restore numeric feature cells;
/// * duplicates → drop the injected duplicate rows.
pub fn human_clean(data: &GeneratedDataset, error_type: ErrorType) -> Result<Table> {
    let mut out = data.dirty.clone();
    let truth = &data.clean_cells;
    match error_type {
        ErrorType::MissingValues => {
            for c in out.schema().feature_indices() {
                for r in data.dirty.missing_rows(c)? {
                    out.set(r, c, truth.get(r, c)?)?;
                }
            }
        }
        ErrorType::Mislabels => {
            let label = out.label_index()?;
            for r in 0..out.n_rows() {
                out.set(r, label, truth.get(r, label)?)?;
            }
        }
        ErrorType::Inconsistencies => {
            let cols: Vec<usize> = out
                .schema()
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    f.kind == ColumnKind::Categorical
                        && matches!(f.role, ColumnRole::Feature | ColumnRole::Ignore)
                })
                .map(|(i, _)| i)
                .collect();
            for c in cols {
                for r in 0..out.n_rows() {
                    out.set(r, c, truth.get(r, c)?)?;
                }
            }
        }
        ErrorType::Outliers => {
            for c in out.schema().numeric_feature_indices() {
                for r in 0..out.n_rows() {
                    out.set(r, c, truth.get(r, c)?)?;
                }
            }
        }
        ErrorType::Duplicates => {
            let dup: std::collections::HashSet<usize> =
                data.duplicate_rows.iter().copied().collect();
            let keep: Vec<bool> = (0..out.n_rows()).map(|r| !dup.contains(&r)).collect();
            out.retain_rows(&keep);
        }
    }
    Ok(out)
}

/// One Table 19 comparison result.
#[derive(Debug, Clone)]
pub struct HumanComparison {
    pub dataset: String,
    pub error_type: ErrorType,
    pub flag: Flag,
    pub evidence: Evidence,
}

/// Compares best-model-under-human-cleaning with best-model-under-the-best
/// automatic cleaning method.
pub fn compare_human_vs_automatic(
    data: &GeneratedDataset,
    error_type: ErrorType,
    cfg: &ExperimentConfig,
) -> Result<HumanComparison> {
    if !data.error_types.contains(&error_type) {
        return Err(CoreError::Unsupported(format!("{} does not carry {}", data.name, error_type)));
    }
    let metric = metric_for(data)?;
    let classes = label_classes(&data.dirty)?;
    let methods = CleaningMethod::catalogue(error_type);
    let human_table = human_clean(data, error_type)?;

    let mut auto_accs = Vec::with_capacity(cfg.n_splits);
    let mut human_accs = Vec::with_capacity(cfg.n_splits);
    for s in 0..cfg.n_splits {
        let (train0, test0) = data.dirty.split(cfg.test_fraction, cfg.split_seed(s))?;
        let seed = cfg.fit_seed(s);

        // Automatic side: best (method, model) by validation.
        let mut best: Option<(f64, f64)> = None;
        for (mi, method) in methods.iter().enumerate() {
            let out = clean_pair(method, &train0, &test0, seed.wrapping_add(mi as u64))?;
            let eval = best_model_eval(
                &out.train,
                &out.test,
                &PAPER_MODELS,
                metric,
                &classes,
                cfg,
                seed.wrapping_add(100 + mi as u64),
            )?;
            if best.is_none_or(|(bv, _)| eval.val > bv) {
                best = Some((eval.val, eval.acc));
            }
        }
        auto_accs.push(best.expect("catalogue non-empty").1);

        // Human side: the same split of the ground-truth-repaired table.
        // Row alignment guarantees the identical partition for cell-level
        // errors; duplicates shrink the table, so they split independently.
        let (htrain, htest) = human_table.split(cfg.test_fraction, cfg.split_seed(s))?;
        let eval = best_model_eval(
            &htrain,
            &htest,
            &PAPER_MODELS,
            metric,
            &classes,
            cfg,
            seed.wrapping_add(999),
        )?;
        human_accs.push(eval.acc);
    }

    let t = paired_t_test(&human_accs, &auto_accs)?;
    let flag = flag_from_tests(&t, cfg.alpha);
    Ok(HumanComparison {
        dataset: data.name.clone(),
        error_type,
        flag,
        evidence: Evidence {
            p_two: t.p_two,
            p_upper: t.p_upper,
            p_lower: t.p_lower,
            mean_before: auto_accs.iter().sum::<f64>() / auto_accs.len() as f64,
            mean_after: human_accs.iter().sum::<f64>() / human_accs.len() as f64,
            n_splits: cfg.n_splits,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_datagen::{generate, inject_mislabel_variant, spec_by_name, MislabelStrategy};

    #[test]
    fn human_clean_fills_missing() {
        let data = generate(spec_by_name("BabyProduct").unwrap(), 2);
        assert!(data.dirty.n_missing_cells() > 0);
        let h = human_clean(&data, ErrorType::MissingValues).unwrap();
        assert_eq!(h.n_missing_cells(), 0);
        // non-missing cells untouched
        let col = h.schema().feature_indices()[0];
        for r in 0..5 {
            if !data.dirty.get(r, col).unwrap().is_null() {
                assert_eq!(h.get(r, col).unwrap(), data.dirty.get(r, col).unwrap());
            }
        }
    }

    #[test]
    fn human_clean_restores_labels() {
        let data = generate(spec_by_name("Clothing").unwrap(), 2);
        let h = human_clean(&data, ErrorType::Mislabels).unwrap();
        let label = h.label_index().unwrap();
        for r in 0..h.n_rows() {
            assert_eq!(h.get(r, label).unwrap(), data.clean_cells.get(r, label).unwrap());
        }
    }

    #[test]
    fn human_clean_removes_duplicates() {
        let data = generate(spec_by_name("Citation").unwrap(), 2);
        let h = human_clean(&data, ErrorType::Duplicates).unwrap();
        assert_eq!(h.n_rows(), data.dirty.n_rows() - data.duplicate_rows.len());
    }

    #[test]
    fn human_clean_restores_spellings() {
        let data = generate(spec_by_name("Company").unwrap(), 2);
        let h = human_clean(&data, ErrorType::Inconsistencies).unwrap();
        let c = h.schema().index_of("state").unwrap();
        let distinct = h.column(c).unwrap().category_counts().iter().filter(|&&n| n > 0).count();
        assert_eq!(distinct, 4, "canonical spellings restored");
    }

    #[test]
    fn comparison_runs_on_variant() {
        let base = generate(spec_by_name("Titanic").unwrap(), 2);
        let variant = inject_mislabel_variant(&base, MislabelStrategy::Uniform, 7);
        let cfg = ExperimentConfig { n_splits: 3, ..ExperimentConfig::quick() };
        let cmp = compare_human_vs_automatic(&variant, ErrorType::Mislabels, &cfg).unwrap();
        assert_eq!(cmp.error_type, ErrorType::Mislabels);
        assert_eq!(cmp.evidence.n_splits, 3);
    }

    #[test]
    fn error_type_must_be_present() {
        let data = generate(spec_by_name("EEG").unwrap(), 2);
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        assert!(compare_human_vs_automatic(&data, ErrorType::Duplicates, &cfg).is_err());
    }
}
