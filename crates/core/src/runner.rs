//! The experiment runner: paper §IV-A's four-step protocol over an
//! evaluation grid.
//!
//! For one dataset and error type, [`evaluate_grid`] executes, per split:
//!
//! 1. **Split** — 70/30, seeded (identical partition for dirty and clean).
//! 2. **Clean** — every cleaning method of the Table 2 catalogue is fit on
//!    the training partition and applied to both partitions.
//! 3. **Train** — for every model family: one model on the dirty training
//!    set (shared across methods — it doesn't depend on the repair) and one
//!    on each method's cleaned training set, each with the configured
//!    hyper-parameter search and a validation score.
//! 4. **Evaluate** — case B (dirty-train model on cleaned test), case C
//!    (clean-train model on dirty test) and case D (clean-train model on
//!    cleaned test).
//!
//! The resulting [`EvalGrid`] contains everything needed to derive the R1,
//! R2 and R3 relations *without re-running any training*: R1 reads cells
//! directly, R2 selects the best model per split by validation score, R3
//! additionally selects the cleaning method (paper §IV-A, modifications for
//! s2/s3).
//!
//! Missing values follow the paper's special protocol (Table 5): the
//! "dirty" training set is the deletion-repaired one, and only scenario BD
//! exists.

use cleanml_cleaning::{CleaningMethod, ErrorType};
use cleanml_datagen::GeneratedDataset;
use cleanml_dataset::{Encoder, Table};
use cleanml_ml::{FittedModel, Metric, ModelKind, PAPER_MODELS};
use cleanml_stats::{flag_from_tests, paired_t_test, Flag};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::schema::{Evidence, Row1, Row2, Row3, Scenario, Spec1};
use crate::tasks::{self, DatasetContext, TrainedModel};

/// Result alias for study execution.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Measurements for one (split, method, model) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellEval {
    /// Validation score of the model trained on the dirty training set.
    pub val_dirty: f64,
    /// Validation score of the model trained on the cleaned training set.
    pub val_clean: f64,
    /// Case B: dirty-train model on the cleaned test set.
    pub acc_b: f64,
    /// Case C: clean-train model on the dirty test set (absent for missing
    /// values, where only scenario BD exists).
    pub acc_c: Option<f64>,
    /// Case D: clean-train model on the cleaned test set.
    pub acc_d: f64,
}

/// The full evaluation grid for one dataset × error type.
#[derive(Debug, Clone)]
pub struct EvalGrid {
    pub dataset: String,
    pub error_type: ErrorType,
    pub methods: Vec<CleaningMethod>,
    pub models: Vec<ModelKind>,
    pub metric: Metric,
    pub n_splits: usize,
    /// `cells[split][method][model]`.
    cells: Vec<Vec<Vec<CellEval>>>,
}

/// The scoring metric for a dataset: accuracy, or F1 of the minority class
/// for imbalanced datasets (paper §IV-A step 4).
pub fn metric_for(data: &GeneratedDataset) -> Result<Metric> {
    if !data.imbalanced {
        return Ok(Metric::Accuracy);
    }
    let classes = label_classes(&data.dirty)?;
    let counts = data.dirty.class_counts()?;
    // Map ids to names, find minority, then its index in the sorted classes.
    let label_col = data.dirty.label_index()?;
    let col = data.dirty.column(label_col)?;
    let minority = counts
        .iter()
        .min_by_key(|&&(_, n)| n)
        .and_then(|&(id, _)| col.dict_str(id))
        .ok_or_else(|| CoreError::Stats("no classes observed".into()))?;
    let positive = classes.iter().position(|c| c == minority).expect("minority class is observed");
    Ok(Metric::F1 { positive })
}

/// Sorted label-class vocabulary of a table.
pub fn label_classes(table: &Table) -> Result<Vec<String>> {
    let label_col = table.label_index()?;
    let col = table.column(label_col)?;
    let counts = col.category_counts();
    let mut classes: Vec<String> = counts
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(id, _)| col.dict_str(id as u32).expect("observed id").to_owned())
        .collect();
    classes.sort();
    Ok(classes)
}

/// Evaluates one split; returns `cells[method][model]`.
///
/// This is the serial composition of the pure task units in
/// [`crate::tasks`] — the engine schedules exactly the same units across a
/// worker pool, so both paths produce identical cells.
fn eval_split(
    data: &GeneratedDataset,
    error_type: ErrorType,
    methods: &[CleaningMethod],
    models: &[ModelKind],
    ctx: &DatasetContext,
    cfg: &ExperimentConfig,
    split: usize,
) -> Result<Vec<Vec<CellEval>>> {
    let split_art = tasks::make_split(data, error_type, ctx, cfg, split)?;
    let fit_seed = cfg.fit_seed(split);

    // Dirty-side models are method-independent: fit once.
    let dirty_models: Vec<TrainedModel> = models
        .iter()
        .enumerate()
        .map(|(ki, &kind)| tasks::train_dirty(kind, ki, &split_art, ctx, cfg, fit_seed))
        .collect::<Result<_>>()?;

    let mut out = Vec::with_capacity(methods.len());
    for (mi, method) in methods.iter().enumerate() {
        let clean = tasks::make_clean(method, mi, error_type, &split_art, ctx, fit_seed)?;
        let mut row = Vec::with_capacity(models.len());
        for (ki, &kind) in models.iter().enumerate() {
            let clean_model =
                tasks::train_clean(kind, ki, mi, models.len(), &clean, ctx, cfg, fit_seed)?;
            row.push(tasks::evaluate_cell(&dirty_models[ki], &clean_model, &clean, ctx)?);
        }
        out.push(row);
    }
    Ok(out)
}

/// Runs the full grid for one dataset × error type with the Table 2 method
/// catalogue and the paper's seven models.
pub fn evaluate_grid(
    data: &GeneratedDataset,
    error_type: ErrorType,
    cfg: &ExperimentConfig,
) -> Result<EvalGrid> {
    evaluate_grid_with(data, error_type, &CleaningMethod::catalogue(error_type), &PAPER_MODELS, cfg)
}

/// Runs the grid with explicit method/model subsets (used by the focused
/// single-experiment API and the ablation benches).
pub fn evaluate_grid_with(
    data: &GeneratedDataset,
    error_type: ErrorType,
    methods: &[CleaningMethod],
    models: &[ModelKind],
    cfg: &ExperimentConfig,
) -> Result<EvalGrid> {
    if methods.is_empty() || models.is_empty() {
        return Err(CoreError::Unsupported("empty method or model list".into()));
    }
    let ctx = tasks::dataset_context(data)?;

    let cells = (0..cfg.n_splits)
        .map(|s| eval_split(data, error_type, methods, models, &ctx, cfg, s))
        .collect::<Result<Vec<_>>>()?;

    Ok(EvalGrid {
        dataset: data.name.clone(),
        error_type,
        methods: methods.to_vec(),
        models: models.to_vec(),
        metric: ctx.metric,
        n_splits: cfg.n_splits,
        cells,
    })
}

impl EvalGrid {
    /// Assembles a grid from externally computed cells
    /// (`cells[split][method][model]`) — the engine's reduction step.
    pub fn from_parts(
        dataset: String,
        error_type: ErrorType,
        methods: Vec<CleaningMethod>,
        models: Vec<ModelKind>,
        metric: Metric,
        cells: Vec<Vec<Vec<CellEval>>>,
    ) -> Result<Self> {
        let n_splits = cells.len();
        if n_splits == 0 || methods.is_empty() || models.is_empty() {
            return Err(CoreError::Unsupported("empty grid dimensions".into()));
        }
        for per_split in &cells {
            if per_split.len() != methods.len()
                || per_split.iter().any(|row| row.len() != models.len())
            {
                return Err(CoreError::Unsupported(
                    "cells shape does not match methods × models".into(),
                ));
            }
        }
        Ok(EvalGrid { dataset, error_type, methods, models, metric, n_splits, cells })
    }
}

fn evidence(before: &[f64], after: &[f64]) -> Result<(Flag, Evidence)> {
    let t = paired_t_test(after, before)?;
    let flag = flag_from_tests(&t, cleanml_stats::ALPHA);
    Ok((
        flag,
        Evidence {
            p_two: t.p_two,
            p_upper: t.p_upper,
            p_lower: t.p_lower,
            mean_before: before.iter().sum::<f64>() / before.len() as f64,
            mean_after: after.iter().sum::<f64>() / after.len() as f64,
            n_splits: before.len(),
        },
    ))
}

impl EvalGrid {
    /// Cell accessor (`split`, `method`, `model`).
    pub fn cell(&self, split: usize, method: usize, model: usize) -> &CellEval {
        &self.cells[split][method][model]
    }

    /// Scenarios this grid supports.
    pub fn scenarios(&self) -> &'static [Scenario] {
        Scenario::for_error(self.error_type)
    }

    /// Derives all R1 rows (one per method × model × scenario).
    pub fn r1_rows(&self) -> Result<Vec<Row1>> {
        let mut rows = Vec::new();
        for (mi, method) in self.methods.iter().enumerate() {
            for (ki, &model) in self.models.iter().enumerate() {
                for &scenario in self.scenarios() {
                    let mut before = Vec::with_capacity(self.n_splits);
                    let mut after = Vec::with_capacity(self.n_splits);
                    for s in 0..self.n_splits {
                        let c = self.cell(s, mi, ki);
                        match scenario {
                            Scenario::BD => {
                                before.push(c.acc_b);
                                after.push(c.acc_d);
                            }
                            Scenario::CD => {
                                before.push(c.acc_c.expect("CD exists for this error type"));
                                after.push(c.acc_d);
                            }
                        }
                    }
                    let (flag, evidence) = evidence_pairs(&before, &after)?;
                    rows.push(Row1 {
                        dataset: self.dataset.clone(),
                        error_type: self.error_type,
                        detection: method.detection,
                        repair: method.repair,
                        model,
                        scenario,
                        flag,
                        evidence,
                    });
                }
            }
        }
        Ok(rows)
    }

    /// Derives all R2 rows (model selected per split by validation score).
    pub fn r2_rows(&self) -> Result<Vec<Row2>> {
        let mut rows = Vec::new();
        for (mi, method) in self.methods.iter().enumerate() {
            for &scenario in self.scenarios() {
                let mut before = Vec::with_capacity(self.n_splits);
                let mut after = Vec::with_capacity(self.n_splits);
                for s in 0..self.n_splits {
                    let best_dirty = self.argmax_model(s, mi, |c| c.val_dirty);
                    let best_clean = self.argmax_model(s, mi, |c| c.val_clean);
                    let cd = self.cell(s, mi, best_dirty);
                    let cc = self.cell(s, mi, best_clean);
                    match scenario {
                        Scenario::BD => {
                            before.push(cd.acc_b);
                            after.push(cc.acc_d);
                        }
                        Scenario::CD => {
                            before.push(cc.acc_c.expect("CD exists"));
                            after.push(cc.acc_d);
                        }
                    }
                }
                let (flag, evidence) = evidence_pairs(&before, &after)?;
                rows.push(Row2 {
                    dataset: self.dataset.clone(),
                    error_type: self.error_type,
                    detection: method.detection,
                    repair: method.repair,
                    scenario,
                    flag,
                    evidence,
                });
            }
        }
        Ok(rows)
    }

    /// Derives all R3 rows (model + cleaning method selected per split).
    pub fn r3_rows(&self) -> Result<Vec<Row3>> {
        let mut rows = Vec::new();
        for &scenario in self.scenarios() {
            let mut before = Vec::with_capacity(self.n_splits);
            let mut after = Vec::with_capacity(self.n_splits);
            for s in 0..self.n_splits {
                // Select (method, model) with the best clean-side validation.
                let (best_mi, best_ki) = self.argmax_method_model(s);
                let best_dirty = self.argmax_model(s, best_mi, |c| c.val_dirty);
                let chosen = self.cell(s, best_mi, best_ki);
                match scenario {
                    Scenario::BD => {
                        before.push(self.cell(s, best_mi, best_dirty).acc_b);
                        after.push(chosen.acc_d);
                    }
                    Scenario::CD => {
                        before.push(chosen.acc_c.expect("CD exists"));
                        after.push(chosen.acc_d);
                    }
                }
            }
            let (flag, evidence) = evidence_pairs(&before, &after)?;
            rows.push(Row3 {
                dataset: self.dataset.clone(),
                error_type: self.error_type,
                scenario,
                flag,
                evidence,
            });
        }
        Ok(rows)
    }

    fn argmax_model(&self, split: usize, method: usize, key: impl Fn(&CellEval) -> f64) -> usize {
        (0..self.models.len())
            .max_by(|&a, &b| {
                key(self.cell(split, method, a))
                    .partial_cmp(&key(self.cell(split, method, b)))
                    .expect("finite scores")
                    .then(b.cmp(&a)) // ties -> earlier model (paper listing order)
            })
            .expect("non-empty models")
    }

    fn argmax_method_model(&self, split: usize) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        let mut best_val = f64::NEG_INFINITY;
        for mi in 0..self.methods.len() {
            for ki in 0..self.models.len() {
                let v = self.cell(split, mi, ki).val_clean;
                if v > best_val {
                    best_val = v;
                    best = (mi, ki);
                }
            }
        }
        best
    }
}

fn evidence_pairs(before: &[f64], after: &[f64]) -> Result<(Flag, Evidence)> {
    evidence(before, after)
}

/// Result of selecting and scoring the best model family on a train/test
/// table pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestEval {
    /// Winning model family.
    pub kind: ModelKind,
    /// Its validation score on the training table.
    pub val: f64,
    /// Its test-table score.
    pub acc: f64,
}

/// Selects the best model family from `pool` by validation score on `train`
/// (paper §IV-A, s2 modification) and scores it on `test`.
pub fn best_model_eval(
    train: &Table,
    test: &Table,
    pool: &[ModelKind],
    metric: Metric,
    classes: &[String],
    cfg: &ExperimentConfig,
    seed: u64,
) -> Result<BestEval> {
    if pool.is_empty() {
        return Err(CoreError::Unsupported("empty model pool".into()));
    }
    let enc = Encoder::fit_with_classes(train, classes)?;
    let train_m = enc.transform(train)?;
    let test_m = enc.transform(test)?;
    let mut best: Option<(ModelKind, f64, FittedModel)> = None;
    for (ki, &kind) in pool.iter().enumerate() {
        let trained = tasks::fit_scored(kind, &train_m, cfg, metric, seed.wrapping_add(ki as u64))?;
        if best.as_ref().is_none_or(|(_, bv, _)| trained.val > *bv) {
            best = Some((kind, trained.val, trained.model));
        }
    }
    let (kind, val, model) = best.expect("pool non-empty");
    let acc = tasks::score_model(&model, &test_m, metric)?;
    Ok(BestEval { kind, val, acc })
}

/// Outcome of a single focused experiment (the facade's quickstart API).
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    pub flag: Flag,
    pub evidence: Evidence,
    /// Per-split `(before, after)` metric pairs (paper Table 10).
    pub pairs: Vec<(f64, f64)>,
}

/// Runs one R1 experiment specification end to end (paper Example 4.1).
pub fn run_r1_experiment(
    data: &GeneratedDataset,
    spec: &Spec1,
    cfg: &ExperimentConfig,
) -> Result<ExperimentOutcome> {
    if !Scenario::for_error(spec.error_type).contains(&spec.scenario) {
        return Err(CoreError::Unsupported(format!(
            "scenario {} not defined for {}",
            spec.scenario, spec.error_type
        )));
    }
    let method = CleaningMethod {
        error_type: spec.error_type,
        detection: spec.detection,
        repair: spec.repair,
    };
    let grid = evaluate_grid_with(data, spec.error_type, &[method], &[spec.model], cfg)?;
    let mut pairs = Vec::with_capacity(cfg.n_splits);
    for s in 0..cfg.n_splits {
        let c = grid.cell(s, 0, 0);
        let before = match spec.scenario {
            Scenario::BD => c.acc_b,
            Scenario::CD => c.acc_c.expect("validated above"),
        };
        pairs.push((before, c.acc_d));
    }
    let before: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let after: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (flag, evidence) = evidence_pairs(&before, &after)?;
    Ok(ExperimentOutcome { flag, evidence, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_cleaning::{Detection, Repair};
    use cleanml_datagen::{generate, spec_by_name};

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig { n_splits: 4, ..ExperimentConfig::quick() }
    }

    #[test]
    fn metric_selection() {
        let eeg = generate(spec_by_name("EEG").unwrap(), 1);
        assert_eq!(metric_for(&eeg).unwrap(), Metric::Accuracy);
        let credit = generate(spec_by_name("Credit").unwrap(), 1);
        assert!(matches!(metric_for(&credit).unwrap(), Metric::F1 { .. }));
    }

    #[test]
    fn single_experiment_outliers() {
        let data = generate(spec_by_name("EEG").unwrap(), 42);
        let spec = Spec1 {
            dataset: "EEG".into(),
            error_type: ErrorType::Outliers,
            detection: Detection::Iqr,
            repair: Repair::ImputeMean,
            model: ModelKind::LogisticRegression,
            scenario: Scenario::BD,
        };
        let out = run_r1_experiment(&data, &spec, &quick_cfg()).unwrap();
        assert_eq!(out.pairs.len(), 4);
        for (b, d) in &out.pairs {
            assert!((0.0..=1.0).contains(b) && (0.0..=1.0).contains(d));
        }
    }

    #[test]
    fn cd_rejected_for_missing_values() {
        let data = generate(spec_by_name("Titanic").unwrap(), 42);
        let spec = Spec1 {
            dataset: "Titanic".into(),
            error_type: ErrorType::MissingValues,
            detection: Detection::Empty,
            repair: Repair::MeanMode,
            model: ModelKind::NaiveBayes,
            scenario: Scenario::CD,
        };
        assert!(matches!(
            run_r1_experiment(&data, &spec, &quick_cfg()),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn grid_row_counts() {
        let data = generate(spec_by_name("Sensor").unwrap(), 7);
        let methods = CleaningMethod::catalogue(ErrorType::Outliers);
        let models = [ModelKind::DecisionTree, ModelKind::NaiveBayes];
        let cfg = quick_cfg();
        let grid =
            evaluate_grid_with(&data, ErrorType::Outliers, &methods[..2], &models, &cfg).unwrap();
        // 2 methods × 2 models × 2 scenarios
        assert_eq!(grid.r1_rows().unwrap().len(), 8);
        // 2 methods × 2 scenarios
        assert_eq!(grid.r2_rows().unwrap().len(), 4);
        // 2 scenarios
        assert_eq!(grid.r3_rows().unwrap().len(), 2);
    }

    #[test]
    fn grid_missing_values_bd_only() {
        let data = generate(spec_by_name("Titanic").unwrap(), 3);
        let methods = &CleaningMethod::catalogue(ErrorType::MissingValues)[..2];
        let models = [ModelKind::NaiveBayes];
        let cfg = quick_cfg();
        let grid =
            evaluate_grid_with(&data, ErrorType::MissingValues, methods, &models, &cfg).unwrap();
        let rows = grid.r1_rows().unwrap();
        assert_eq!(rows.len(), 2); // 2 methods × 1 model × BD only
        assert!(rows.iter().all(|r| r.scenario == Scenario::BD));
        // cells carry no acc_c
        assert!(grid.cell(0, 0, 0).acc_c.is_none());
    }

    #[test]
    fn deterministic_grid() {
        let data = generate(spec_by_name("Sensor").unwrap(), 5);
        let methods = [CleaningMethod::catalogue(ErrorType::Outliers)[0]];
        let models = [ModelKind::DecisionTree];
        let cfg = quick_cfg();
        let g1 = evaluate_grid_with(&data, ErrorType::Outliers, &methods, &models, &cfg).unwrap();
        let g2 = evaluate_grid_with(&data, ErrorType::Outliers, &methods, &models, &cfg).unwrap();
        for s in 0..cfg.n_splits {
            assert_eq!(g1.cell(s, 0, 0), g2.cell(s, 0, 0));
        }
    }

    #[test]
    fn empty_grid_rejected() {
        let data = generate(spec_by_name("Sensor").unwrap(), 9);
        assert!(evaluate_grid_with(&data, ErrorType::Outliers, &[], &[], &quick_cfg()).is_err());
    }
}
