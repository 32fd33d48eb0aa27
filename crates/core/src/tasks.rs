//! Pure task units of the §IV-A protocol.
//!
//! The experiment for one dataset × error type decomposes into a DAG of
//! side-effect-free, `Send` steps — exactly the decomposition
//! `cleanml-engine` schedules across its worker pool:
//!
//! ```text
//! GenerateDataset ──► DatasetContext
//!        │
//!        ├─► Split(s) ────────────► Train(dirty, model k)   (per model)
//!        │      │                          │
//!        │      └─► Clean(method m) ─► Train(clean, m, k)   (per model)
//!        │                 │                │
//!        │                 └────────────────┴─► Evaluate(s, m, k) = CellEval
//! ```
//!
//! Every function here is deterministic in its explicit seed arguments; the
//! serial runner ([`crate::runner::evaluate_grid_with`]) calls the same
//! units in a nested loop, so an engine run with any worker count produces
//! byte-identical cells by construction.
//!
//! Seed discipline (matching the original in-line runner):
//! `fit_seed = cfg.fit_seed(split)`; the dirty-side model `k` trains with
//! `fit_seed + k`; cleaning method `m` fits with `fit_seed + 1000 + m`; the
//! clean-side model `(m, k)` trains with `fit_seed + 2000 + m·n_models + k`.

use cleanml_cleaning::{clean_pair, CleaningMethod, ErrorType};
use cleanml_datagen::GeneratedDataset;
use cleanml_dataset::{Encoder, FeatureMatrix, Table};
use cleanml_ml::cv::{random_search_with_plan, FoldPlan};
use cleanml_ml::{FittedModel, Metric, ModelKind};

use crate::config::ExperimentConfig;
use crate::runner::{label_classes, metric_for, CellEval, Result};

/// Per-dataset facts shared by every downstream task: the scoring metric and
/// the label-class vocabulary (fit once on the full dirty table so encoders
/// of all splits agree).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetContext {
    pub metric: Metric,
    pub classes: Vec<String>,
}

/// Derives the [`DatasetContext`] for a generated dataset.
pub fn dataset_context(data: &GeneratedDataset) -> Result<DatasetContext> {
    Ok(DatasetContext { metric: metric_for(data)?, classes: label_classes(&data.dirty)? })
}

/// Output of the `Split` task: the seeded 70/30 partition plus the
/// dirty-side baseline artifacts every method shares.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitArtifact {
    /// Raw dirty training partition (input to cleaning).
    pub train0: Table,
    /// Raw dirty test partition (input to cleaning).
    pub test0: Table,
    /// The "dirty" training baseline: deletion-repaired for missing values
    /// (paper Table 5), the raw partition otherwise.
    pub dirty_train: Table,
    /// Encoder fit on the dirty training baseline.
    pub enc_dirty: Encoder,
    /// The encoded dirty training matrix (input to dirty-side training).
    pub dirty_matrix: FeatureMatrix,
}

/// `Split` task: partitions the dirty table for split `s` and prepares the
/// dirty-side baseline.
pub fn make_split(
    data: &GeneratedDataset,
    error_type: ErrorType,
    ctx: &DatasetContext,
    cfg: &ExperimentConfig,
    split: usize,
) -> Result<SplitArtifact> {
    let (train0, test0) = data.dirty.split(cfg.test_fraction, cfg.split_seed(split))?;
    let dirty_train = match error_type {
        ErrorType::MissingValues => train0.drop_rows_with_missing(),
        _ => train0.clone(),
    };
    let enc_dirty = Encoder::fit_with_classes(&dirty_train, &ctx.classes)?;
    let dirty_matrix = enc_dirty.transform(&dirty_train)?;
    Ok(SplitArtifact { train0, test0, dirty_train, enc_dirty, dirty_matrix })
}

/// Output of the `Clean(method)` task: every encoded matrix the method's
/// train/evaluate steps consume.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanArtifact {
    /// Cleaned training matrix (clean-side training input).
    pub clean_train_m: FeatureMatrix,
    /// Cleaned test matrix under the clean-side encoder (case D).
    pub clean_test_m: FeatureMatrix,
    /// Dirty test matrix under the clean-side encoder (case C; absent for
    /// missing values where only scenario BD exists).
    pub dirty_test_m: Option<FeatureMatrix>,
    /// Cleaned test matrix under the *dirty-side* encoder (case B).
    pub clean_test_for_dirty: FeatureMatrix,
}

/// `Clean(method)` task: fits cleaning method `mi` on the training partition,
/// applies it to both partitions and encodes every evaluation matrix.
pub fn make_clean(
    method: &CleaningMethod,
    mi: usize,
    error_type: ErrorType,
    split: &SplitArtifact,
    ctx: &DatasetContext,
    fit_seed: u64,
) -> Result<CleanArtifact> {
    let outcome =
        clean_pair(method, &split.train0, &split.test0, fit_seed.wrapping_add(1000 + mi as u64))?;
    let enc_clean = Encoder::fit_with_classes(&outcome.train, &ctx.classes)?;
    let clean_train_m = enc_clean.transform(&outcome.train)?;
    let clean_test_m = enc_clean.transform(&outcome.test)?;
    let dirty_test_m = match error_type {
        ErrorType::MissingValues => None,
        _ => Some(enc_clean.transform(&split.test0)?),
    };
    let clean_test_for_dirty = split.enc_dirty.transform(&outcome.test)?;
    Ok(CleanArtifact { clean_train_m, clean_test_m, dirty_test_m, clean_test_for_dirty })
}

/// Output of a `Train` task: a fitted model plus its validation score.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    pub model: FittedModel,
    pub val: f64,
}

/// Fits one model family with the configured search and returns the fitted
/// model plus its validation score.
///
/// The Train body builds one [`FoldPlan`] for its `(n_rows, cv_folds,
/// seed)` key and scores every search candidate against it, so the fold
/// matrices (and their argsort sidecars) are materialized once per Train
/// task instead of once per candidate.
pub fn fit_scored(
    kind: ModelKind,
    data: &FeatureMatrix,
    cfg: &ExperimentConfig,
    metric: Metric,
    seed: u64,
) -> Result<TrainedModel> {
    let plan = FoldPlan::new(data, cfg.search.cv_folds, seed)?;
    let search = random_search_with_plan(kind, &plan, cfg.search, seed, metric)?;
    let model = search.spec.fit(data, seed)?;
    Ok(TrainedModel { model, val: search.val_score })
}

/// Scores a fitted model on an encoded matrix.
pub fn score_model(model: &FittedModel, data: &FeatureMatrix, metric: Metric) -> Result<f64> {
    let preds = model.predict(data)?;
    Ok(metric.score(data.labels(), &preds))
}

/// `Train(model, dirty)` task: model family `ki` on the dirty baseline.
pub fn train_dirty(
    kind: ModelKind,
    ki: usize,
    split: &SplitArtifact,
    ctx: &DatasetContext,
    cfg: &ExperimentConfig,
    fit_seed: u64,
) -> Result<TrainedModel> {
    fit_scored(kind, &split.dirty_matrix, cfg, ctx.metric, fit_seed.wrapping_add(ki as u64))
}

/// `Train(model, clean(method))` task: model family `ki` on method `mi`'s
/// cleaned training set.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's seed discipline
pub fn train_clean(
    kind: ModelKind,
    ki: usize,
    mi: usize,
    n_models: usize,
    clean: &CleanArtifact,
    ctx: &DatasetContext,
    cfg: &ExperimentConfig,
    fit_seed: u64,
) -> Result<TrainedModel> {
    fit_scored(
        kind,
        &clean.clean_train_m,
        cfg,
        ctx.metric,
        fit_seed.wrapping_add(2000 + (mi * n_models + ki) as u64),
    )
}

/// `Evaluate` task: scores the trained pair on cases B, C and D to produce
/// one grid cell.
pub fn evaluate_cell(
    dirty: &TrainedModel,
    clean: &TrainedModel,
    artifact: &CleanArtifact,
    ctx: &DatasetContext,
) -> Result<CellEval> {
    let acc_d = score_model(&clean.model, &artifact.clean_test_m, ctx.metric)?;
    let acc_c = match &artifact.dirty_test_m {
        Some(m) => Some(score_model(&clean.model, m, ctx.metric)?),
        None => None,
    };
    let acc_b = score_model(&dirty.model, &artifact.clean_test_for_dirty, ctx.metric)?;
    Ok(CellEval { val_dirty: dirty.val, val_clean: clean.val, acc_b, acc_c, acc_d })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_datagen::{generate, spec_by_name};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn artifacts_are_send_and_sync() {
        assert_send_sync::<DatasetContext>();
        assert_send_sync::<SplitArtifact>();
        assert_send_sync::<CleanArtifact>();
        assert_send_sync::<TrainedModel>();
    }

    #[test]
    fn task_units_compose_into_a_cell() {
        let data = generate(spec_by_name("Sensor").unwrap(), 11);
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        let ctx = dataset_context(&data).unwrap();
        let et = ErrorType::Outliers;
        let method = CleaningMethod::catalogue(et)[0];
        let kind = cleanml_ml::ModelKind::DecisionTree;

        let split = make_split(&data, et, &ctx, &cfg, 0).unwrap();
        let fit_seed = cfg.fit_seed(0);
        let clean = make_clean(&method, 0, et, &split, &ctx, fit_seed).unwrap();
        let dm = train_dirty(kind, 0, &split, &ctx, &cfg, fit_seed).unwrap();
        let cm = train_clean(kind, 0, 0, 1, &clean, &ctx, &cfg, fit_seed).unwrap();
        let cell = evaluate_cell(&dm, &cm, &clean, &ctx).unwrap();
        assert!((0.0..=1.0).contains(&cell.acc_b));
        assert!((0.0..=1.0).contains(&cell.acc_d));
        assert!(cell.acc_c.is_some(), "outliers support scenario CD");
    }

    #[test]
    fn task_units_deterministic() {
        let data = generate(spec_by_name("Sensor").unwrap(), 13);
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        let ctx = dataset_context(&data).unwrap();
        let et = ErrorType::Outliers;
        let method = CleaningMethod::catalogue(et)[0];
        let kind = cleanml_ml::ModelKind::NaiveBayes;
        let fit_seed = cfg.fit_seed(1);

        let run = || {
            let split = make_split(&data, et, &ctx, &cfg, 1).unwrap();
            let clean = make_clean(&method, 0, et, &split, &ctx, fit_seed).unwrap();
            let dm = train_dirty(kind, 0, &split, &ctx, &cfg, fit_seed).unwrap();
            let cm = train_clean(kind, 0, 0, 1, &clean, &ctx, &cfg, fit_seed).unwrap();
            evaluate_cell(&dm, &cm, &clean, &ctx).unwrap()
        };
        assert_eq!(run(), run());
    }
}
