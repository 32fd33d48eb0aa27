//! Cross-validation and random hyper-parameter search.
//!
//! The paper's protocol (§IV-A step 3): "We perform hyper-parameter tunings
//! using standard random search and 5-fold cross validation." [`SearchBudget`]
//! controls how faithful (and how expensive) that tuning is; the study
//! harness exposes quick/standard/full presets.
//!
//! ## The fold plane
//!
//! A [`FoldPlan`] is the CV grid's shared substrate: built once per
//! `(n_rows, k, seed)` key, it owns the fold index sets and materializes
//! each fold's train/val [`FeatureMatrix`] pair lazily, exactly once, behind
//! an `OnceLock`. Every candidate of a [`random_search`] scores against the
//! *same* `Arc`'d fold matrices, so their argsort sidecars
//! ([`FeatureMatrix::sorted_cols`] / `sorted_cols_chained`) are built once
//! per fold rather than once per candidate. The `(candidate, fold)` grid
//! runs candidate-major: fit seeds depend only on the fold index and
//! candidate specs are sampled up front from the single RNG stream, so
//! scores, tie-breaking and f64 accumulation are the naive loop's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cleanml_dataset::split::kfold_indices;
use cleanml_dataset::FeatureMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::MlError;
use crate::metrics::Metric;
use crate::model::{ModelKind, ModelSpec};
use crate::Result;

/// Process-wide count of candidate×fold model fits executed by CV scoring.
static CV_FITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of fold views served from an already-materialized
/// [`FoldPlan`] slot (a `select_rows` pair + sidecar rebuild avoided).
static FOLD_REUSE: AtomicU64 = AtomicU64::new(0);

/// Total CV model fits so far (see `cleanml_cv_fits_total` in the engine's
/// metrics registry, which bridges this counter).
pub fn cv_fits_total() -> u64 {
    CV_FITS.load(Ordering::Relaxed)
}

/// Total fold-view reuses so far (see `cleanml_fold_reuse_total`).
pub fn fold_reuse_total() -> u64 {
    FOLD_REUSE.load(Ordering::Relaxed)
}

/// One fold's index sets plus its lazily-built matrix views.
struct FoldSlot {
    train_idx: Vec<usize>,
    val_idx: Vec<usize>,
    /// `None` once built ⇒ the fold is degenerate (empty side) and is
    /// skipped by every consumer, exactly like the naive loop's `continue`.
    views: OnceLock<Option<(Arc<FeatureMatrix>, Arc<FeatureMatrix>)>>,
}

/// Shared fold materialization for one `(n_rows, k, seed)` CV key.
///
/// Construction computes only the fold *index* sets ([`kfold_indices`]);
/// the per-fold train/val matrices are gathered on first use and cached,
/// so all candidates of a search score against one set of fold matrices
/// whose argsort sidecars are built once per fold.
pub struct FoldPlan<'a> {
    data: &'a FeatureMatrix,
    /// Folds actually used (requested `k` clamped to `[2, n_rows]`).
    k: usize,
    seed: u64,
    folds: Vec<FoldSlot>,
    /// Model fits scored through this plan (also aggregated process-wide
    /// into [`cv_fits_total`]).
    fits: AtomicU64,
    /// Fold views served from an already-built slot (also aggregated
    /// process-wide into [`fold_reuse_total`]).
    reuses: AtomicU64,
}

impl<'a> FoldPlan<'a> {
    /// Builds the plan for `k`-fold CV over `data` under `seed`. Errors —
    /// like [`cross_val_score`] always has — when `data` has under 2 rows.
    pub fn new(data: &'a FeatureMatrix, k: usize, seed: u64) -> Result<FoldPlan<'a>> {
        let n = data.n_rows();
        if n < 2 {
            return Err(MlError::TooFewRowsForCv { rows: n, folds: k });
        }
        let k = k.clamp(2, n);
        let folds = kfold_indices(n, k, seed)
            .into_iter()
            .map(|(train_idx, val_idx)| FoldSlot { train_idx, val_idx, views: OnceLock::new() })
            .collect();
        Ok(FoldPlan { data, k, seed, folds, fits: AtomicU64::new(0), reuses: AtomicU64::new(0) })
    }

    /// Model fits scored through this plan so far.
    pub fn fits(&self) -> u64 {
        self.fits.load(Ordering::Relaxed)
    }

    /// Fold views this plan served from an already-built slot.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Tallies one candidate×fold model fit (plan-local + process-wide).
    fn note_fit(&self) {
        self.fits.fetch_add(1, Ordering::Relaxed);
        CV_FITS.fetch_add(1, Ordering::Relaxed);
    }

    /// The full matrix the folds partition.
    pub fn data(&self) -> &FeatureMatrix {
        self.data
    }

    /// Folds in the plan (requested `k`, clamped).
    pub fn n_folds(&self) -> usize {
        self.folds.len()
    }

    /// The CV seed: fold shuffling uses it directly, fold `f` fits with
    /// `seed.wrapping_add(f)` — independent of the candidate index, which
    /// is what makes the `(candidate, fold)` grid embarrassingly parallel.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan serves a `(n_rows, k, seed)` CV request (the
    /// requested `k` is clamped the same way construction clamped it).
    pub fn matches(&self, data: &FeatureMatrix, k: usize, seed: u64) -> bool {
        std::ptr::eq(self.data, data)
            && self.seed == seed
            && self.k == k.clamp(2, data.n_rows().max(2))
    }

    /// The materialized `(train, val)` views of fold `fold_id`, building
    /// them on first use; `None` for degenerate folds. Thread-safe: under
    /// the parallel grid, concurrent first users block on the `OnceLock`
    /// while exactly one gathers the pair.
    pub fn fold(&self, fold_id: usize) -> Option<(&Arc<FeatureMatrix>, &Arc<FeatureMatrix>)> {
        let slot = &self.folds[fold_id];
        if let Some(built) = slot.views.get() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            FOLD_REUSE.fetch_add(1, Ordering::Relaxed);
            return built.as_ref().map(|(t, v)| (t, v));
        }
        slot.views
            .get_or_init(|| {
                if slot.train_idx.is_empty() || slot.val_idx.is_empty() {
                    return None;
                }
                let (train, val) = self.data.select_rows_pair(&slot.train_idx, &slot.val_idx);
                Some((Arc::new(train), Arc::new(val)))
            })
            .as_ref()
            .map(|(t, v)| (t, v))
    }

    /// The error every all-folds-degenerate consumer reports.
    fn no_usable_folds(&self) -> MlError {
        MlError::TooFewRowsForCv { rows: self.data.n_rows(), folds: self.k }
    }
}

/// How much effort to spend on hyper-parameter search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Total candidate configurations evaluated (the first is always the
    /// family default; the rest are random samples). `1` disables search.
    pub n_candidates: usize,
    /// Cross-validation folds used to score each candidate.
    pub cv_folds: usize,
}

impl SearchBudget {
    /// No tuning: defaults scored by a single CV pass (cheapest option that
    /// still yields a validation score for model selection).
    pub fn none() -> Self {
        SearchBudget { n_candidates: 1, cv_folds: 3 }
    }

    /// Small random search (3 candidates, 3-fold CV).
    pub fn small() -> Self {
        SearchBudget { n_candidates: 3, cv_folds: 3 }
    }

    /// Paper-faithful search (random candidates, 5-fold CV).
    pub fn paper() -> Self {
        SearchBudget { n_candidates: 8, cv_folds: 5 }
    }
}

/// Outcome of a hyper-parameter search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best hyper-parameters found.
    pub spec: ModelSpec,
    /// Mean validation score of the best candidate.
    pub val_score: f64,
}

/// Mean validation score of `spec` over `k`-fold cross-validation.
///
/// Folds whose training partition is degenerate still train (via the
/// constant-model fallback), so the returned score is always defined.
/// Thin wrapper: builds a single-use [`FoldPlan`] and defers to
/// [`cross_val_score_with_plan`].
pub fn cross_val_score(
    spec: &ModelSpec,
    data: &FeatureMatrix,
    k: usize,
    seed: u64,
    metric: Metric,
) -> Result<f64> {
    let plan = FoldPlan::new(data, k, seed)?;
    cross_val_score_with_plan(spec, &plan, metric)
}

/// [`cross_val_score`] against a caller-owned [`FoldPlan`]: same folds,
/// same fit seeds (`plan.seed() + fold_id`), same fold-order f64
/// accumulation — but the fold matrices come from the shared plan instead
/// of fresh `select_rows` gathers.
pub fn cross_val_score_with_plan(
    spec: &ModelSpec,
    plan: &FoldPlan<'_>,
    metric: Metric,
) -> Result<f64> {
    let mut total = 0.0;
    let mut used = 0usize;
    for fold_id in 0..plan.n_folds() {
        let Some((train, val)) = plan.fold(fold_id) else {
            continue;
        };
        let model = spec.fit(train, plan.seed().wrapping_add(fold_id as u64))?;
        plan.note_fit();
        let preds = model.predict(val)?;
        total += metric.score(val.labels(), &preds);
        used += 1;
    }
    if used == 0 {
        return Err(plan.no_usable_folds());
    }
    Ok(total / used as f64)
}

/// Random hyper-parameter search for one model family.
///
/// Candidate 0 is the family default; candidates `1..n` are random samples.
/// Each is scored by [`cross_val_score`]; the best (ties → first seen, i.e.
/// the default wins exact ties) is returned. Thin wrapper: builds a
/// single-search [`FoldPlan`] and defers to [`random_search_with_plan`],
/// so even standalone searches materialize each fold once, not once per
/// candidate.
pub fn random_search(
    kind: ModelKind,
    data: &FeatureMatrix,
    budget: SearchBudget,
    seed: u64,
    metric: Metric,
) -> Result<SearchResult> {
    let plan = FoldPlan::new(data, budget.cv_folds, seed)?;
    random_search_with_plan(kind, &plan, budget, seed, metric)
}

/// [`random_search`] against a caller-owned [`FoldPlan`] (`seed` is the
/// search seed: the candidate RNG stream is `seed ^ 0xC0FF_EE00`, exactly
/// as before; callers pass the same seed the plan was keyed with).
///
/// The `(candidate, fold)` grid runs candidate-major, fold-minor:
///
/// * candidate specs are sampled from the single RNG stream before the
///   first fit;
/// * a cell's fit seed is `plan.seed() + fold`, independent of the
///   candidate;
/// * per-candidate scores accumulate in fold order and candidates compare
///   in sample order (`>` keeps the earliest on exact ties);
/// * the first failing cell in grid order ends the search with its error.
pub fn random_search_with_plan(
    kind: ModelKind,
    plan: &FoldPlan<'_>,
    budget: SearchBudget,
    seed: u64,
    metric: Metric,
) -> Result<SearchResult> {
    let n_candidates = budget.n_candidates.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let specs: Vec<ModelSpec> =
        (0..n_candidates)
            .map(|c| {
                if c == 0 {
                    ModelSpec::default_for(kind)
                } else {
                    ModelSpec::sample(kind, &mut rng)
                }
            })
            .collect();

    let mut best: Option<SearchResult> = None;
    for spec in specs {
        let mut total = 0.0;
        let mut used = 0usize;
        for fold_id in 0..plan.n_folds() {
            let Some((train, val)) = plan.fold(fold_id) else {
                continue;
            };
            let model = spec.fit(train, plan.seed().wrapping_add(fold_id as u64))?;
            plan.note_fit();
            let preds = model.predict(val)?;
            total += metric.score(val.labels(), &preds);
            used += 1;
        }
        if used == 0 {
            return Err(plan.no_usable_folds());
        }
        let score = total / used as f64;
        let better = match &best {
            None => true,
            Some(b) => score > b.val_score,
        };
        if better {
            best = Some(SearchResult { spec, val_score: score });
        }
    }
    Ok(best.expect("n_candidates >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> FeatureMatrix {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let base = if c == 0 { -2.0 } else { 2.0 };
            let noise = ((i * 13 % 41) as f64 / 41.0 - 0.5) * 1.2;
            data.push(base + noise);
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, n, 1, labels, 2)
    }

    #[test]
    fn cv_score_reasonable_on_separable() {
        let data = blobs(60);
        let spec = ModelSpec::default_for(ModelKind::DecisionTree);
        let score = cross_val_score(&spec, &data, 5, 1, Metric::Accuracy).unwrap();
        assert!(score > 0.9, "score {score}");
    }

    #[test]
    fn cv_deterministic() {
        let data = blobs(40);
        let spec = ModelSpec::default_for(ModelKind::RandomForest);
        let s1 = cross_val_score(&spec, &data, 4, 9, Metric::Accuracy).unwrap();
        let s2 = cross_val_score(&spec, &data, 4, 9, Metric::Accuracy).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn cv_requires_rows() {
        let data = blobs(1);
        let spec = ModelSpec::default_for(ModelKind::Knn);
        assert!(matches!(
            cross_val_score(&spec, &data, 5, 0, Metric::Accuracy),
            Err(MlError::TooFewRowsForCv { .. })
        ));
    }

    #[test]
    fn cv_clamps_folds() {
        let data = blobs(4);
        let spec = ModelSpec::default_for(ModelKind::NaiveBayes);
        // 10 folds on 4 rows clamps to 4
        let score = cross_val_score(&spec, &data, 10, 0, Metric::Accuracy).unwrap();
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn search_returns_valid_spec() {
        let data = blobs(50);
        let r = random_search(
            ModelKind::DecisionTree,
            &data,
            SearchBudget::small(),
            3,
            Metric::Accuracy,
        )
        .unwrap();
        assert_eq!(r.spec.kind(), ModelKind::DecisionTree);
        assert!(r.val_score > 0.8);
    }

    #[test]
    fn search_no_tuning_is_default_spec() {
        let data = blobs(50);
        let r = random_search(ModelKind::Knn, &data, SearchBudget::none(), 3, Metric::Accuracy)
            .unwrap();
        assert_eq!(r.spec, ModelSpec::default_for(ModelKind::Knn));
    }

    #[test]
    fn search_deterministic() {
        let data = blobs(50);
        let go = || {
            random_search(ModelKind::XGBoost, &data, SearchBudget::small(), 11, Metric::Accuracy)
                .unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.val_score, b.val_score);
    }

    #[test]
    fn f1_metric_usable() {
        let data = blobs(50);
        let spec = ModelSpec::default_for(ModelKind::LogisticRegression);
        let score = cross_val_score(&spec, &data, 3, 0, Metric::F1 { positive: 1 }).unwrap();
        assert!(score > 0.8);
    }

    #[test]
    fn plan_backed_cv_matches_naive_path() {
        // The naive path, spelled out exactly as the pre-plan code had it.
        fn naive_cv(
            spec: &ModelSpec,
            data: &FeatureMatrix,
            k: usize,
            seed: u64,
            metric: Metric,
        ) -> f64 {
            let k = k.clamp(2, data.n_rows());
            let folds = kfold_indices(data.n_rows(), k, seed);
            let mut total = 0.0;
            let mut used = 0usize;
            for (fold_id, (train_idx, val_idx)) in folds.iter().enumerate() {
                if train_idx.is_empty() || val_idx.is_empty() {
                    continue;
                }
                let train = data.select_rows(train_idx);
                let val = data.select_rows(val_idx);
                let model = spec.fit(&train, seed.wrapping_add(fold_id as u64)).unwrap();
                let preds = model.predict(&val).unwrap();
                total += metric.score(val.labels(), &preds);
                used += 1;
            }
            total / used as f64
        }
        let data = blobs(41);
        for kind in [ModelKind::DecisionTree, ModelKind::XGBoost, ModelKind::RandomForest] {
            let spec = ModelSpec::default_for(kind);
            for (k, seed) in [(3usize, 7u64), (5, 0), (40, 123)] {
                let plan = FoldPlan::new(&data, k, seed).unwrap();
                let planned = cross_val_score_with_plan(&spec, &plan, Metric::Accuracy).unwrap();
                let naive = naive_cv(&spec, &data, k, seed, Metric::Accuracy);
                assert!(
                    planned.to_bits() == naive.to_bits(),
                    "{kind} k={k} seed={seed}: {planned} vs {naive}"
                );
            }
        }
    }

    #[test]
    fn plan_materializes_each_fold_once_and_shares_arcs() {
        let data = blobs(30);
        let plan = FoldPlan::new(&data, 3, 9).unwrap();
        let (t0, v0) = plan.fold(0).expect("fold 0 usable");
        let (t0a, t0v) = (Arc::clone(t0), Arc::clone(v0));
        assert_eq!(plan.reuses(), 0, "first touch is a build, not a reuse");
        // every later touch hands back the same Arcs and counts as reuse
        let (t0b, v0b) = plan.fold(0).expect("fold 0 usable");
        assert!(Arc::ptr_eq(&t0a, t0b));
        assert!(Arc::ptr_eq(&t0v, v0b));
        assert_eq!(plan.reuses(), 1);
        // nine more searches against the same plan share those Arcs
        let nine = [
            ModelKind::LogisticRegression,
            ModelKind::Knn,
            ModelKind::DecisionTree,
            ModelKind::RandomForest,
            ModelKind::AdaBoost,
            ModelKind::XGBoost,
            ModelKind::NaiveBayes,
            ModelKind::Mlp,
            ModelKind::Nacl,
        ];
        let fits0 = plan.fits();
        let global0 = (cv_fits_total(), fold_reuse_total());
        for kind in nine {
            random_search_with_plan(kind, &plan, SearchBudget::none(), 9, Metric::Accuracy)
                .unwrap();
        }
        assert!(Arc::ptr_eq(&t0a, plan.fold(0).unwrap().0), "families did not re-materialize");
        assert_eq!(
            plan.fits() - fits0,
            9 * 3,
            "one fit per family per fold under SearchBudget::none()"
        );
        // the process-wide telemetry aggregates moved at least as much
        assert!(cv_fits_total() - global0.0 >= 9 * 3);
        assert!(fold_reuse_total() - global0.1 >= 9 * 3 - 1);
        assert!(plan.matches(&data, 3, 9));
        assert!(!plan.matches(&data, 4, 9));
        assert!(!plan.matches(&data, 3, 8));
    }

    #[test]
    fn multi_candidate_search_reuses_folds() {
        let data = blobs(36);
        let plan = FoldPlan::new(&data, 3, 5).unwrap();
        random_search_with_plan(
            ModelKind::DecisionTree,
            &plan,
            SearchBudget::small(),
            5,
            Metric::Accuracy,
        )
        .unwrap();
        assert_eq!(plan.fits(), 9, "3 candidates × 3 folds");
        // candidate 0 builds the 3 folds; candidates 1–2 reuse them
        assert_eq!(plan.reuses(), 6);
    }

    #[test]
    fn plan_rejects_tiny_data_like_cv_did() {
        let data = blobs(1);
        assert!(matches!(
            FoldPlan::new(&data, 5, 0),
            Err(MlError::TooFewRowsForCv { rows: 1, folds: 5 })
        ));
    }
}
