//! HoloClean-style probabilistic cell imputation.
//!
//! HoloClean (Rekatsinas et al., PVLDB'17) infers the most likely value of a
//! dirty cell by combining correlated signals across attributes with a
//! probabilistic model. For the imputation role it plays in CleanML (repair
//! of missing values and outliers), the essential signal is the conditional
//! distribution of the target attribute given the row's other attribute
//! values. This module implements that holistic inference directly:
//!
//! * **categorical targets** — naive-Bayes-style scoring: log prior from the
//!   training distribution plus, for every other categorical attribute, the
//!   Laplace-smoothed log conditional `P(target = v | attr = value)` from
//!   training co-occurrence counts; the argmax candidate wins.
//! * **numeric targets** — a shrinkage blend of (a) group means of the
//!   target conditioned on each categorical attribute value, (b) a linear
//!   prediction from the most correlated numeric attribute (when |r| is
//!   meaningful), and (c) the global training mean as prior.
//!
//! All statistics come from the **training partition** (paper §IV-A);
//! the label column is never used as a signal, so cleaning the test set
//! cannot leak labels.
//!
//! The substitution (full HoloClean → this engine) is recorded in the
//! README's *Substitutions* section: the paper's finding under test is that
//! HoloClean is *not noticeably better* than simple imputation for
//! downstream ML, which this same-signal engine evaluates fairly.

use std::collections::{BTreeMap, HashMap};

use cleanml_dataset::{ColumnKind, ColumnRole, Table};

use crate::Result;

/// Per-column co-occurrence statistics for one categorical target.
///
/// The per-signal maps are `BTreeMap`s, not `HashMap`s, on purpose: scoring
/// accumulates floating-point terms while iterating them, and float
/// addition is not associative — with a hash map's per-process-randomized
/// iteration order, two *processes* imputing the same cell could disagree
/// in the low bits, which breaks the artifact store's guarantee that a
/// resumed study is byte-identical to an uninterrupted one.
#[derive(Debug, Clone, Default)]
struct CatModel {
    /// Candidate value → training frequency.
    prior: HashMap<String, usize>,
    /// Signal column index → (signal value → (candidate → count)).
    cooc: BTreeMap<usize, HashMap<String, HashMap<String, usize>>>,
    n_rows: usize,
}

/// Statistics for one numeric target. See [`CatModel`] for why the
/// iterated map is ordered.
#[derive(Debug, Clone, Default)]
struct NumModel {
    /// Number of observed training values; 0 means the model is unusable.
    n_obs: usize,
    global_mean: f64,
    global_std: f64,
    /// Signal categorical column → (signal value → (mean, count)).
    group_means: BTreeMap<usize, HashMap<String, (f64, usize)>>,
    /// Best numeric predictor: (column, pearson r, its mean, its std).
    best_numeric: Option<(usize, f64, f64, f64)>,
}

/// A fitted HoloClean-style imputer.
#[derive(Debug, Clone)]
pub struct HoloCleanImputer {
    cat_models: HashMap<usize, CatModel>,
    num_models: HashMap<usize, NumModel>,
}

/// Correlation threshold below which a numeric predictor is ignored.
const MIN_ABS_R: f64 = 0.3;
/// Shrinkage constant: a group of n rows gets weight `n / (n + SHRINK)`.
const SHRINK: f64 = 5.0;

impl HoloCleanImputer {
    /// Learns co-occurrence and correlation statistics from `train` for every
    /// non-label column.
    pub fn fit(train: &Table) -> Result<HoloCleanImputer> {
        let schema = train.schema();
        let label = schema.label_index().ok();
        let n = train.n_rows();

        let signal_cats: Vec<usize> = (0..schema.len())
            .filter(|&c| {
                Some(c) != label
                    && schema.fields()[c].kind == ColumnKind::Categorical
                    && schema.fields()[c].role != ColumnRole::Key
            })
            .collect();
        let numeric_cols: Vec<usize> = (0..schema.len())
            .filter(|&c| Some(c) != label && schema.fields()[c].kind == ColumnKind::Numeric)
            .collect();

        let mut cat_models = HashMap::new();
        for &target in &signal_cats {
            let tcol = train.column(target)?;
            let mut model = CatModel { n_rows: n, ..Default::default() };
            for r in 0..n {
                if let Some(v) = tcol.cat_str(r) {
                    *model.prior.entry(v.to_owned()).or_insert(0) += 1;
                }
            }
            for &sig in &signal_cats {
                if sig == target {
                    continue;
                }
                let scol = train.column(sig)?;
                let table_for_sig: &mut HashMap<String, HashMap<String, usize>> =
                    model.cooc.entry(sig).or_default();
                for r in 0..n {
                    if let (Some(sv), Some(tv)) = (scol.cat_str(r), tcol.cat_str(r)) {
                        *table_for_sig
                            .entry(sv.to_owned())
                            .or_default()
                            .entry(tv.to_owned())
                            .or_insert(0) += 1;
                    }
                }
            }
            cat_models.insert(target, model);
        }

        let mut num_models = HashMap::new();
        for &target in &numeric_cols {
            let tcol = train.column(target)?;
            let vals = tcol.numeric_values();
            let mut model = NumModel { n_obs: vals.len(), ..Default::default() };
            if !vals.is_empty() {
                model.global_mean = vals.iter().sum::<f64>() / vals.len() as f64;
                let var = vals.iter().map(|x| (x - model.global_mean).powi(2)).sum::<f64>()
                    / vals.len() as f64;
                model.global_std = var.sqrt();
            }
            for &sig in &signal_cats {
                let scol = train.column(sig)?;
                let mut sums: HashMap<String, (f64, usize)> = HashMap::new();
                for r in 0..n {
                    if let (Some(sv), Some(x)) = (scol.cat_str(r), tcol.num(r)) {
                        let e = sums.entry(sv.to_owned()).or_insert((0.0, 0));
                        e.0 += x;
                        e.1 += 1;
                    }
                }
                let means: HashMap<String, (f64, usize)> =
                    sums.into_iter().map(|(k, (s, c))| (k, (s / c as f64, c))).collect();
                if !means.is_empty() {
                    model.group_means.insert(sig, means);
                }
            }
            // Strongest numeric co-predictor by |Pearson r| over complete pairs.
            let mut best: Option<(usize, f64, f64, f64)> = None;
            for &sig in &numeric_cols {
                if sig == target {
                    continue;
                }
                let scol = train.column(sig)?;
                if let Some((r_val, s_mean, s_std)) = pearson(train, tcol, scol) {
                    if r_val.abs() >= MIN_ABS_R
                        && best.is_none_or(|(_, br, _, _)| r_val.abs() > br.abs())
                    {
                        best = Some((sig, r_val, s_mean, s_std));
                    }
                }
            }
            model.best_numeric = best;
            num_models.insert(target, model);
        }

        Ok(HoloCleanImputer { cat_models, num_models })
    }

    /// Most likely categorical value for cell (`row`, `col`) of `table`,
    /// given the row's other attributes. `None` if no model or no candidates
    /// were observed at fit time.
    pub fn impute_categorical(&self, table: &Table, row: usize, col: usize) -> Option<String> {
        let model = self.cat_models.get(&col)?;
        if model.prior.is_empty() {
            return None;
        }
        let v_total: f64 = model.prior.len() as f64;
        let mut best: Option<(&str, f64)> = None;
        for (cand, &prior_count) in &model.prior {
            let mut score = ((prior_count as f64 + 1.0) / (model.n_rows as f64 + v_total)).ln();
            for (&sig, table_for_sig) in &model.cooc {
                let Ok(scol) = table.column(sig) else { continue };
                let Some(sv) = scol.cat_str(row) else { continue };
                let (count, total) = match table_for_sig.get(sv) {
                    Some(cands) => {
                        let c = cands.get(cand).copied().unwrap_or(0);
                        let t: usize = cands.values().sum();
                        (c, t)
                    }
                    None => (0, 0),
                };
                score += ((count as f64 + 1.0) / (total as f64 + v_total)).ln();
            }
            // Deterministic tie-break on the candidate string.
            let better = match best {
                None => true,
                Some((bc, bs)) => score > bs || (score == bs && cand.as_str() < bc),
            };
            if better {
                best = Some((cand, score));
            }
        }
        best.map(|(c, _)| c.to_owned())
    }

    /// Most likely numeric value for cell (`row`, `col`) of `table`.
    /// `None` if the column had no observed training values.
    pub fn impute_numeric(&self, table: &Table, row: usize, col: usize) -> Option<f64> {
        let model = self.num_models.get(&col)?;
        if model.n_obs == 0 {
            return None;
        }
        let mut weight_sum = 0.5; // prior pseudo-weight on the global mean
        let mut estimate = 0.5 * model.global_mean;

        for (&sig, means) in &model.group_means {
            let Ok(scol) = table.column(sig) else { continue };
            let Some(sv) = scol.cat_str(row) else { continue };
            if let Some(&(mean, count)) = means.get(sv) {
                let w = count as f64 / (count as f64 + SHRINK);
                estimate += w * mean;
                weight_sum += w;
            }
        }

        if let Some((sig, r, s_mean, s_std)) = model.best_numeric {
            if let Ok(scol) = table.column(sig) {
                if let Some(x) = scol.num(row) {
                    if s_std > 0.0 && model.global_std > 0.0 {
                        let pred =
                            model.global_mean + r * (model.global_std / s_std) * (x - s_mean);
                        let w = r.abs();
                        estimate += w * pred;
                        weight_sum += w;
                    }
                }
            }
        }

        Some(estimate / weight_sum)
    }
}

/// Pearson correlation between two numeric columns over rows where both are
/// present; returns `(r, mean_of_sig, std_of_sig)`.
fn pearson(
    table: &Table,
    target: &cleanml_dataset::Column,
    sig: &cleanml_dataset::Column,
) -> Option<(f64, f64, f64)> {
    let n = table.n_rows();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in 0..n {
        if let (Some(x), Some(y)) = (sig.num(r), target.num(r)) {
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.len() < 3 {
        return None;
    }
    let m = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / m;
    let my = ys.iter().sum::<f64>() / m;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some((sxy / (sxx * syy).sqrt(), mx, (sxx / m).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_dataset::{FieldMeta, Schema, Value};

    /// city perfectly predicts tier; income correlates with age.
    fn train_table() -> Table {
        let schema = Schema::new(vec![
            FieldMeta::cat_feature("city"),
            FieldMeta::cat_feature("tier"),
            FieldMeta::num_feature("age"),
            FieldMeta::num_feature("income"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for i in 0..40 {
            let (city, tier) = if i % 2 == 0 { ("NYC", "high") } else { ("SLC", "low") };
            let age = 20.0 + i as f64;
            let income = 1000.0 + 50.0 * age + (i % 3) as f64;
            let y = if i % 2 == 0 { "a" } else { "b" };
            t.push_row(vec![
                Value::from(city),
                Value::from(tier),
                Value::from(age),
                Value::from(income),
                Value::from(y),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn categorical_inference_uses_cooccurrence() {
        let train = train_table();
        let imp = HoloCleanImputer::fit(&train).unwrap();
        // Row 0 is NYC; tier should be inferred "high" regardless of its cell.
        assert_eq!(imp.impute_categorical(&train, 0, 1).as_deref(), Some("high"));
        assert_eq!(imp.impute_categorical(&train, 1, 1).as_deref(), Some("low"));
    }

    #[test]
    fn numeric_inference_tracks_correlated_column() {
        let train = train_table();
        let imp = HoloCleanImputer::fit(&train).unwrap();
        // income strongly correlates with age; imputation for a row with
        // high age must be above the global mean, low age below.
        let young = imp.impute_numeric(&train, 0, 3).unwrap(); // age 20
        let old = imp.impute_numeric(&train, 39, 3).unwrap(); // age 59
        assert!(old > young, "old={old} young={young}");
        let global_mean: f64 = train.column(3).unwrap().numeric_values().iter().sum::<f64>() / 40.0;
        assert!(young < global_mean);
        assert!(old > global_mean);
    }

    #[test]
    fn numeric_inference_uses_group_means() {
        // No numeric co-predictor; city groups with different means.
        let schema = Schema::new(vec![
            FieldMeta::cat_feature("city"),
            FieldMeta::num_feature("price"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for i in 0..30 {
            let (city, price) = if i % 2 == 0 { ("NYC", 100.0) } else { ("SLC", 10.0) };
            t.push_row(vec![Value::from(city), Value::from(price), Value::from("a")]).unwrap();
        }
        // second class so label has 2 values
        t.push_row(vec![Value::from("NYC"), Value::from(100.0), Value::from("b")]).unwrap();
        let imp = HoloCleanImputer::fit(&t).unwrap();
        let nyc = imp.impute_numeric(&t, 0, 1).unwrap();
        let slc = imp.impute_numeric(&t, 1, 1).unwrap();
        assert!(nyc > 80.0, "{nyc}");
        assert!(slc < 30.0, "{slc}");
    }

    #[test]
    fn label_never_used_as_signal() {
        let train = train_table();
        let imp = HoloCleanImputer::fit(&train).unwrap();
        assert!(!imp.cat_models.contains_key(&4), "label must not be modelled");
        for model in imp.cat_models.values() {
            assert!(!model.cooc.contains_key(&4), "label must not be a signal");
        }
        for model in imp.num_models.values() {
            assert!(!model.group_means.contains_key(&4));
        }
    }

    #[test]
    fn unknown_column_returns_none() {
        let train = train_table();
        let imp = HoloCleanImputer::fit(&train).unwrap();
        assert_eq!(imp.impute_categorical(&train, 0, 2), None); // numeric col
        assert_eq!(imp.impute_numeric(&train, 0, 0), None); // categorical col
    }

    #[test]
    fn deterministic() {
        let train = train_table();
        let a = HoloCleanImputer::fit(&train).unwrap();
        let b = HoloCleanImputer::fit(&train).unwrap();
        assert_eq!(a.impute_numeric(&train, 5, 3), b.impute_numeric(&train, 5, 3));
        assert_eq!(a.impute_categorical(&train, 5, 1), b.impute_categorical(&train, 5, 1));
    }
}
