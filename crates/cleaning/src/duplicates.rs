//! Duplicate detection and repair (paper §III-B3).
//!
//! Two detectors:
//!
//! * **Key collision** — rows that agree on every key attribute are declared
//!   duplicates (the simple method practitioners use).
//! * **ZeroER** — unsupervised entity matching: each candidate record pair
//!   is described by a similarity vector (Levenshtein / token-Jaccard /
//!   trigram similarity over the concatenated text attributes plus mean
//!   relative similarity over numeric attributes); a two-component Gaussian
//!   mixture fit by EM on the *training* pairs separates matches from
//!   non-matches ([`crate::zeroer`]).
//!
//! Repair is always keep-one deletion: "for a set of records that are deemed
//! to be duplicates, we repair them by deleting all but one record".
//! Duplicate groups are the connected components of the pairwise match graph
//! (union–find), and the earliest row of each group survives.

use std::collections::HashMap;

use cleanml_dataset::{ColumnKind, ColumnRole, Table};

use crate::report::TableReport;
use crate::similarity::{levenshtein_similarity, numeric_similarity, InternedSets};
use crate::zeroer::{PairGmm, SimMatrix};
use crate::Result;

/// Which duplicate detector to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DuplicateDetection {
    KeyCollision,
    ZeroEr,
}

impl DuplicateDetection {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DuplicateDetection::KeyCollision => "Key Collision",
            DuplicateDetection::ZeroEr => "ZeroER",
        }
    }
}

/// Posterior threshold above which a pair is declared a match.
pub(crate) const MATCH_THRESHOLD: f64 = 0.5;

/// A fitted duplicate cleaner.
#[derive(Debug, Clone)]
pub struct FittedDuplicates {
    detection: DuplicateDetection,
    /// GMM fit on training pairs (ZeroER only).
    gmm: Option<PairGmm>,
}

/// Text columns used to describe a record for matching: the
/// entity-identifying attributes (keys and carried free text). Shared
/// low-cardinality feature categories (city, cuisine, …) are *not* included
/// — two different restaurants in the same city are not more likely to be
/// the same entity, and mixing such columns in destroys the bimodality the
/// ZeroER mixture relies on. Tables without identifying text fall back to
/// categorical features.
pub(crate) fn text_columns(table: &Table) -> Vec<usize> {
    let mut cols = table.schema().key_indices();
    for (i, f) in table.schema().fields().iter().enumerate() {
        if f.kind == ColumnKind::Categorical && f.role == ColumnRole::Ignore {
            cols.push(i);
        }
    }
    if cols.is_empty() {
        cols = table.schema().categorical_feature_indices();
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

pub(crate) fn numeric_columns(table: &Table) -> Vec<usize> {
    table.schema().numeric_feature_indices()
}

/// A record's text: its non-missing values over `cols`, space-joined, case
/// preserved (the token and trigram sets lowercase it).
pub(crate) fn record_text(table: &Table, row: usize, cols: &[usize]) -> String {
    let mut s = String::new();
    for &c in cols {
        if let Ok(col) = table.column(c) {
            if let Some(v) = col.cat_str(row) {
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(v);
            }
        }
    }
    s
}

/// Per-row state for the O(n²) pair sweeps, computed once per table
/// instead of once per pair: the concatenated record text, its token and
/// trigram sets interned to sorted `u32` ids (a pair's Jaccard is then an
/// integer merge, with the same counts string sets give), and the numeric
/// feature values.
struct PairFeaturizer {
    texts: Vec<String>,
    tokens: InternedSets,
    trigrams: InternedSets,
    /// `numeric[k][row]` for `num_cols[k]`, in `num_cols` order.
    numeric: Vec<Vec<Option<f64>>>,
}

impl PairFeaturizer {
    fn new(table: &Table) -> Self {
        let text_cols = text_columns(table);
        let n = table.n_rows();
        let texts: Vec<String> = (0..n).map(|r| record_text(table, r, &text_cols)).collect();
        let tokens = InternedSets::tokens(&texts);
        let trigrams = InternedSets::trigrams(&texts);
        let numeric = numeric_columns(table)
            .iter()
            .map(|&c| {
                let col = table.column(c).expect("column exists");
                (0..n).map(|r| col.num(r)).collect()
            })
            .collect();
        PairFeaturizer { texts, tokens, trigrams, numeric }
    }

    /// Similarity-vector width: three text similarities plus one pooled
    /// numeric similarity when numeric features exist.
    fn dim(&self) -> usize {
        3 + usize::from(!self.numeric.is_empty())
    }

    /// Writes the similarity vector of a record pair into `out` (width
    /// [`PairFeaturizer::dim`]); the caller reuses the scratch across pairs.
    fn features_into(&self, a: usize, b: usize, out: &mut [f64]) {
        out[0] = levenshtein_similarity(&self.texts[a], &self.texts[b]);
        out[1] = self.tokens.jaccard(a, b);
        out[2] = self.trigrams.jaccard(a, b);
        if !self.numeric.is_empty() {
            let mut sum = 0.0;
            let mut n = 0usize;
            for col in &self.numeric {
                if let (Some(x), Some(y)) = (col[a], col[b]) {
                    sum += numeric_similarity(x, y);
                    n += 1;
                }
            }
            out[3] = if n > 0 { sum / n as f64 } else { 0.5 };
        }
    }

    /// The similarity vectors of `pairs`, one matrix row per pair. The
    /// sweep fans out in contiguous chunks, each filling a column-major
    /// block of its own; the blocks land in chunk order, so the matrix is
    /// the one a serial loop builds.
    fn sim_matrix(&self, pairs: &[(usize, usize)]) -> SimMatrix {
        let dim = self.dim();
        let chunks = pair_chunks(pairs.len());
        let blocks: Vec<SimMatrix> = cleanml_parallel::run_indexed(chunks.len(), |ci| {
            let range = chunks[ci].clone();
            let mut block = SimMatrix::zeroed(range.len(), dim);
            let mut feat = vec![0.0; dim];
            for (j, &(a, b)) in pairs[range].iter().enumerate() {
                self.features_into(a, b, &mut feat);
                block.set_row(j, &feat);
            }
            block
        });
        let mut points = SimMatrix::zeroed(pairs.len(), dim);
        for (chunk, block) in chunks.iter().zip(&blocks) {
            points.copy_block(chunk.start, block);
        }
        points
    }
}

/// Upper bound on subwork chunks for a pair sweep: enough to keep every
/// helper busy, few enough that per-chunk dispatch stays invisible.
fn pair_chunks(n_pairs: usize) -> Vec<std::ops::Range<usize>> {
    cleanml_parallel::chunk_ranges(n_pairs, n_pairs.div_ceil(2048))
}

/// Candidate pairs: all pairs for small tables, token-blocked pairs above
/// [`BLOCK_ABOVE`] rows (pairs must share a token in their record text).
pub(crate) const BLOCK_ABOVE: usize = 700;

pub(crate) fn candidate_pairs(table: &Table) -> Vec<(usize, usize)> {
    let n = table.n_rows();
    if n <= BLOCK_ABOVE {
        let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push((a, b));
            }
        }
        return pairs;
    }
    // Token blocking: bucket rows by lowercase token, pair within buckets.
    let text_cols = text_columns(table);
    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    for r in 0..n {
        let text = record_text(table, r, &text_cols).to_lowercase();
        for tok in text.split_whitespace() {
            buckets.entry(tok.to_owned()).or_default().push(r);
        }
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for rows in buckets.values() {
        if rows.len() > 50 {
            continue; // stop-word-like token: too unselective
        }
        for (i, &a) in rows.iter().enumerate() {
            for &b in &rows[i + 1..] {
                pairs.push((a.min(b), a.max(b)));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Fits the detector on the training partition (only ZeroER learns
/// state) and returns it with the training partition already cleaned.
///
/// ZeroER matches the training pairs with the posteriors of the matrix
/// its mixture was fit on, so the training table is featurized once; the
/// cleaned table and report are the ones [`FittedDuplicates::apply`]
/// gives for `train`.
pub fn fit(
    detection: DuplicateDetection,
    train: &Table,
) -> Result<(FittedDuplicates, Table, TableReport)> {
    let (cleaner, pairs) = match detection {
        DuplicateDetection::KeyCollision => {
            let cleaner = FittedDuplicates { detection, gmm: None };
            let pairs = cleaner.detect_pairs(train)?;
            (cleaner, pairs)
        }
        DuplicateDetection::ZeroEr => {
            let (gmm, pairs) = fit_zeroer(train);
            (FittedDuplicates { detection, gmm }, pairs)
        }
    };
    let (clean, report) = keep_one(train, &pairs);
    Ok((cleaner, clean, report))
}

/// ZeroER's fit: the mixture over the training pairs' similarity vectors
/// (`None` below two pairs), and the training pairs it matches.
pub(crate) fn fit_zeroer(train: &Table) -> (Option<PairGmm>, Vec<(usize, usize)>) {
    let pairs = candidate_pairs(train);
    let points = PairFeaturizer::new(train).sim_matrix(&pairs);
    let Some(gmm) = PairGmm::fit(&points) else {
        return (None, Vec::new());
    };
    let matched = matches(&gmm, &points, &pairs);
    (Some(gmm), matched)
}

/// The pairs whose similarity vector (row `i` of `points` for `pairs[i]`)
/// the mixture matches: ZeroER's one match filter, for the training matrix
/// and for every table the cleaner is applied to. The sweep fans out in
/// contiguous chunks; chunk-order concatenation keeps the list identical
/// to the serial filter's.
fn matches(gmm: &PairGmm, points: &SimMatrix, pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let chunks = pair_chunks(pairs.len());
    let matched: Vec<Vec<(usize, usize)>> = cleanml_parallel::run_indexed(chunks.len(), |ci| {
        let mut row = vec![0.0; points.dim()];
        chunks[ci]
            .clone()
            .filter(|&i| {
                points.read_row(i, &mut row);
                gmm.posterior_match(&row) > MATCH_THRESHOLD
            })
            .map(|i| pairs[i])
            .collect()
    });
    matched.concat()
}

/// Minimal union–find over row indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins so the earliest row represents the group.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }
}

/// Groups matched pairs and deletes all but the earliest row of each
/// group.
pub(crate) fn keep_one(table: &Table, pairs: &[(usize, usize)]) -> (Table, TableReport) {
    let n = table.n_rows();
    let mut uf = UnionFind::new(n);
    for &(a, b) in pairs {
        uf.union(a, b);
    }
    let keep: Vec<bool> = (0..n).map(|r| uf.find(r) == r).collect();
    let mut out = table.clone();
    out.retain_rows(&keep);
    let removed = n - out.n_rows();
    let report = TableReport {
        rows_before: n,
        rows_after: n - removed,
        detected: pairs.len(),
        repaired: removed,
    };
    (out, report)
}

impl FittedDuplicates {
    /// The detection rule.
    pub fn detection(&self) -> DuplicateDetection {
        self.detection
    }

    /// Detects duplicate pairs in `table`.
    pub fn detect_pairs(&self, table: &Table) -> Result<Vec<(usize, usize)>> {
        match self.detection {
            DuplicateDetection::KeyCollision => {
                let keys = table.schema().key_indices();
                if keys.is_empty() {
                    return Ok(Vec::new());
                }
                let mut groups: HashMap<Vec<Option<String>>, Vec<usize>> = HashMap::new();
                for r in 0..table.n_rows() {
                    let key: Vec<Option<String>> = keys
                        .iter()
                        .map(|&c| {
                            table.column(c).ok().and_then(|col| col.cat_str(r).map(str::to_owned))
                        })
                        .collect();
                    // Rows with any missing key attribute never collide.
                    if key.iter().any(Option::is_none) {
                        continue;
                    }
                    groups.entry(key).or_default().push(r);
                }
                let mut pairs = Vec::new();
                for rows in groups.values() {
                    for (i, &a) in rows.iter().enumerate() {
                        for &b in &rows[i + 1..] {
                            pairs.push((a, b));
                        }
                    }
                }
                pairs.sort_unstable();
                Ok(pairs)
            }
            DuplicateDetection::ZeroEr => {
                let Some(gmm) = &self.gmm else {
                    return Ok(Vec::new()); // training had too few pairs
                };
                let pairs = candidate_pairs(table);
                let points = PairFeaturizer::new(table).sim_matrix(&pairs);
                Ok(matches(gmm, &points, &pairs))
            }
        }
    }

    /// Cleans `table`: groups matched pairs and deletes all but the earliest
    /// row of each group.
    pub fn apply(&self, table: &Table) -> Result<(Table, TableReport)> {
        Ok(keep_one(table, &self.detect_pairs(table)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_dataset::{FieldMeta, Schema, Value};

    fn restaurant_table() -> Table {
        let schema = Schema::new(vec![
            FieldMeta::key("name"),
            FieldMeta::cat_feature("city"),
            FieldMeta::num_feature("rating"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        let rows: Vec<(&str, &str, f64, &str)> = vec![
            ("Luigi Pizza", "NYC", 4.5, "p"),
            ("Luigi Pizza", "NYC", 4.5, "p"), // exact key dup of 0
            ("Sushi Ko", "SF", 4.0, "n"),
            ("Sushi Koo", "SF", 4.0, "n"), // near-dup of 2 (typo)
            ("Taco Town", "LA", 3.0, "p"),
            ("Burger Barn", "NYC", 2.5, "n"),
            ("Pho Place", "SF", 4.8, "p"),
            ("Curry Corner", "LA", 4.2, "n"),
            ("Bagel Bros", "NYC", 3.9, "p"),
            ("Noodle Nest", "SF", 3.1, "n"),
        ];
        for (name, city, rating, y) in rows {
            t.push_row(vec![
                Value::from(name),
                Value::from(city),
                Value::from(rating),
                Value::from(y),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn key_collision_finds_exact_dups_only() {
        let t = restaurant_table();
        let (cleaner, clean, report) = fit(DuplicateDetection::KeyCollision, &t).unwrap();
        let pairs = cleaner.detect_pairs(&t).unwrap();
        assert_eq!(pairs, vec![(0, 1)]);
        assert_eq!(cleaner.apply(&t).unwrap(), (clean.clone(), report));
        assert_eq!(clean.n_rows(), 9);
        assert_eq!(report.repaired, 1);
        // the first occurrence survives
        assert_eq!(clean.get(0, 0).unwrap(), Value::Str("Luigi Pizza".into()));
    }

    #[test]
    fn zeroer_finds_fuzzy_dups() {
        let t = restaurant_table();
        let (cleaner, clean, report) = fit(DuplicateDetection::ZeroEr, &t).unwrap();
        let pairs = cleaner.detect_pairs(&t).unwrap();
        assert!(pairs.contains(&(0, 1)), "exact dup missed: {pairs:?}");
        assert!(pairs.contains(&(2, 3)), "typo dup missed: {pairs:?}");
        assert!(clean.n_rows() <= 8);
        // the matches reused from the fit are the ones a fresh sweep finds
        assert_eq!(report.detected, pairs.len());
        assert_eq!(cleaner.apply(&t).unwrap(), (clean, report));
    }

    #[test]
    fn missing_keys_never_collide() {
        let schema = Schema::new(vec![FieldMeta::key("id"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Null, Value::from("p")]).unwrap();
        t.push_row(vec![Value::Null, Value::from("n")]).unwrap();
        let (cleaner, _, report) = fit(DuplicateDetection::KeyCollision, &t).unwrap();
        assert!(cleaner.detect_pairs(&t).unwrap().is_empty());
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn no_key_columns_means_no_collisions() {
        let schema = Schema::new(vec![FieldMeta::cat_feature("c"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::from("x"), Value::from("p")]).unwrap();
        t.push_row(vec![Value::from("x"), Value::from("n")]).unwrap();
        let (cleaner, _, report) = fit(DuplicateDetection::KeyCollision, &t).unwrap();
        assert!(cleaner.detect_pairs(&t).unwrap().is_empty());
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn transitive_groups_keep_one() {
        let schema = Schema::new(vec![FieldMeta::key("id"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        for _ in 0..3 {
            t.push_row(vec![Value::from("same"), Value::from("p")]).unwrap();
        }
        t.push_row(vec![Value::from("other"), Value::from("n")]).unwrap();
        let (_, clean, report) = fit(DuplicateDetection::KeyCollision, &t).unwrap();
        assert_eq!(clean.n_rows(), 2);
        assert_eq!(report.detected, 3); // 3 pairs in the triangle
        assert_eq!(report.repaired, 2);
    }

    #[test]
    fn zeroer_fitted_on_train_applies_to_test() {
        let train = restaurant_table();
        let (cleaner, _, _) = fit(DuplicateDetection::ZeroEr, &train).unwrap();
        let mut test = Table::new(train.schema().clone());
        test.push_row(vec![
            Value::from("Pasta Palace"),
            Value::from("NYC"),
            Value::from(4.0),
            Value::from("p"),
        ])
        .unwrap();
        test.push_row(vec![
            Value::from("Pasta Palacee"),
            Value::from("NYC"),
            Value::from(4.0),
            Value::from("p"),
        ])
        .unwrap();
        test.push_row(vec![
            Value::from("Dumpling Den"),
            Value::from("SF"),
            Value::from(3.5),
            Value::from("n"),
        ])
        .unwrap();
        let (clean, _) = cleaner.apply(&test).unwrap();
        assert_eq!(clean.n_rows(), 2, "near-duplicate should be removed");
    }

    #[test]
    fn duplicate_free_table_unchanged() {
        let t = restaurant_table();
        let (cleaner, clean, _) = fit(DuplicateDetection::KeyCollision, &t).unwrap();
        let (clean2, report2) = cleaner.apply(&clean).unwrap();
        assert_eq!(clean, clean2);
        assert_eq!(report2.repaired, 0);
    }

    #[test]
    fn a_posterior_at_the_threshold_is_no_match() {
        // tied components under an even prior: every posterior is exactly
        // 0.5, which the match filter must reject
        let t = restaurant_table();
        let gmm = PairGmm::tied(PairFeaturizer::new(&t).dim());
        assert_eq!(gmm.posterior_match(&[0.9, 0.8, 0.7, 1.0]), MATCH_THRESHOLD);
        let cleaner = FittedDuplicates { detection: DuplicateDetection::ZeroEr, gmm: Some(gmm) };
        assert!(cleaner.detect_pairs(&t).unwrap().is_empty());
    }

    #[test]
    fn detection_names() {
        assert_eq!(DuplicateDetection::KeyCollision.name(), "Key Collision");
        assert_eq!(DuplicateDetection::ZeroEr.name(), "ZeroER");
    }
}
