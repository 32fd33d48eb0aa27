//! Fit-on-train feature encoding into a dense matrix.
//!
//! CleanML trains scikit-learn models on structured datasets; the standard
//! preprocessing is one-hot encoding of categorical features and
//! standardization of numeric features. [`Encoder::fit`] learns the encoding
//! (means, standard deviations, category vocabularies, label classes) from a
//! *training* table only; [`Encoder::transform`] then applies it to any table
//! with the same schema — this is how the paper avoids train→test leakage.
//!
//! Missing cells are tolerated at transform time (numeric → train mean,
//! categorical → all-zero one-hot group) and flagged in the missing
//! mask ([`FeatureMatrix::missing_col`]) so missing-data-aware models
//! (NaCL, §VII-B of the paper) can react to them.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::column::Column;
use crate::error::DatasetError;
use crate::table::Table;
use crate::Result;

/// Dense feature matrix with class labels, stored as a flat column-major
/// arena: column `j` occupies `data[j*n_rows..(j+1)*n_rows]`, so the
/// per-feature sweeps that dominate training (threshold scans, gradient
/// accumulation, distance loops) run over contiguous memory. The CMAF wire
/// form stays canonical row-major (see [`FeatureMatrix::encode_into`]), so
/// the in-memory flip is invisible to the artifact store.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// Column-major cell values.
    data: Vec<f64>,
    /// Column-major missingness mask, parallel to `data`.
    missing: Vec<bool>,
    n_rows: usize,
    n_cols: usize,
    labels: Vec<usize>,
    n_classes: usize,
    feature_names: Vec<String>,
    /// Lazily-built per-column argsort sidecar: `sorted[j]` lists row
    /// indices in ascending `(value, row)` order. Built once per matrix on
    /// first use; tree/GBDT split finding reuses it for every node (and,
    /// for GBDT, every boosting round) instead of re-sorting.
    sorted: OnceLock<Arc<Vec<Vec<u32>>>>,
    /// Lazily-built *chained* argsort sidecar (see
    /// [`FeatureMatrix::sorted_cols_chained`]).
    sorted_chain: OnceLock<Arc<Vec<Vec<u32>>>>,
    /// Lazily-built one-hot groups (see [`FeatureMatrix::one_hot_groups`]).
    one_hot: OnceLock<Arc<OneHotGroups>>,
}

/// Equality is over the logical matrix; the sidecars are derived state.
impl PartialEq for FeatureMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.n_classes == other.n_classes
            && self.data == other.data
            && self.missing == other.missing
            && self.labels == other.labels
            && self.feature_names == other.feature_names
    }
}

impl FeatureMatrix {
    fn from_columnar(
        data: Vec<f64>,
        missing: Vec<bool>,
        n_rows: usize,
        n_cols: usize,
        labels: Vec<usize>,
        n_classes: usize,
        feature_names: Vec<String>,
    ) -> Self {
        FeatureMatrix {
            data,
            missing,
            n_rows,
            n_cols,
            labels,
            n_classes,
            feature_names,
            sorted: OnceLock::new(),
            sorted_chain: OnceLock::new(),
            one_hot: OnceLock::new(),
        }
    }

    /// Builds a matrix from raw *row-major* parts (mainly for tests and
    /// generators); the values are transposed into the columnar arena.
    ///
    /// # Panics
    /// Panics if the dimensions are inconsistent.
    pub fn from_parts(
        data: Vec<f64>,
        n_rows: usize,
        n_cols: usize,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "data size mismatch");
        assert_eq!(labels.len(), n_rows, "label count mismatch");
        assert!(labels.iter().all(|&l| l < n_classes.max(1)), "label out of range");
        let mut col_major = vec![0.0; data.len()];
        for i in 0..n_rows {
            for j in 0..n_cols {
                col_major[j * n_rows + i] = data[i * n_cols + j];
            }
        }
        let missing = vec![false; data.len()];
        let feature_names = (0..n_cols).map(|i| format!("f{i}")).collect();
        Self::from_columnar(col_major, missing, n_rows, n_cols, labels, n_classes, feature_names)
    }

    /// Number of examples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of encoded feature dimensions.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of label classes (as observed in the fitted training table).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Class index per example.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Cell value of example `i`, feature `j` (strided columnar access).
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.n_rows + i]
    }

    /// Missingness of example `i`, feature `j`.
    #[inline(always)]
    pub fn missing_at(&self, i: usize, j: usize) -> bool {
        self.missing[j * self.n_rows + i]
    }

    /// Zero-copy view of feature column `j` across all examples.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Zero-copy missingness view of feature column `j`.
    #[inline]
    pub fn missing_col(&self, j: usize) -> &[bool] {
        &self.missing[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Copies the feature values of example `i` into `out`
    /// (`out.len() == n_cols`); the row-major view for per-sample kernels.
    pub fn read_row(&self, i: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_cols);
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.data[j * self.n_rows + i];
        }
    }

    /// Feature values of example `i` as an owned vector (test/debug
    /// convenience; hot paths should use [`FeatureMatrix::col`] or
    /// [`FeatureMatrix::read_row`]).
    pub fn row_vec(&self, i: usize) -> Vec<f64> {
        (0..self.n_cols).map(|j| self.at(i, j)).collect()
    }

    /// `true` if any cell of example `i` was missing before encoding.
    pub fn row_has_missing(&self, i: usize) -> bool {
        (0..self.n_cols).any(|j| self.missing_at(i, j))
    }

    /// Names of the encoded dimensions (e.g. `age`, `city=NYC`).
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Flat column-major data access (column `j` at `j*n_rows..`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The per-column sorted-index sidecar: `sidecar[j]` holds every row
    /// index, ordered by ascending `(value, row)`. A 0/1 column's list is
    /// empty (see [`FeatureMatrix::one_hot_groups`]): its `(value, row)`
    /// order is its zero rows, then its one rows, each ascending. Built once
    /// per matrix on first use (thread-safe), then shared by reference.
    ///
    /// The `(value, row)` order is exactly what a stable sort by value
    /// produces over an ascending-index row list, which is how the
    /// tree/GBDT kernels keep their pre-refactor tie-breaking bit-for-bit.
    pub fn sorted_cols(&self) -> &Arc<Vec<Vec<u32>>> {
        self.sorted.get_or_init(|| {
            let one_hot = self.one_hot_groups();
            let mut all = Vec::with_capacity(self.n_cols);
            for j in 0..self.n_cols {
                if one_hot.is_binary(j) {
                    all.push(Vec::new());
                    continue;
                }
                let col = self.col(j);
                let mut idx: Vec<u32> = (0..self.n_rows as u32).collect();
                idx.sort_unstable_by(|&a, &b| {
                    col[a as usize]
                        .partial_cmp(&col[b as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                all.push(idx);
            }
            Arc::new(all)
        })
    }

    /// The *chained* sorted-index sidecar: `sidecar[j]` is the identity
    /// permutation stably sorted by column 0, then 1, … then `j` — i.e.
    /// ascending by `(col_j, col_{j-1}, …, col_0, row)` lexicographically.
    /// The chain runs through every column, but a 0/1 column's stage is
    /// stored empty: the one-hot groups give its order (see the GBDT
    /// kernel).
    ///
    /// This reproduces the exact tie order of a split finder that keeps one
    /// scratch `order` buffer and re-sorts it stably per feature without
    /// resetting (the pre-columnar GBDT kernel): since stable sorting
    /// commutes with order-preserving subset restriction, a node's chained
    /// order is the membership-filtered global chained order, so partitions
    /// of these lists keep GBDT's gradient sweeps bit-for-bit.
    pub fn sorted_cols_chained(&self) -> &Arc<Vec<Vec<u32>>> {
        self.sorted_chain.get_or_init(|| {
            let one_hot = self.one_hot_groups();
            let mut all = Vec::with_capacity(self.n_cols);
            let mut ord: Vec<u32> = (0..self.n_rows as u32).collect();
            for j in 0..self.n_cols {
                let col = self.col(j);
                if one_hot.is_binary(j) {
                    // a stable sort by a 0/1 column is a stable partition
                    let (mut zeros, ones): (Vec<u32>, Vec<u32>) =
                        ord.iter().partition(|&&r| col[r as usize] == 0.0);
                    zeros.extend(ones);
                    ord = zeros;
                    all.push(Vec::new());
                    continue;
                }
                // stable: ties keep the previous chain order
                ord.sort_by(|&a, &b| {
                    col[a as usize]
                        .partial_cmp(&col[b as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                all.push(ord.clone());
            }
            Arc::new(all)
        })
    }

    /// The one-hot sidecar: the matrix's 0/1 columns cut into groups (see
    /// [`OneHotGroups`]). Built from the values alone, once per matrix on
    /// first use, then shared by reference. The tree, GBDT and
    /// logistic-regression fits read a 0/1 column through its group
    /// instead of through a sorted list or a dense multiply.
    pub fn one_hot_groups(&self) -> &Arc<OneHotGroups> {
        self.one_hot.get_or_init(|| Arc::new(OneHotGroups::of(self)))
    }

    /// New matrix containing the examples at `indices`, in order. Indices may
    /// repeat (bootstrap sampling). Gathered column-by-column.
    pub fn select_rows(&self, indices: &[usize]) -> FeatureMatrix {
        let n = indices.len();
        let mut data = Vec::with_capacity(n * self.n_cols);
        let mut missing = Vec::with_capacity(n * self.n_cols);
        for j in 0..self.n_cols {
            let col = self.col(j);
            let mcol = self.missing_col(j);
            for &i in indices {
                data.push(col[i]);
                missing.push(mcol[i]);
            }
        }
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Self::from_columnar(
            data,
            missing,
            n,
            self.n_cols,
            labels,
            self.n_classes,
            self.feature_names.clone(),
        )
    }

    /// Gathers two row subsets in one pass over each source column —
    /// the CV fold plane's train/val pair. Bit-identical to two
    /// [`FeatureMatrix::select_rows`] calls (each output is gathered
    /// column-by-column in the given index order); fusing them halves the
    /// number of passes over the source arena when materializing a fold.
    pub fn select_rows_pair(&self, a: &[usize], b: &[usize]) -> (FeatureMatrix, FeatureMatrix) {
        let (na, nb) = (a.len(), b.len());
        let mut data_a = Vec::with_capacity(na * self.n_cols);
        let mut missing_a = Vec::with_capacity(na * self.n_cols);
        let mut data_b = Vec::with_capacity(nb * self.n_cols);
        let mut missing_b = Vec::with_capacity(nb * self.n_cols);
        for j in 0..self.n_cols {
            let col = self.col(j);
            let mcol = self.missing_col(j);
            for &i in a {
                data_a.push(col[i]);
                missing_a.push(mcol[i]);
            }
            for &i in b {
                data_b.push(col[i]);
                missing_b.push(mcol[i]);
            }
        }
        let labels_a = a.iter().map(|&i| self.labels[i]).collect();
        let labels_b = b.iter().map(|&i| self.labels[i]).collect();
        let ma = Self::from_columnar(
            data_a,
            missing_a,
            na,
            self.n_cols,
            labels_a,
            self.n_classes,
            self.feature_names.clone(),
        );
        let mb = Self::from_columnar(
            data_b,
            missing_b,
            nb,
            self.n_cols,
            labels_b,
            self.n_classes,
            self.feature_names.clone(),
        );
        (ma, mb)
    }

    /// Appends the matrix to an artifact byte stream (see [`crate::codec`]).
    /// Floats are written as raw bit patterns; the missingness mask is
    /// written sparsely (index list) since encoded matrices are mostly
    /// complete.
    ///
    /// **Wire-order invariant:** cells and missing indices are written in
    /// canonical *row-major* order (flat index `i*n_cols + j`) regardless of
    /// the columnar in-memory layout, so artifacts produced before the
    /// columnar refactor decode unchanged and vice versa — no store
    /// invalidation, no format bump.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{push_f64_compact, push_str, push_tag, push_usize};
        push_tag(out, b'M');
        push_usize(out, self.n_rows);
        push_usize(out, self.n_cols);
        push_usize(out, self.n_classes);
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                // one-hot dimensions dominate encoded matrices, so the 0/1
                // compact form shrinks the biggest artifact class ~5×
                push_f64_compact(out, self.at(i, j));
            }
        }
        let mut missing: Vec<usize> = Vec::new();
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                if self.missing_at(i, j) {
                    missing.push(i * self.n_cols + j);
                }
            }
        }
        push_usize(out, missing.len());
        for i in missing {
            push_usize(out, i);
        }
        for &l in &self.labels {
            push_usize(out, l);
        }
        for name in &self.feature_names {
            push_str(out, name);
        }
    }

    /// Reads a matrix written by [`FeatureMatrix::encode_into`]; `None` on
    /// any truncation or inconsistency.
    pub fn decode_from(r: &mut crate::codec::Reader<'_>) -> Option<FeatureMatrix> {
        use crate::codec::{expect, take_f64_compact, take_str, take_usize};
        expect(r, b'M')?;
        let n_rows = take_usize(r)?;
        let n_cols = take_usize(r)?;
        let n_classes = take_usize(r)?;
        let cells = n_rows.checked_mul(n_cols)?;
        if cells > (1 << 32) {
            return None; // far beyond any real study matrix: corrupt sizes
        }
        // Capacities are clamped: a corrupt size token must decode to
        // `None` (when its cells never materialize in the stream), not
        // abort the process on a huge up-front allocation.
        // Cells round-trip the full f64 domain: a source table can
        // legitimately carry non-finite numerics (an unquoted `inf` CSV
        // cell standardizes to inf), and an artifact that encodes but
        // never decodes would silently turn every warm resume of that
        // dataset into a re-run. Corruption is the frame checksum's job.
        // The stream is row-major (the canonical wire order). Stage it in
        // that order — capacity clamped, growing only as cells actually
        // materialize — then transpose into the columnar arena once the
        // stream has proven the sizes honest.
        let mut staged = Vec::with_capacity(cells.min(1 << 20));
        for _ in 0..cells {
            staged.push(take_f64_compact(r)?);
        }
        let mut data = vec![0.0; cells];
        for i in 0..n_rows {
            for j in 0..n_cols {
                data[j * n_rows + i] = staged[i * n_cols + j];
            }
        }
        let mut missing = vec![false; cells];
        let n_missing = take_usize(r)?;
        for _ in 0..n_missing {
            let flat = take_usize(r)?;
            if n_cols == 0 || flat >= cells {
                return None;
            }
            let (i, j) = (flat / n_cols, flat % n_cols);
            missing[j * n_rows + i] = true;
        }
        let mut labels = Vec::with_capacity(n_rows.min(1 << 20));
        for _ in 0..n_rows {
            let l = take_usize(r)?;
            if l >= n_classes.max(1) {
                return None;
            }
            labels.push(l);
        }
        let mut feature_names = Vec::with_capacity(n_cols.min(1 << 20));
        for _ in 0..n_cols {
            feature_names.push(take_str(r)?);
        }
        Some(Self::from_columnar(data, missing, n_rows, n_cols, labels, n_classes, feature_names))
    }
}

/// The widest one-hot group: hot positions are `u8`, and the width itself
/// stands for "none".
const MAX_GROUP_WIDTH: usize = u8::MAX as usize;

/// A run of consecutive 0/1 columns in which every row holds at most one 1.
#[derive(Debug, Clone, PartialEq)]
pub struct OneHotGroup {
    start: usize,
    width: usize,
    hot: Vec<u8>,
}

impl OneHotGroup {
    /// The group's first column.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of columns in the group (at most 255).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The group's columns.
    pub fn columns(&self) -> Range<usize> {
        self.start..self.start + self.width
    }

    /// Per row, the position in `0..width` of the column holding the row's
    /// 1, or `width` when the row is 0 in every column of the group.
    pub fn hot(&self) -> &[u8] {
        &self.hot
    }
}

/// A matrix's one-hot groups, the sidecar of
/// [`FeatureMatrix::one_hot_groups`].
///
/// A column is *0/1* when every value is bitwise `+0.0` or `1.0`; a column
/// holding `-0.0`, `2.0` or NaN is not. The 0/1 columns are cut greedily,
/// left to right, into groups of consecutive columns in which every row
/// holds at most one 1: a 0/1 column joins the group just before it unless
/// some row already has its 1 there (or the group is 255 wide). A lone 0/1
/// column, an all-zero one included, is a group of one. The groups come
/// from the data only: an encoder's categorical columns usually give one
/// group each, but nothing ties the two together.
#[derive(Debug, Clone, PartialEq)]
pub struct OneHotGroups {
    groups: Vec<OneHotGroup>,
    /// Per column: the index of its group, if it is 0/1.
    group_of: Vec<Option<usize>>,
}

impl OneHotGroups {
    fn of(m: &FeatureMatrix) -> OneHotGroups {
        const ZERO: u64 = 0;
        const ONE: u64 = 0x3FF0_0000_0000_0000; // 1.0f64.to_bits()
        const NONE: u8 = u8::MAX; // "no 1 yet" while a group grows
        let mut groups: Vec<OneHotGroup> = Vec::new();
        let mut group_of = vec![None; m.n_cols];
        for (j, slot) in group_of.iter_mut().enumerate() {
            let col = m.col(j);
            if !col.iter().all(|v| matches!(v.to_bits(), ZERO | ONE)) {
                continue;
            }
            let joins = groups.last().is_some_and(|g| {
                g.start + g.width == j
                    && g.width < MAX_GROUP_WIDTH
                    && col.iter().zip(&g.hot).all(|(v, &h)| v.to_bits() == ZERO || h == NONE)
            });
            if !joins {
                groups.push(OneHotGroup { start: j, width: 0, hot: vec![NONE; m.n_rows] });
            }
            let g = groups.last_mut().expect("a group is open");
            for (h, v) in g.hot.iter_mut().zip(col) {
                if v.to_bits() == ONE {
                    *h = g.width as u8;
                }
            }
            g.width += 1;
            *slot = Some(groups.len() - 1);
        }
        for g in &mut groups {
            // the sentinel becomes the group's own "none", its width
            let none = g.width as u8;
            g.hot.iter_mut().filter(|h| **h == NONE).for_each(|h| *h = none);
        }
        OneHotGroups { groups, group_of }
    }

    /// The groups, in column order.
    pub fn groups(&self) -> &[OneHotGroup] {
        &self.groups
    }

    /// Whether column `j` is 0/1.
    pub fn is_binary(&self, j: usize) -> bool {
        self.group_of[j].is_some()
    }

    /// The group holding column `j` and `j`'s position in it, if `j` is 0/1.
    pub fn locate(&self, j: usize) -> Option<(&OneHotGroup, usize)> {
        let g = &self.groups[self.group_of[j]?];
        Some((g, j - g.start))
    }
}

#[derive(Debug, Clone, PartialEq)]
struct NumSpec {
    col: usize,
    mean: f64,
    std: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct CatSpec {
    col: usize,
    /// Category strings kept as one-hot dimensions (top-`max_onehot` by
    /// training frequency). Unseen or overflow categories encode to all-zero.
    categories: Vec<String>,
}

/// Learned feature/label encoding. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Encoder {
    numeric: Vec<NumSpec>,
    categorical: Vec<CatSpec>,
    label_col: usize,
    label_classes: Vec<String>,
    n_cols: usize,
    feature_names: Vec<String>,
}

/// Cap on one-hot dimensions per categorical column; higher-cardinality
/// columns keep their most frequent categories and bucket the rest.
pub const DEFAULT_MAX_ONEHOT: usize = 20;

impl Encoder {
    /// Learns the encoding from a training table with the default one-hot cap.
    pub fn fit(train: &Table) -> Result<Encoder> {
        Self::fit_with(train, DEFAULT_MAX_ONEHOT)
    }

    /// Like [`Encoder::fit`], but with an explicit label-class vocabulary.
    ///
    /// The study runner uses this so that a training partition that happens
    /// to lose a class (e.g. after deletion-repair of missing values) still
    /// encodes test rows of that class instead of erroring, and so the class
    /// indices (and the F1 positive class) stay identical across every
    /// cleaned variant of a dataset. `classes` is deduplicated and sorted;
    /// it must cover every label observed at fit or transform time.
    pub fn fit_with_classes(train: &Table, classes: &[String]) -> Result<Encoder> {
        let mut enc = Self::fit_with(train, DEFAULT_MAX_ONEHOT)?;
        let mut classes: Vec<String> = classes.to_vec();
        classes.sort();
        classes.dedup();
        if classes.is_empty() {
            return Err(DatasetError::Encode("empty label class list".into()));
        }
        for observed in &enc.label_classes {
            if !classes.contains(observed) {
                return Err(DatasetError::Encode(format!(
                    "observed label `{observed}` missing from supplied classes"
                )));
            }
        }
        enc.label_classes = classes;
        Ok(enc)
    }

    /// Learns the encoding from a training table, keeping at most
    /// `max_onehot` one-hot dimensions per categorical feature.
    pub fn fit_with(train: &Table, max_onehot: usize) -> Result<Encoder> {
        if train.is_empty() {
            return Err(DatasetError::Empty("training table for encoder"));
        }
        let schema = train.schema();
        let label_col = schema.label_index()?;

        let mut numeric = Vec::new();
        for col in schema.numeric_feature_indices() {
            let c = train.column(col)?;
            let mean = crate::stats::mean(c).unwrap_or(0.0);
            let std = crate::stats::std_dev(c).unwrap_or(0.0);
            numeric.push(NumSpec { col, mean, std });
        }

        let mut categorical = Vec::new();
        for col in schema.categorical_feature_indices() {
            let c = train.column(col)?;
            let counts = c.category_counts();
            let mut by_freq: Vec<(usize, usize)> =
                counts.iter().enumerate().filter(|(_, &n)| n > 0).map(|(id, &n)| (id, n)).collect();
            // most frequent first; ties broken by first-seen id for determinism
            by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            by_freq.truncate(max_onehot);
            let categories = by_freq
                .into_iter()
                .map(|(id, _)| c.dict_str(id as u32).expect("id from counts").to_owned())
                .collect();
            categorical.push(CatSpec { col, categories });
        }

        let label_classes = Self::collect_label_classes(train.column(label_col)?)?;

        let mut feature_names = Vec::new();
        for spec in &numeric {
            feature_names.push(schema.field(spec.col)?.name.clone());
        }
        for spec in &categorical {
            let base = &schema.field(spec.col)?.name;
            for cat in &spec.categories {
                feature_names.push(format!("{base}={cat}"));
            }
        }
        let n_cols = feature_names.len();
        if n_cols == 0 {
            return Err(DatasetError::Encode("no feature columns to encode".into()));
        }

        Ok(Encoder { numeric, categorical, label_col, label_classes, n_cols, feature_names })
    }

    fn collect_label_classes(label: &Column) -> Result<Vec<String>> {
        let counts = label.category_counts();
        let mut classes: Vec<String> = counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(id, _)| label.dict_str(id as u32).expect("id from counts").to_owned())
            .collect();
        classes.sort();
        if classes.is_empty() {
            return Err(DatasetError::Encode("label column has no observed classes".into()));
        }
        Ok(classes)
    }

    /// Number of encoded feature dimensions.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Label classes in encoding order (class index = position here).
    pub fn label_classes(&self) -> &[String] {
        &self.label_classes
    }

    /// Encodes `table` with the learned statistics.
    ///
    /// Rows whose label is missing or was never seen at fit time are
    /// rejected — CleanML never evaluates on unlabeled rows.
    pub fn transform(&self, table: &Table) -> Result<FeatureMatrix> {
        let n_rows = table.n_rows();
        let mut data = vec![0.0; n_rows * self.n_cols];
        let mut missing = vec![false; n_rows * self.n_cols];
        let mut labels = Vec::with_capacity(n_rows);

        let class_index: HashMap<&str, usize> =
            self.label_classes.iter().enumerate().map(|(i, s)| (s.as_str(), i)).collect();

        let label_col = table.column(self.label_col)?;

        // Pre-resolve categorical dictionaries for the table being encoded.
        let cat_lookup: Vec<HashMap<&str, usize>> = self
            .categorical
            .iter()
            .map(|spec| {
                spec.categories.iter().enumerate().map(|(slot, s)| (s.as_str(), slot)).collect()
            })
            .collect();

        // Each source column fills a contiguous stripe of the arena.
        let mut j = 0usize;
        for spec in &self.numeric {
            let c = table.column(spec.col)?;
            let (dcol, mcol) = (j * n_rows, j * n_rows);
            for r in 0..n_rows {
                match c.num(r) {
                    Some(x) => {
                        data[dcol + r] =
                            if spec.std > 0.0 { (x - spec.mean) / spec.std } else { 0.0 };
                    }
                    None => {
                        // standardized train mean stays 0.0
                        missing[mcol + r] = true;
                    }
                }
            }
            j += 1;
        }
        for (spec, lookup) in self.categorical.iter().zip(&cat_lookup) {
            let c = table.column(spec.col)?;
            for r in 0..n_rows {
                let cell = c.cat_str(r);
                let hot = cell.and_then(|s| lookup.get(s).copied());
                let is_missing = cell.is_none();
                for slot in 0..spec.categories.len() {
                    if hot == Some(slot) {
                        data[(j + slot) * n_rows + r] = 1.0;
                    }
                    if is_missing {
                        missing[(j + slot) * n_rows + r] = true;
                    }
                }
            }
            j += spec.categories.len();
        }
        debug_assert_eq!(j, self.n_cols);

        for r in 0..n_rows {
            let label_str = label_col
                .cat_str(r)
                .ok_or_else(|| DatasetError::Encode(format!("row {r} has a missing label")))?;
            let class = class_index.get(label_str).copied().ok_or_else(|| {
                DatasetError::Encode(format!("label `{label_str}` not seen during fit"))
            })?;
            labels.push(class);
        }

        Ok(FeatureMatrix::from_columnar(
            data,
            missing,
            n_rows,
            self.n_cols,
            labels,
            self.label_classes.len(),
            self.feature_names.clone(),
        ))
    }

    /// Appends the fitted encoder to an artifact byte stream (see
    /// [`crate::codec`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::{push_f64, push_str, push_tag, push_usize};
        push_tag(out, b'E');
        push_usize(out, self.label_col);
        push_usize(out, self.n_cols);
        push_usize(out, self.numeric.len());
        for spec in &self.numeric {
            push_usize(out, spec.col);
            push_f64(out, spec.mean);
            push_f64(out, spec.std);
        }
        push_usize(out, self.categorical.len());
        for spec in &self.categorical {
            push_usize(out, spec.col);
            push_usize(out, spec.categories.len());
            for cat in &spec.categories {
                push_str(out, cat);
            }
        }
        push_usize(out, self.label_classes.len());
        for class in &self.label_classes {
            push_str(out, class);
        }
        for name in &self.feature_names {
            push_str(out, name);
        }
    }

    /// Reads an encoder written by [`Encoder::encode_into`].
    pub fn decode_from(r: &mut crate::codec::Reader<'_>) -> Option<Encoder> {
        use crate::codec::{expect, take_f64, take_str, take_usize};
        expect(r, b'E')?;
        let label_col = take_usize(r)?;
        let n_cols = take_usize(r)?;
        let n_numeric = take_usize(r)?;
        let mut numeric = Vec::with_capacity(n_numeric.min(1 << 20));
        for _ in 0..n_numeric {
            let col = take_usize(r)?;
            let mean = take_f64(r)?;
            let std = take_f64(r)?;
            numeric.push(NumSpec { col, mean, std });
        }
        let n_cat = take_usize(r)?;
        let mut categorical = Vec::with_capacity(n_cat.min(1 << 20));
        for _ in 0..n_cat {
            let col = take_usize(r)?;
            let n_categories = take_usize(r)?;
            let mut categories = Vec::with_capacity(n_categories.min(1 << 20));
            for _ in 0..n_categories {
                categories.push(take_str(r)?);
            }
            categorical.push(CatSpec { col, categories });
        }
        let n_classes = take_usize(r)?;
        let mut label_classes = Vec::with_capacity(n_classes.min(1 << 20));
        for _ in 0..n_classes {
            label_classes.push(take_str(r)?);
        }
        let mut feature_names = Vec::with_capacity(n_cols.min(1 << 20));
        for _ in 0..n_cols {
            feature_names.push(take_str(r)?);
        }
        Some(Encoder { numeric, categorical, label_col, label_classes, n_cols, feature_names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldMeta, Schema};
    use crate::value::Value;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            FieldMeta::num_feature("x"),
            FieldMeta::cat_feature("c"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for (x, c, y) in [
            (Some(1.0), Some("a"), "p"),
            (Some(3.0), Some("b"), "n"),
            (Some(5.0), Some("a"), "p"),
            (None, None, "n"),
        ] {
            t.push_row(vec![Value::from(x), Value::from(c), Value::from(y)]).unwrap();
        }
        t
    }

    #[test]
    fn fit_transform_shapes() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        assert_eq!(enc.n_cols(), 3); // x + c=a + c=b
        let m = enc.transform(&t).unwrap();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.n_classes(), 2);
        assert_eq!(m.labels().len(), 4);
        assert_eq!(m.feature_names()[0], "x");
        assert!(m.feature_names().contains(&"c=a".to_string()));
    }

    #[test]
    fn standardization_uses_train_stats() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        let m = enc.transform(&t).unwrap();
        // x values 1,3,5 -> mean 3, pop std sqrt(8/3)
        let std = (8.0f64 / 3.0).sqrt();
        assert!((m.at(0, 0) - (1.0 - 3.0) / std).abs() < 1e-12);
        assert!((m.at(1, 0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn missing_cells_flagged_and_neutral() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        let m = enc.transform(&t).unwrap();
        assert!(m.row_has_missing(3));
        assert!(!m.row_has_missing(0));
        assert_eq!(m.at(3, 0), 0.0); // mean-standardized
        assert_eq!(m.at(3, 1), 0.0); // one-hot zeros
        assert_eq!(m.at(3, 2), 0.0);
        assert!((0..m.n_cols()).all(|j| m.missing_at(3, j)));
    }

    #[test]
    fn labels_sorted_stable() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        assert_eq!(enc.label_classes(), &["n".to_string(), "p".to_string()]);
        let m = enc.transform(&t).unwrap();
        assert_eq!(m.labels(), &[1, 0, 1, 0]);
    }

    #[test]
    fn unseen_label_rejected() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        let schema = t.schema().clone();
        let mut t2 = Table::new(schema);
        t2.push_row(vec![Value::from(1.0), Value::from("a"), Value::from("zzz")]).unwrap();
        assert!(enc.transform(&t2).is_err());
    }

    #[test]
    fn onehot_cap_respected() {
        let schema = Schema::new(vec![FieldMeta::cat_feature("c"), FieldMeta::label("y")]);
        let mut t = Table::new(schema);
        for i in 0..50 {
            t.push_row(vec![Value::from(format!("cat{i}")), Value::from("p")]).unwrap();
        }
        t.push_row(vec![Value::from("cat0"), Value::from("n")]).unwrap();
        let enc = Encoder::fit_with(&t, 5).unwrap();
        assert_eq!(enc.n_cols(), 5);
        let m = enc.transform(&t).unwrap();
        // "cat0" appears twice -> most frequent -> kept
        assert_eq!(m.at(0, 0), 1.0);
    }

    #[test]
    fn select_rows_subsets() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        let m = enc.transform(&t).unwrap();
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.row_vec(0), m.row_vec(2));
        assert_eq!(s.row_vec(1), m.row_vec(0));
        assert_eq!(s.labels(), &[m.labels()[2], m.labels()[0], m.labels()[2]]);
    }

    #[test]
    fn select_rows_pair_matches_two_selects() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        let m = enc.transform(&t).unwrap();
        let (train_idx, val_idx) = (vec![0usize, 2, 3], vec![1usize, 3]);
        let (a, b) = m.select_rows_pair(&train_idx, &val_idx);
        let (ra, rb) = (m.select_rows(&train_idx), m.select_rows(&val_idx));
        assert_eq!(a.data(), ra.data());
        assert_eq!(a.labels(), ra.labels());
        assert_eq!(b.data(), rb.data());
        assert_eq!(b.labels(), rb.labels());
        assert_eq!(
            (0..a.n_rows()).map(|i| a.row_has_missing(i)).collect::<Vec<_>>(),
            (0..ra.n_rows()).map(|i| ra.row_has_missing(i)).collect::<Vec<_>>(),
        );
        // empty side stays well-formed
        let (e, f) = m.select_rows_pair(&[], &[1]);
        assert_eq!(e.n_rows(), 0);
        assert_eq!(f.row_vec(0), m.row_vec(1));
    }

    #[test]
    fn from_parts_valid() {
        let m = FeatureMatrix::from_parts(vec![1.0, 2.0, 3.0, 4.0], 2, 2, vec![0, 1], 2);
        assert_eq!(m.row_vec(1), vec![3.0, 4.0]);
        // from_parts takes row-major input; the arena stores columns
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn sorted_sidecar_orders_by_value_then_row() {
        let m = FeatureMatrix::from_parts(
            vec![2.0, 0.0, 1.0, 2.0, 2.0, 0.0, 1.0, 2.0],
            4,
            2,
            vec![0, 1, 0, 1],
            2,
        );
        let sc = m.sorted_cols();
        // col 0 = [2,1,2,1]: ties broken by ascending row
        assert_eq!(sc[0], vec![1, 3, 0, 2]);
        // col 1 = [0,2,0,2] (not 0/1, so it has a list)
        assert_eq!(sc[1], vec![0, 2, 1, 3]);
        // the sidecar is built once and shared
        assert!(Arc::ptr_eq(m.sorted_cols(), sc));
    }

    /// A matrix of the given columns (each `n` values) with all-zero labels.
    fn of_cols(cols: &[&[f64]]) -> FeatureMatrix {
        let n = cols.first().map_or(0, |c| c.len());
        let data = (0..n).flat_map(|i| cols.iter().map(move |c| c[i])).collect();
        FeatureMatrix::from_parts(data, n, cols.len(), vec![0; n], 2)
    }

    #[test]
    fn only_plus_zero_and_one_columns_are_binary() {
        let m = of_cols(&[
            &[0.0, 1.0, 0.0],
            &[-0.0, 1.0, 0.0],
            &[0.0, 2.0, 0.0],
            &[0.0, f64::NAN, 1.0],
            &[1.0, 0.0, 0.0],
        ]);
        let oh = m.one_hot_groups();
        let binary: Vec<bool> = (0..5).map(|j| oh.is_binary(j)).collect();
        assert_eq!(binary, [true, false, false, false, true]);
        // the two 0/1 columns are not adjacent, so each is a group of one
        let groups: Vec<_> = oh.groups().iter().map(|g| (g.columns(), g.hot().to_vec())).collect();
        assert_eq!(groups, [(0..1, vec![1, 0, 1]), (4..5, vec![0, 1, 1])]);
        assert_eq!(oh.locate(4).map(|(g, s)| (g.start(), s)), Some((4, 0)));
        assert!(oh.locate(1).is_none());
        // the sorted sidecars keep lists for the other columns only
        let lists = |s: &Arc<Vec<Vec<u32>>>| s.iter().map(|l| l.len()).collect::<Vec<_>>();
        assert_eq!(lists(m.sorted_cols()), [0, 3, 3, 3, 0]);
        assert_eq!(lists(m.sorted_cols_chained()), [0, 3, 3, 3, 0]);
    }

    #[test]
    fn all_zero_column_is_a_group_of_one_with_no_hot_row() {
        let m = of_cols(&[&[0.5, 1.5, 2.5], &[0.0, 0.0, 0.0]]);
        let oh = m.one_hot_groups();
        assert_eq!(oh.groups().len(), 1);
        let g = &oh.groups()[0];
        assert_eq!((g.start(), g.width(), g.hot()), (1, 1, &[1u8, 1, 1][..]));
        assert!(Arc::ptr_eq(m.one_hot_groups(), oh), "built once and shared");
    }

    #[test]
    fn a_row_hot_in_two_adjacent_columns_cuts_the_run() {
        // columns 0-1 share no hot row; row 1 is hot in both 1 and 2, so
        // column 2 opens a new group, which column 3 then joins
        let m = of_cols(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let oh = m.one_hot_groups();
        let groups: Vec<_> = oh.groups().iter().map(|g| (g.columns(), g.hot().to_vec())).collect();
        assert_eq!(groups, [(0..2, vec![0, 1, 2, 2]), (2..4, vec![2, 0, 0, 1])]);
        assert_eq!(oh.locate(3).map(|(g, s)| (g.start(), s)), Some((2, 1)));
    }

    #[test]
    fn two_categorical_columns_encode_to_two_groups() {
        let schema = Schema::new(vec![
            FieldMeta::cat_feature("c"),
            FieldMeta::num_feature("x"),
            FieldMeta::cat_feature("e"),
            FieldMeta::label("y"),
        ]);
        let mut t = Table::new(schema);
        for (c, x, e) in [
            (Some("a"), 1.0, Some("u")),
            (Some("b"), 2.0, Some("v")),
            (None, 3.0, Some("w")),
            (Some("c"), 4.0, None),
        ] {
            t.push_row(vec![Value::from(c), Value::from(x), Value::from(e), Value::from("p")])
                .unwrap();
        }
        let m = Encoder::fit(&t).unwrap().transform(&t).unwrap();
        // x, then c=a c=b c=c, then e=u e=v e=w: missing cells are hot nowhere
        let oh = m.one_hot_groups();
        let groups: Vec<_> = oh.groups().iter().map(|g| (g.columns(), g.hot().to_vec())).collect();
        assert_eq!(groups, [(1..4, vec![0, 1, 3, 2]), (4..7, vec![0, 1, 2, 3])]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn from_parts_bad_labels() {
        FeatureMatrix::from_parts(vec![1.0, 2.0], 2, 1, vec![0, 5], 2);
    }

    #[test]
    fn empty_table_rejected() {
        let schema = Schema::new(vec![FieldMeta::num_feature("x"), FieldMeta::label("y")]);
        let t = Table::new(schema);
        assert!(Encoder::fit(&t).is_err());
    }

    #[test]
    fn explicit_classes_cover_unobserved_labels() {
        let schema = Schema::new(vec![FieldMeta::num_feature("x"), FieldMeta::label("y")]);
        let mut train = Table::new(schema.clone());
        train.push_row(vec![Value::from(1.0), Value::from("p")]).unwrap();
        train.push_row(vec![Value::from(2.0), Value::from("p")]).unwrap();
        // "n" never observed in train but declared up front.
        let enc = Encoder::fit_with_classes(&train, &["p".to_string(), "n".to_string()]).unwrap();
        assert_eq!(enc.label_classes(), &["n".to_string(), "p".to_string()]);
        let mut test = Table::new(schema);
        test.push_row(vec![Value::from(3.0), Value::from("n")]).unwrap();
        let m = enc.transform(&test).unwrap();
        assert_eq!(m.labels(), &[0]);
        assert_eq!(m.n_classes(), 2);
    }

    #[test]
    fn explicit_classes_must_cover_observed() {
        let t = sample();
        assert!(Encoder::fit_with_classes(&t, &["p".to_string()]).is_err());
        assert!(Encoder::fit_with_classes(&t, &[]).is_err());
    }

    #[test]
    fn matrix_codec_round_trips_exactly() {
        let t = sample();
        let enc = Encoder::fit(&t).unwrap();
        let m = enc.transform(&t).unwrap();
        assert!(m.missing.iter().any(|&b| b), "sample exercises the missing mask");
        let mut out = Vec::new();
        m.encode_into(&mut out);
        let mut r = crate::codec::Reader::new(&out);
        let back = FeatureMatrix::decode_from(&mut r).expect("decode");
        assert!(r.is_empty(), "trailing bytes");
        assert_eq!(back, m);
        // corrupt/truncated streams are rejected, not mis-decoded
        assert!(FeatureMatrix::decode_from(&mut crate::codec::Reader::new(b"M1")).is_none());
        let cut = &out[..out.len() - 3];
        assert!(FeatureMatrix::decode_from(&mut crate::codec::Reader::new(cut)).is_none());
    }

    #[test]
    fn encoder_codec_round_trips_exactly() {
        let t = sample();
        let enc = Encoder::fit_with_classes(&t, &["p".into(), "n".into(), "extra".into()]).unwrap();
        let mut out = Vec::new();
        enc.encode_into(&mut out);
        let mut r = crate::codec::Reader::new(&out);
        let back = Encoder::decode_from(&mut r).expect("decode");
        assert!(r.is_empty(), "trailing bytes");
        assert_eq!(back, enc);
        // the decoded encoder transforms identically
        assert_eq!(back.transform(&t).unwrap(), enc.transform(&t).unwrap());
        assert!(Encoder::decode_from(&mut crate::codec::Reader::new(b"E0")).is_none());
    }
}
