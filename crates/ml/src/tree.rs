//! CART decision trees with Gini impurity and sample weights.
//!
//! The tree supports weighted samples (required by AdaBoost/SAMME) and
//! per-split random feature subsampling (required by random forests). Splits
//! are axis-aligned thresholds at midpoints between consecutive distinct
//! feature values, chosen to maximize the weighted Gini decrease — the
//! classic CART construction the paper's scikit-learn models use.
//!
//! Trees grow in a splitter arena (the `splitter` module) seeded from the
//! matrix's `sorted_cols()` sidecar, so no node sorts and no node allocates
//! per-child lists. A random forest's bootstrap tree grows on the parent
//! matrix with per-row draw counts as integer weights and sample counts
//! (`DecisionTree::fit_bootstrap`).
//!
//! A 0/1 column has one threshold, 0.5, and no sorted list: its left side
//! is the node's zero rows in the row buffer's ascending order, which is
//! its `(value, row)` order. A node that searches every column (a decision
//! tree, an AdaBoost learner) sums them in one pass over its rows per
//! one-hot group, adding each row to every lane of the group but its own
//! hot lane, whose weight is masked to `+0.0`. A forest node, which samples
//! ⌈√d⌉ columns, scans its rows once per sampled 0/1 column. Every lane
//! starts at `+0.0`, and in round-to-nearest a sum that starts at `+0.0`
//! never becomes `−0.0`, so a masked `+0.0` term changes no bit: each lane
//! adds the same weights in the same order as the column's sorted sweep.

use cleanml_dataset::{FeatureMatrix, OneHotGroups};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, SeedableRng};

use crate::error::MlError;
use crate::splitter::Arena;
use crate::Result;

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0). `usize::MAX` effectively unbounded.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples each child must receive.
    pub min_samples_leaf: usize,
    /// Number of features considered per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

impl TreeParams {
    /// Samples hyper-parameters for random search (depth and leaf-size sweep,
    /// mirroring the paper's scikit-learn random search space).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        TreeParams {
            max_depth: *[4usize, 6, 8, 12, 16].choose(rng).expect("non-empty"),
            min_samples_split: *[2usize, 4, 8].choose(rng).expect("non-empty"),
            min_samples_leaf: *[1usize, 2, 4].choose(rng).expect("non-empty"),
            max_features: None,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidParam { param: "min_samples_leaf", message: "0".into() });
        }
        if self.min_samples_split < 2 {
            return Err(MlError::InvalidParam {
                param: "min_samples_split",
                message: format!("{} (must be >= 2)", self.min_samples_split),
            });
        }
        if self.max_features == Some(0) {
            return Err(MlError::InvalidParam { param: "max_features", message: "0".into() });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        /// Class probability distribution at the leaf (weighted).
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// `x[feature] <= threshold` goes left.
        left: usize,
        right: usize,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
}

/// Weighted Gini impurity of a class-weight histogram with total `total`.
pub(crate) fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|&c| (c / total) * (c / total)).sum::<f64>()
}

struct BuildCtx<'a> {
    data: &'a FeatureMatrix,
    one_hot: &'a OneHotGroups,
    /// Sample weight per matrix row.
    weights: &'a [f64],
    /// Sample count per matrix row: the bootstrap multiplicity, else 1.
    samples: &'a [u32],
    params: &'a TreeParams,
    rng: StdRng,
    n_classes: usize,
    arena: Arena,
    /// Scratch reused by every split search.
    features: Vec<usize>,
    left_counts: Vec<f64>,
    right_counts: Vec<f64>,
    /// Each 0/1 column's zero rows: class weights (class-major, `k × d`),
    /// total weight and samples, filled by [`sum_zero_rows`]; sized on a
    /// matrix's first every-column search.
    zero_counts: Vec<f64>,
    zero_total: Vec<f64>,
    zero_n: Vec<usize>,
}

/// What a node knows about its members before it splits: the class-weight
/// histogram, its total, and the sample count.
struct NodeStats {
    counts: Vec<f64>,
    total: f64,
    n: usize,
}

impl DecisionTree {
    /// Trains with uniform sample weights.
    pub fn fit(params: &TreeParams, data: &FeatureMatrix, seed: u64) -> Result<DecisionTree> {
        let w = vec![1.0; data.n_rows()];
        Self::fit_weighted(params, data, &w, seed)
    }

    /// Trains with per-sample weights (AdaBoost) and optional per-split
    /// feature subsampling (random forest).
    pub fn fit_weighted(
        params: &TreeParams,
        data: &FeatureMatrix,
        weights: &[f64],
        seed: u64,
    ) -> Result<DecisionTree> {
        params.validate()?;
        if data.n_rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        assert_eq!(weights.len(), data.n_rows(), "weight count mismatch");
        let samples = vec![1; data.n_rows()];
        let arena = Arena::all_rows(data.sorted_cols(), data.n_rows());
        Ok(grow(params, data, weights, &samples, arena, seed))
    }

    /// Trains on a bootstrap resample given as per-row draw counts, without
    /// copying the matrix: a row drawn `c` times weighs `c` and counts as
    /// `c` samples, and the split lists are the parent's `sorted_cols()`
    /// filtered to the drawn rows.
    ///
    /// The tree is byte-identical to a unit-weight fit of the resampled
    /// copy (`select_rows(draws)`). The copy's own argsort would order tied
    /// rows differently, but every Gini, weight and count sum here adds
    /// integer-valued `f64`s, which is exact in any order, and thresholds
    /// are only taken between distinct values.
    pub(crate) fn fit_bootstrap(
        params: &TreeParams,
        data: &FeatureMatrix,
        counts: &[u32],
        seed: u64,
    ) -> Result<DecisionTree> {
        params.validate()?;
        assert_eq!(counts.len(), data.n_rows(), "count mismatch");
        let weights: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
        let arena = Arena::drawn(data.sorted_cols(), counts);
        Ok(grow(params, data, &weights, counts, arena, seed))
    }

    /// Per-class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let k = self.n_classes;
        let mut out = Vec::with_capacity(data.n_rows() * k);
        for i in 0..data.n_rows() {
            let dist = self.leaf_dist_at(data, i);
            out.extend_from_slice(dist);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }

    /// Number of nodes (diagnostics / tests).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Walks example `i` of a columnar matrix to its leaf.
    fn leaf_dist_at(&self, data: &FeatureMatrix, i: usize) -> &[f64] {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { dist } => return dist,
                Node::Split { feature, threshold, left, right } => {
                    at = if data.at(i, *feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Grows a whole tree in `arena`, whose rows are the training set.
fn grow<'a>(
    params: &'a TreeParams,
    data: &'a FeatureMatrix,
    weights: &'a [f64],
    samples: &'a [u32],
    arena: Arena,
    seed: u64,
) -> DecisionTree {
    let (k, d) = (data.n_classes(), data.n_cols());
    let mut ctx = BuildCtx {
        data,
        one_hot: data.one_hot_groups(),
        weights,
        samples,
        params,
        rng: StdRng::seed_from_u64(seed),
        n_classes: k,
        arena,
        features: Vec::with_capacity(d),
        left_counts: vec![0.0; k],
        right_counts: vec![0.0; k],
        zero_counts: Vec::new(),
        zero_total: Vec::new(),
        zero_n: Vec::new(),
    };
    let m = ctx.arena.n_rows();
    let root = node_stats(&ctx, ctx.arena.rows(0, m));
    let mut nodes = Vec::new();
    build_node(&mut ctx, &mut nodes, 0, m, 0, root);
    DecisionTree { nodes, n_features: data.n_cols(), n_classes: k }
}

/// Sums a node's class weights, total weight and samples over `rows`, in
/// the given (ascending) order.
fn node_stats(ctx: &BuildCtx<'_>, rows: &[u32]) -> NodeStats {
    let labels = ctx.data.labels();
    let mut counts = vec![0.0; ctx.n_classes];
    let mut total = 0.0;
    let mut n = 0;
    for &r in rows {
        let r = r as usize;
        counts[labels[r]] += ctx.weights[r];
        total += ctx.weights[r];
        n += ctx.samples[r] as usize;
    }
    NodeStats { counts, total, n }
}

/// Whether a node at `depth` with these members becomes a leaf without a
/// split search.
fn stops(ctx: &BuildCtx<'_>, depth: usize, stats: &NodeStats) -> bool {
    depth >= ctx.params.max_depth
        || stats.n < ctx.params.min_samples_split
        || gini(&stats.counts, stats.total) <= 1e-12
}

/// Recursively builds the subtree of arena range `[lo, hi)`, returning its
/// node index.
///
/// The arena keeps the node's rows in ascending order and each feature
/// list in ascending `(value, row)` order. Both hold at the root (identity
/// order, the matrix sidecar) and survive the stable partitions below, so
/// every sum and sweep runs in the order the pre-columnar per-node stable
/// sort produced: bit-identical splits.
fn build_node(
    ctx: &mut BuildCtx<'_>,
    nodes: &mut Vec<Node>,
    lo: usize,
    hi: usize,
    depth: usize,
    stats: NodeStats,
) -> usize {
    let split = if stops(ctx, depth, &stats) { None } else { find_best_split(ctx, lo, hi, &stats) };
    let Some((feature, threshold)) = split else {
        let k = ctx.n_classes;
        let dist: Vec<f64> = if stats.total > 0.0 {
            stats.counts.iter().map(|&c| c / stats.total).collect()
        } else {
            vec![1.0 / k as f64; k]
        };
        nodes.push(Node::Leaf { dist });
        return nodes.len() - 1;
    };

    let col = ctx.data.col(feature);
    let mid = ctx.arena.partition_rows(lo, hi, |r| col[r] <= threshold);
    let left_stats = node_stats(ctx, ctx.arena.rows(lo, mid));
    let right_stats = node_stats(ctx, ctx.arena.rows(mid, hi));
    // Leaves never sweep, so their lists need not be split.
    if !(stops(ctx, depth + 1, &left_stats) && stops(ctx, depth + 1, &right_stats)) {
        ctx.arena.partition_lists(lo, hi);
    }

    // Reserve this node's slot before children so indices stay stable.
    let idx = nodes.len();
    nodes.push(Node::Leaf { dist: Vec::new() }); // placeholder
    let left = build_node(ctx, nodes, lo, mid, depth + 1, left_stats);
    let right = build_node(ctx, nodes, mid, hi, depth + 1, right_stats);
    nodes[idx] = Node::Split { feature, threshold, left, right };
    idx
}

/// Finds the `(feature, threshold)` with the largest weighted Gini decrease
/// for node `[lo, hi)`, or `None` if no valid split exists. A column with a
/// list is one contiguous sweep of it, with thresholds between consecutive
/// distinct values; a 0/1 column has the one threshold 0.5, scored from its
/// zero rows. Columns are scored in `features` order.
fn find_best_split(
    ctx: &mut BuildCtx<'_>,
    lo: usize,
    hi: usize,
    node: &NodeStats,
) -> Option<(usize, f64)> {
    let (d, k) = (ctx.data.n_cols(), ctx.n_classes);
    let BuildCtx {
        data,
        one_hot,
        weights,
        samples,
        params,
        rng,
        arena,
        features,
        left_counts,
        right_counts,
        zero_counts,
        zero_total,
        zero_n,
        ..
    } = ctx;
    let labels = data.labels();
    let rows = arena.rows(lo, hi);

    features.clear();
    features.extend(0..d);
    if let Some(m) = params.max_features.filter(|&m| m < d) {
        features.shuffle(rng);
        features.truncate(m);
    }
    let every_column = features.len() == d;
    if every_column && !one_hot.groups().is_empty() {
        zero_counts.resize(k * d, 0.0);
        zero_total.resize(d, 0.0);
        zero_n.resize(d, 0);
        for group in one_hot.groups() {
            sum_zero_rows(
                group,
                rows,
                labels,
                weights,
                samples,
                d,
                zero_counts,
                zero_total,
                zero_n,
            );
        }
    }

    let mut search = Search {
        node,
        node_gini: gini(&node.counts, node.total),
        min_leaf: params.min_samples_leaf,
        right_counts,
        best: None,
        best_gain: 1e-12, // require a strictly positive gain
    };
    for &f in features.iter() {
        let Some((group, s)) = one_hot.locate(f) else {
            let order = arena.list(f, lo, hi);
            sweep_list(&mut search, f, order, data.col(f), labels, weights, samples, left_counts);
            continue;
        };
        let (left_total, left_n) = if every_column {
            for (lab, l) in left_counts.iter_mut().enumerate() {
                *l = zero_counts[lab * d + f];
            }
            (zero_total[f], zero_n[f])
        } else {
            sum_zero_rows_of(group.hot(), s, rows, labels, weights, samples, left_counts)
        };
        // Every arena row counts at least one sample, so the column has a
        // threshold exactly when the node holds zero and one rows.
        if left_n > 0 && left_n < node.n {
            search.consider(f, 0.5, left_counts, left_total, left_n);
        }
    }
    search.best
}

/// One node's split search: the node, and the best split scored so far.
struct Search<'a> {
    node: &'a NodeStats,
    node_gini: f64,
    min_leaf: usize,
    /// Scratch for the right child's class weights.
    right_counts: &'a mut [f64],
    best: Option<(usize, f64)>,
    best_gain: f64,
}

impl Search<'_> {
    /// Scores sending `left_counts` / `left_total` / `left_n` left at
    /// `threshold` of feature `f`, and keeps it if its Gini decrease beats
    /// the best so far.
    #[inline(always)]
    fn consider(
        &mut self,
        f: usize,
        threshold: f64,
        left_counts: &[f64],
        left_total: f64,
        left_n: usize,
    ) {
        let node = self.node;
        let right_n = node.n - left_n;
        if left_n < self.min_leaf || right_n < self.min_leaf {
            return;
        }
        let right_total = node.total - left_total;
        for ((rc, c), l) in self.right_counts.iter_mut().zip(&node.counts).zip(left_counts) {
            *rc = c - l;
        }
        let weighted = (left_total * gini(left_counts, left_total)
            + right_total * gini(self.right_counts, right_total))
            / node.total;
        let gain = self.node_gini - weighted;
        if gain > self.best_gain {
            self.best_gain = gain;
            self.best = Some((f, threshold));
        }
    }
}

/// Sweeps feature `f`'s sorted `order` once, scoring a threshold between
/// each pair of consecutive distinct values.
#[allow(clippy::too_many_arguments)]
fn sweep_list(
    search: &mut Search<'_>,
    f: usize,
    order: &[u32],
    col: &[f64],
    labels: &[usize],
    weights: &[f64],
    samples: &[u32],
    left_counts: &mut [f64],
) {
    left_counts.fill(0.0);
    let mut left_total = 0.0;
    let mut left_n = 0usize;
    for w in 0..order.len() - 1 {
        let r = order[w] as usize;
        left_counts[labels[r]] += weights[r];
        left_total += weights[r];
        left_n += samples[r] as usize;

        let v_here = col[r];
        let v_next = col[order[w + 1] as usize];
        if v_next <= v_here {
            continue; // can't split between equal values
        }
        search.consider(f, 0.5 * (v_here + v_next), left_counts, left_total, left_n);
    }
}

/// All-ones unless `hot`: the bit mask that keeps a term on every lane but
/// the row's own hot lane.
#[inline(always)]
fn keep_unless(hot: bool) -> u64 {
    u64::from(!hot).wrapping_neg()
}

/// Sums the zero rows of each column of `group` over the node's `rows`, in
/// their ascending order, into the class-major `zero_counts` (`k × d`),
/// `zero_total` and `zero_n`: one pass over the rows, each added to every
/// lane but its own hot lane, where the weight is masked to `+0.0`.
#[allow(clippy::too_many_arguments)]
fn sum_zero_rows(
    group: &cleanml_dataset::OneHotGroup,
    rows: &[u32],
    labels: &[usize],
    weights: &[f64],
    samples: &[u32],
    d: usize,
    zero_counts: &mut [f64],
    zero_total: &mut [f64],
    zero_n: &mut [usize],
) {
    let (cols, width) = (group.columns(), group.width());
    for lane in zero_counts.chunks_exact_mut(d) {
        lane[cols.clone()].fill(0.0);
    }
    let (total, n) = (&mut zero_total[cols.clone()], &mut zero_n[cols.clone()]);
    total.fill(0.0);
    n.fill(0);
    let hot = group.hot();
    for &r in rows {
        let r = r as usize;
        let h = usize::from(hot[r]);
        let (w, smp) = (weights[r].to_bits(), samples[r] as usize);
        let at = labels[r] * d + cols.start;
        let lanes = zero_counts[at..at + width].iter_mut().zip(total.iter_mut()).zip(n.iter_mut());
        for (s, ((c, t), ns)) in lanes.enumerate() {
            let keep = keep_unless(s == h);
            let wm = f64::from_bits(w & keep);
            *c += wm;
            *t += wm;
            *ns += smp & keep as usize;
        }
    }
}

/// Sums the zero rows of the column at position `s` of a group with hot
/// positions `hot` over the node's `rows`, in their ascending order: class
/// weights into `left_counts`, and returns the total weight and samples.
fn sum_zero_rows_of(
    hot: &[u8],
    s: usize,
    rows: &[u32],
    labels: &[usize],
    weights: &[f64],
    samples: &[u32],
    left_counts: &mut [f64],
) -> (f64, usize) {
    left_counts.fill(0.0);
    let mut total = 0.0;
    let mut n = 0usize;
    for &r in rows {
        let r = r as usize;
        let keep = keep_unless(usize::from(hot[r]) == s);
        let wm = f64::from_bits(weights[r].to_bits() & keep);
        left_counts[labels[r]] += wm;
        total += wm;
        n += samples[r] as usize & keep as usize;
    }
    (total, n)
}

impl DecisionTree {
    /// Appends the node arena to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_tag, push_usize};
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        push_usize(out, self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { dist } => {
                    push_tag(out, b'L');
                    crate::codec::push_dist_vec(out, dist);
                }
                Node::Split { feature, threshold, left, right } => {
                    push_tag(out, b'S');
                    push_usize(out, *feature);
                    push_f64(out, *threshold);
                    push_usize(out, *left);
                    push_usize(out, *right);
                }
            }
        }
    }

    /// Reads a tree written by [`DecisionTree::encode_into`].
    pub(crate) fn decode_from(
        parts: &mut cleanml_dataset::codec::Reader<'_>,
    ) -> Option<DecisionTree> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let n_nodes = take_usize(parts)?;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for i in 0..n_nodes {
            let node = match cleanml_dataset::codec::take_tag(parts)? {
                b'L' => {
                    let dist = crate::codec::take_dist_vec(parts)?;
                    if dist.len() != n_classes {
                        return None;
                    }
                    Node::Leaf { dist }
                }
                b'S' => {
                    let feature = take_usize(parts)?;
                    let threshold = take_f64(parts)?;
                    let left = take_usize(parts)?;
                    let right = take_usize(parts)?;
                    // Children must point strictly forward in the arena
                    // (the builder reserves the parent slot before pushing
                    // children), so a corrupt entry can neither walk out
                    // of bounds nor form a cycle that hangs prediction.
                    if feature >= n_features
                        || left <= i
                        || right <= i
                        || left >= n_nodes
                        || right >= n_nodes
                    {
                        return None;
                    }
                    Node::Split { feature, threshold, left, right }
                }
                _ => return None,
            };
            nodes.push(node);
        }
        if nodes.is_empty() {
            return None;
        }
        Some(DecisionTree { nodes, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use cleanml_dataset::FeatureMatrix;

    fn xor_data() -> FeatureMatrix {
        // XOR-like pattern with *asymmetric* quadrant sizes. A perfectly
        // balanced XOR has zero Gini gain for any first split (both children
        // stay 50/50), so greedy CART cannot enter it; unequal quadrant
        // counts — as in any real dataset — restore a positive gain.
        let quadrants: [(f64, f64, usize, usize); 4] = [
            (0.0, 0.0, 0, 12), // (x0, x1, label, count)
            (0.0, 1.0, 1, 6),
            (1.0, 0.0, 1, 10),
            (1.0, 1.0, 0, 4),
        ];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut i = 0usize;
        for &(qx, qy, label, count) in &quadrants {
            for _ in 0..count {
                let jitter = (i as f64 * 0.17).sin() * 0.05;
                data.push(qx + jitter);
                data.push(qy - jitter);
                labels.push(label);
                i += 1;
            }
        }
        let n = labels.len();
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn learns_xor() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams::default(), &data, 0).unwrap();
        let preds = tree.predict(&data).unwrap();
        assert_eq!(accuracy(data.labels(), &preds), 1.0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_respected() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams { max_depth: 1, ..Default::default() }, &data, 0)
            .unwrap();
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn stump_on_separable() {
        // Single threshold separates classes -> stump achieves 100%.
        let data = FeatureMatrix::from_parts(
            vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0],
            6,
            1,
            vec![0, 0, 0, 1, 1, 1],
            2,
        );
        let tree = DecisionTree::fit(&TreeParams { max_depth: 1, ..Default::default() }, &data, 0)
            .unwrap();
        let preds = tree.predict(&data).unwrap();
        assert_eq!(preds, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(tree.n_nodes(), 3);
    }

    #[test]
    fn pure_node_is_leaf() {
        let data = FeatureMatrix::from_parts(vec![1.0, 2.0, 3.0], 3, 1, vec![0, 0, 0], 2);
        let tree = DecisionTree::fit(&TreeParams::default(), &data, 0).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        let probs = tree.predict_proba(&data).unwrap();
        assert_eq!(&probs[..2], &[1.0, 0.0]);
    }

    #[test]
    fn weights_steer_the_split() {
        // Same feature values, conflicting labels; weights decide the leaf.
        let data = FeatureMatrix::from_parts(vec![0.0, 0.0], 2, 1, vec![0, 1], 2);
        let t = DecisionTree::fit_weighted(&TreeParams::default(), &data, &[0.9, 0.1], 0).unwrap();
        assert_eq!(t.predict(&data).unwrap(), vec![0, 0]);
        let t = DecisionTree::fit_weighted(&TreeParams::default(), &data, &[0.1, 0.9], 0).unwrap();
        assert_eq!(t.predict(&data).unwrap(), vec![1, 1]);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = FeatureMatrix::from_parts(vec![0.0, 1.0, 2.0, 3.0], 4, 1, vec![0, 0, 0, 1], 2);
        // Requiring 2 samples per leaf forbids isolating the single class-1 row
        // at threshold 2.5; the best legal split is at 1.5.
        let tree =
            DecisionTree::fit(&TreeParams { min_samples_leaf: 2, ..Default::default() }, &data, 0)
                .unwrap();
        let preds = tree.predict(&data).unwrap();
        assert_eq!(preds.len(), 4);
    }

    #[test]
    fn probabilities_are_distributions() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams { max_depth: 1, ..Default::default() }, &data, 0)
            .unwrap();
        let probs = tree.predict_proba(&data).unwrap();
        for row in probs.chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn feature_subsampling_deterministic_by_seed() {
        let data = xor_data();
        let params = TreeParams { max_features: Some(1), ..Default::default() };
        let t1 = DecisionTree::fit(&params, &data, 5).unwrap();
        let t2 = DecisionTree::fit(&params, &data, 5).unwrap();
        let p1 = t1.predict(&data).unwrap();
        let p2 = t2.predict(&data).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn invalid_params_rejected() {
        let data = xor_data();
        assert!(DecisionTree::fit(
            &TreeParams { min_samples_leaf: 0, ..Default::default() },
            &data,
            0
        )
        .is_err());
        assert!(DecisionTree::fit(
            &TreeParams { min_samples_split: 1, ..Default::default() },
            &data,
            0
        )
        .is_err());
        assert!(DecisionTree::fit(
            &TreeParams { max_features: Some(0), ..Default::default() },
            &data,
            0
        )
        .is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams::default(), &data, 0).unwrap();
        let other = FeatureMatrix::from_parts(vec![0.0; 3], 1, 3, vec![0], 2);
        assert!(tree.predict(&other).is_err());
    }
}
