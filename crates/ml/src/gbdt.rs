//! Gradient-boosted decision trees with the XGBoost training objective.
//!
//! Stands in for the paper's XGBoost model: per round, one regression tree
//! per class is fit to the first/second-order gradients of the softmax
//! cross-entropy, splits maximize the regularized structure gain
//! `½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`, and leaf weights are
//! the Newton step `−G/(H+λ)` scaled by the learning rate η — the core of
//! Chen & Guestrin's algorithm (KDD'16), minus the histogram sketches that
//! don't change accuracy on CleanML-sized data.
//!
//! Split finding is exact enumeration over the chained sidecar
//! ([`FeatureMatrix::sorted_cols_chained`]), with the paper's sparsity
//! idea applied to one-hot groups ([`FeatureMatrix::one_hot_groups`]): a
//! 0/1 column has the one threshold 0.5 and no sorted list. Take the order
//! of the column before a group as its *base order*: that column's list,
//! the row buffer when the group starts at column 0, or the bucketed order
//! (below) of an adjacent previous group. The chained order of the group's
//! column `s` is the rows hot at none or after `s`, then the rows hot at 0,
//! 1, …, `s−1` (its zero rows), then the rows hot at `s`, each run in base
//! order. So two passes give every column's zero-side (ΣG, ΣH) with the
//! sweep's terms in the sweep's order: pass 1 walks the base order and adds
//! each row to the lanes before its hot position (all lanes if none); pass 2
//! walks the rows bucketed by hot position and adds each to the lanes after
//! it. That bucketed order, none bucket first, is the chained order of the
//! group's last column, the base order of an adjacent next group.

use cleanml_dataset::{FeatureMatrix, OneHotGroup};
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::error::MlError;
use crate::splitter::Arena;
use crate::Result;

/// Hyper-parameters for [`Gbdt`].
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Boosting rounds (each fits `n_classes` trees).
    pub n_rounds: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Learning rate η.
    pub eta: f64,
    /// L2 leaf regularization λ.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 40,
            max_depth: 3,
            eta: 0.3,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1e-3,
        }
    }
}

impl GbdtParams {
    /// Samples hyper-parameters for random search (the usual XGBoost sweep).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        GbdtParams {
            n_rounds: *[20usize, 40, 80].choose(rng).expect("non-empty"),
            max_depth: *[2usize, 3, 4, 6].choose(rng).expect("non-empty"),
            eta: *[0.1f64, 0.3, 0.5].choose(rng).expect("non-empty"),
            lambda: *[0.5f64, 1.0, 2.0].choose(rng).expect("non-empty"),
            gamma: *[0.0f64, 0.1].choose(rng).expect("non-empty"),
            min_child_weight: 1e-3,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.n_rounds == 0 {
            return Err(MlError::InvalidParam { param: "n_rounds", message: "0".into() });
        }
        if self.eta.is_nan() || self.eta <= 0.0 {
            return Err(MlError::InvalidParam { param: "eta", message: format!("{}", self.eta) });
        }
        if self.lambda.is_nan() || self.lambda < 0.0 {
            return Err(MlError::InvalidParam {
                param: "lambda",
                message: format!("{}", self.lambda),
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RNode {
    Leaf(f64),
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// One regression tree over gradient statistics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegTree {
    pub(crate) nodes: Vec<RNode>,
}

impl RegTree {
    /// Walks example `i` of a columnar matrix to its leaf weight.
    fn predict_row(&self, data: &FeatureMatrix, i: usize) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                RNode::Leaf(w) => return *w,
                RNode::Split { feature, threshold, left, right } => {
                    at = if data.at(i, *feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Gbdt {
    /// `rounds × classes` trees.
    trees: Vec<Vec<RegTree>>,
    eta: f64,
    n_features: usize,
    n_classes: usize,
}

/// What one regression tree is fit to: the matrix and the current
/// per-row gradient statistics.
pub(crate) struct GradCtx<'a> {
    pub(crate) data: &'a FeatureMatrix,
    /// `[gradient, hessian]` per row: one two-lane add advances a
    /// (ΣG, ΣH) pair, and each lane is its own IEEE sum.
    pub(crate) gh: &'a [[f64; 2]],
    pub(crate) params: &'a GbdtParams,
}

impl Gbdt {
    /// Trains the boosted ensemble on softmax cross-entropy.
    pub fn fit(params: &GbdtParams, data: &FeatureMatrix, _seed: u64) -> Result<Gbdt> {
        Self::fit_with(params, data, grow_reg_tree)
    }

    /// The boosting loop over regression trees grown by `grow_tree` (the
    /// kernel oracle passes its reference builder here).
    pub(crate) fn fit_with(
        params: &GbdtParams,
        data: &FeatureMatrix,
        grow_tree: impl Fn(&GradCtx<'_>) -> RegTree,
    ) -> Result<Gbdt> {
        params.validate()?;
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let k = data.n_classes();
        let mut scores = vec![0.0; n * k];
        let mut trees: Vec<Vec<RegTree>> = Vec::with_capacity(params.n_rounds);

        let mut probs = vec![0.0; k];
        let mut gh = vec![[0.0; 2]; n];

        for _round in 0..params.n_rounds {
            let mut round_trees = Vec::with_capacity(k);
            // Gradients computed from the *current* scores for every class.
            let mut all_probs = vec![0.0; n * k];
            for i in 0..n {
                probs.copy_from_slice(&scores[i * k..(i + 1) * k]);
                crate::logistic::softmax(&mut probs);
                all_probs[i * k..(i + 1) * k].copy_from_slice(&probs);
            }
            for c in 0..k {
                for i in 0..n {
                    let p = all_probs[i * k + c];
                    let y = if data.labels()[i] == c { 1.0 } else { 0.0 };
                    gh[i] = [p - y, (p * (1.0 - p)).max(1e-6)];
                }
                let tree = grow_tree(&GradCtx { data, gh: &gh, params });
                for i in 0..n {
                    scores[i * k + c] += params.eta * tree.predict_row(data, i);
                }
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }

        Ok(Gbdt { trees, eta: params.eta, n_features: data.n_cols(), n_classes: k })
    }

    /// Softmax class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let k = self.n_classes;
        let mut out = vec![0.0; data.n_rows() * k];
        for i in 0..data.n_rows() {
            let row = &mut out[i * k..(i + 1) * k];
            for round in &self.trees {
                for (c, tree) in round.iter().enumerate() {
                    row[c] += self.eta * tree.predict_row(data, i);
                }
            }
            crate::logistic::softmax(row);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }

    /// Number of boosting rounds stored.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }
}

/// Structure score `G²/(H+λ)` of a candidate node.
pub(crate) fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Grows one regression tree in a splitter arena over all rows. The
/// chained sidecar is built once per matrix and read by every tree of
/// every round; each node inherits stable partitions instead of re-sorting.
fn grow_reg_tree(ctx: &GradCtx<'_>) -> RegTree {
    let n = ctx.data.n_rows();
    let mut arena = Arena::all_rows(ctx.data.sorted_cols_chained(), n);
    let mut lanes = Lanes::default();
    let mut nodes = Vec::new();
    build_reg_node(ctx, &mut arena, &mut lanes, &mut nodes, 0, n, 0);
    RegTree { nodes }
}

/// Scratch of the one-hot group passes, reused by every node of a tree.
#[derive(Default)]
struct Lanes {
    /// Per column of the group: (ΣG, ΣH) of its zero rows.
    sums: Vec<[f64; 2]>,
    /// Rows per hot position, `none` (the width) last.
    hot_n: Vec<usize>,
    /// Per hot position: the next free slot of its bucket.
    slot: Vec<usize>,
    /// The node's rows bucketed by hot position, none bucket first: the
    /// group being summed, and the group before it.
    bucketed: Vec<u32>,
    prev: Vec<u32>,
}

impl Lanes {
    /// Sums every column of `group` over a node whose rows in the group's
    /// base order are `base`, or the previous group's bucketed order when
    /// `base` is `None`, and buckets the rows into `self.bucketed`.
    fn sum(&mut self, group: &OneHotGroup, base: Option<&[u32]>, gh: &[[f64; 2]]) {
        let (width, hot) = (group.width(), group.hot());
        let Lanes { sums, hot_n, slot, bucketed, prev } = self;
        std::mem::swap(prev, bucketed);
        let base = base.unwrap_or(prev);
        sums.clear();
        sums.resize(width, [0.0; 2]);
        hot_n.clear();
        hot_n.resize(width + 1, 0);
        // pass 1: the rows hot at none or after a lane, in base order
        for &r in base {
            let (at, x) = (usize::from(hot[r as usize]), gh[r as usize]);
            hot_n[at] += 1;
            for sum in &mut sums[..at] {
                sum[0] += x[0];
                sum[1] += x[1];
            }
        }
        // bucket by hot position, none first, each bucket in base order
        slot.clear();
        let mut at = hot_n[width];
        slot.extend(hot_n[..width].iter().map(|&c| {
            at += c;
            at - c
        }));
        slot.push(0);
        bucketed.clear();
        bucketed.resize(base.len(), 0);
        for &r in base {
            let next = &mut slot[usize::from(hot[r as usize])];
            bucketed[*next] = r;
            *next += 1;
        }
        // pass 2: the rows hot before a lane, by hot position
        for &r in &bucketed[hot_n[width]..] {
            let (at, x) = (usize::from(hot[r as usize]), gh[r as usize]);
            for sum in &mut sums[at + 1..] {
                sum[0] += x[0];
                sum[1] += x[1];
            }
        }
    }
}

/// Recursively builds the regression subtree of arena range `[lo, hi)`.
/// The arena keeps the node's rows in ascending order and each feature
/// list in the chained sort order of [`FeatureMatrix::sorted_cols_chained`],
/// which reproduces the pre-columnar kernel's per-node cascading stable
/// sorts bit-for-bit.
fn build_reg_node(
    ctx: &GradCtx<'_>,
    arena: &mut Arena,
    lanes: &mut Lanes,
    nodes: &mut Vec<RNode>,
    lo: usize,
    hi: usize,
    depth: usize,
) -> usize {
    let rows = arena.rows(lo, hi);
    let g_total: f64 = rows.iter().map(|&r| ctx.gh[r as usize][0]).sum();
    let h_total: f64 = rows.iter().map(|&r| ctx.gh[r as usize][1]).sum();
    let lambda = ctx.params.lambda;

    let leaf_weight = -g_total / (h_total + lambda);
    let stops = |depth: usize, n: usize| depth >= ctx.params.max_depth || n < 2;
    if stops(depth, hi - lo) {
        nodes.push(RNode::Leaf(leaf_weight));
        return nodes.len() - 1;
    }

    // Best split by structure gain: one contiguous sweep per listed feature
    // over the node's sorted arena list, and the group passes for 0/1
    // columns, features in ascending order, with a strictly-greater
    // comparison both within and across features, so the chosen split is
    // the first feature and first threshold to reach the maximum.
    let d = ctx.data.n_cols();
    let parent = Parent {
        g: g_total,
        h: h_total,
        lambda,
        min_child_weight: ctx.params.min_child_weight,
        score: score(g_total, h_total, lambda),
    };
    let gain_floor = ctx.params.gamma.max(1e-12);
    let one_hot = ctx.data.one_hot_groups();
    let mut groups = one_hot.groups().iter().peekable();
    let mut best: Option<(usize, f64)> = None;
    let mut best_gain = gain_floor;
    let mut f = 0;
    while f < d {
        let Some(group) = groups.next_if(|g| g.start() == f) else {
            let order = arena.list(f, lo, hi);
            let col = ctx.data.col(f);
            if let Some((gain, split)) = sweep_list(&parent, gain_floor, order, col, ctx.gh) {
                if gain > best_gain {
                    best_gain = gain;
                    best = Some((f, split));
                }
            }
            f += 1;
            continue;
        };
        let base = match f.checked_sub(1) {
            None => Some(arena.rows(lo, hi)),
            Some(before) if one_hot.is_binary(before) => None,
            Some(before) => Some(arena.list(before, lo, hi)),
        };
        lanes.sum(group, base, ctx.gh);
        for s in 0..group.width() {
            // the one threshold needs zero rows and one rows in the node
            if lanes.hot_n[s] == 0 || lanes.hot_n[s] == hi - lo {
                continue;
            }
            let [gl, hl] = lanes.sums[s];
            if let Some(gain) = parent.gain(gl, hl).filter(|&gain| gain > best_gain) {
                best_gain = gain;
                best = Some((f + s, 0.5));
            }
        }
        f += group.width();
    }

    let Some((feature, threshold)) = best else {
        nodes.push(RNode::Leaf(leaf_weight));
        return nodes.len() - 1;
    };

    let col = ctx.data.col(feature);
    let mid = arena.partition_rows(lo, hi, |r| col[r] <= threshold);
    // Leaves never sweep, so their lists need not be split.
    if !(stops(depth + 1, mid - lo) && stops(depth + 1, hi - mid)) {
        arena.partition_lists(lo, hi);
    }

    let idx = nodes.len();
    nodes.push(RNode::Leaf(0.0)); // placeholder
    let left = build_reg_node(ctx, arena, lanes, nodes, lo, mid, depth + 1);
    let right = build_reg_node(ctx, arena, lanes, nodes, mid, hi, depth + 1);
    nodes[idx] = RNode::Split { feature, threshold, left, right };
    idx
}

/// What a node's candidate splits are scored against: its (ΣG, ΣH), λ,
/// `min_child_weight` and its own structure score.
struct Parent {
    g: f64,
    h: f64,
    lambda: f64,
    min_child_weight: f64,
    score: f64,
}

impl Parent {
    /// The structure gain of sending (ΣG, ΣH) = `(gl, hl)` left, or `None`
    /// if either child's hessian sum is under `min_child_weight`.
    #[inline(always)]
    fn gain(&self, gl: f64, hl: f64) -> Option<f64> {
        let gr = self.g - gl;
        let hr = self.h - hl;
        if hl < self.min_child_weight || hr < self.min_child_weight {
            return None;
        }
        Some(0.5 * (score(gl, hl, self.lambda) + score(gr, hr, self.lambda) - self.score))
    }
}

/// Sweeps a feature's chained `order` once and returns its first best
/// `(gain, threshold)` above `gain_floor`, thresholds sitting between
/// consecutive distinct values.
fn sweep_list(
    parent: &Parent,
    gain_floor: f64,
    order: &[u32],
    col: &[f64],
    gh: &[[f64; 2]],
) -> Option<(f64, f64)> {
    let mut best: Option<(f64, f64)> = None;
    let mut best_gain = gain_floor;
    let mut left = [0.0; 2];
    for w in 0..order.len() - 1 {
        let r = order[w] as usize;
        left[0] += gh[r][0];
        left[1] += gh[r][1];
        let v_here = col[r];
        let v_next = col[order[w + 1] as usize];
        if v_next <= v_here {
            continue;
        }
        if let Some(gain) = parent.gain(left[0], left[1]).filter(|&gain| gain > best_gain) {
            best_gain = gain;
            best = Some((gain, 0.5 * (v_here + v_next)));
        }
    }
    best
}

impl RegTree {
    fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_tag, push_usize};
        push_usize(out, self.nodes.len());
        for node in &self.nodes {
            match node {
                RNode::Leaf(w) => {
                    push_tag(out, b'L');
                    push_f64(out, *w);
                }
                RNode::Split { feature, threshold, left, right } => {
                    push_tag(out, b'S');
                    push_usize(out, *feature);
                    push_f64(out, *threshold);
                    push_usize(out, *left);
                    push_usize(out, *right);
                }
            }
        }
    }

    fn decode_from(
        parts: &mut cleanml_dataset::codec::Reader<'_>,
        n_features: usize,
    ) -> Option<RegTree> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_nodes = take_usize(parts)?;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for i in 0..n_nodes {
            let node = match cleanml_dataset::codec::take_tag(parts)? {
                b'L' => RNode::Leaf(take_f64(parts)?),
                b'S' => {
                    let feature = take_usize(parts)?;
                    let threshold = take_f64(parts)?;
                    let left = take_usize(parts)?;
                    let right = take_usize(parts)?;
                    // forward-only children: no out-of-bounds, no cycles
                    if feature >= n_features
                        || left <= i
                        || right <= i
                        || left >= n_nodes
                        || right >= n_nodes
                    {
                        return None;
                    }
                    RNode::Split { feature, threshold, left, right }
                }
                _ => return None,
            };
            nodes.push(node);
        }
        if nodes.is_empty() {
            return None;
        }
        Some(RegTree { nodes })
    }
}

impl Gbdt {
    /// Appends the boosted ensemble to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_usize};
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        push_f64(out, self.eta);
        push_usize(out, self.trees.len());
        for round in &self.trees {
            push_usize(out, round.len());
            for tree in round {
                tree.encode_into(out);
            }
        }
    }

    /// Reads an ensemble written by [`Gbdt::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Gbdt> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let eta = take_f64(parts)?;
        let n_rounds = take_usize(parts)?;
        let mut trees = Vec::with_capacity(n_rounds.min(1 << 16));
        for _ in 0..n_rounds {
            let width = take_usize(parts)?;
            if width != n_classes {
                return None;
            }
            let mut round = Vec::with_capacity(width);
            for _ in 0..width {
                round.push(RegTree::decode_from(parts, n_features)?);
            }
            trees.push(round);
        }
        Some(Gbdt { trees, eta, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn ring_data(n: usize) -> FeatureMatrix {
        // class 1 inside a radius, class 0 outside: needs depth >= 2 trees.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = if i % 2 == 0 { 0.5 } else { 2.0 };
            data.push(r * a.cos());
            data.push(r * a.sin());
            labels.push(usize::from(i % 2 == 0));
        }
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    /// The group passes add each 0/1 column's zero rows in its chained
    /// sweep order. Group A opens the matrix (base order: the row buffer)
    /// and group B follows it (base order: A's buckets); every lane's
    /// (ΣG, ΣH) has the bits of a plain left-to-right sum over its zero rows
    /// in chained order, and each group's buckets are the chained order of
    /// its last column.
    #[test]
    fn group_passes_follow_the_chained_order() {
        // hot positions; 3 (A) and 2 (B) mean none. Row 1 is hot in A and
        // in B's first column, so the two stay separate groups.
        let hot_a = [2usize, 0, 3, 1, 0, 2, 3, 1, 0, 2];
        let hot_b = [1usize, 0, 0, 2, 1, 1, 0, 2, 2, 0];
        let n = hot_a.len();
        let mut data = Vec::new();
        for i in 0..n {
            data.extend((0..3).map(|s| if hot_a[i] == s { 1.0 } else { 0.0 }));
            data.extend((0..2).map(|s| if hot_b[i] == s { 1.0 } else { 0.0 }));
        }
        let m = FeatureMatrix::from_parts(data, n, 5, vec![0; n], 2);
        let groups = m.one_hot_groups().groups();
        assert_eq!(groups.iter().map(|g| g.columns()).collect::<Vec<_>>(), [0..3, 3..5]);
        // magnitudes far apart, so a sum's bits depend on its order
        let grad = [1e17, -3.0, 1.0, -1e17, 2.5, 7e-3, 1e16, -2.0, 0.3, 5.0];
        let hess = [0.25, 1e-6, 3e15, 0.5, -3e15, 0.125, 1.0, 2e-3, 0.75, 1e-6];
        let gh: Vec<[f64; 2]> = grad.iter().zip(&hess).map(|(&g, &h)| [g, h]).collect();

        // the chained stages and each column's zero-row sums, plainly
        let mut stage: Vec<u32> = (0..n as u32).collect();
        let mut stages = Vec::new();
        let mut want = Vec::new();
        let mut order_matters = false;
        for j in 0..5 {
            let col = m.col(j);
            stage.sort_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());
            let zeros = stage.iter().filter(|&&r| col[r as usize] == 0.0);
            let sum = zeros
                .clone()
                .fold([0.0; 2], |s, &r| [s[0] + grad[r as usize], s[1] + hess[r as usize]]);
            let mut by_row: Vec<u32> = zeros.copied().collect();
            by_row.sort_unstable();
            let plain = by_row.iter().fold(0.0, |s, &r| s + grad[r as usize]);
            order_matters |= plain.to_bits() != sum[0].to_bits();
            want.push(sum.map(f64::to_bits));
            stages.push(stage.clone());
        }
        assert!(order_matters, "the fixture cannot tell orders apart");

        let rows: Vec<u32> = (0..n as u32).collect();
        let mut lanes = Lanes::default();
        lanes.sum(&groups[0], Some(&rows), &gh);
        let got: Vec<_> = lanes.sums.iter().map(|s| s.map(f64::to_bits)).collect();
        assert_eq!(got, want[0..3]);
        assert_eq!(lanes.bucketed, stages[2]);
        lanes.sum(&groups[1], None, &gh);
        let got: Vec<_> = lanes.sums.iter().map(|s| s.map(f64::to_bits)).collect();
        assert_eq!(got, want[3..5]);
        assert_eq!(lanes.bucketed, stages[4]);
        assert_eq!(lanes.hot_n, [4, 3, 3]);
    }

    #[test]
    fn learns_ring() {
        let data = ring_data(200);
        let model = Gbdt::fit(&GbdtParams::default(), &data, 0).unwrap();
        let preds = model.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.95);
    }

    #[test]
    fn more_rounds_fit_tighter() {
        let data = ring_data(150);
        let short = Gbdt::fit(&GbdtParams { n_rounds: 1, ..Default::default() }, &data, 0).unwrap();
        let long = Gbdt::fit(&GbdtParams { n_rounds: 40, ..Default::default() }, &data, 0).unwrap();
        let a_short = accuracy(data.labels(), &short.predict(&data).unwrap());
        let a_long = accuracy(data.labels(), &long.predict(&data).unwrap());
        assert!(a_long >= a_short);
    }

    #[test]
    fn multiclass_softmax() {
        // three clusters on a line
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let c = i % 3;
            data.push(c as f64 * 5.0 + (i as f64 * 0.11) % 1.0);
            labels.push(c);
        }
        let m = FeatureMatrix::from_parts(data, 90, 1, labels, 3);
        let model = Gbdt::fit(&GbdtParams::default(), &m, 0).unwrap();
        let preds = model.predict(&m).unwrap();
        assert!(accuracy(m.labels(), &preds) > 0.95);
        for row in model.predict_proba(&m).unwrap().chunks_exact(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn regularization_shrinks_leaves() {
        let data = ring_data(100);
        let loose =
            Gbdt::fit(&GbdtParams { lambda: 0.0, n_rounds: 5, ..Default::default() }, &data, 0)
                .unwrap();
        let tight =
            Gbdt::fit(&GbdtParams { lambda: 50.0, n_rounds: 5, ..Default::default() }, &data, 0)
                .unwrap();
        // With huge lambda the raw scores stay near zero -> probabilities near 0.5.
        let p_loose = loose.predict_proba(&data).unwrap();
        let p_tight = tight.predict_proba(&data).unwrap();
        let spread = |p: &[f64]| p.iter().map(|x| (x - 0.5).abs()).sum::<f64>();
        assert!(spread(&p_tight) < spread(&p_loose));
    }

    #[test]
    fn gamma_prunes_splits() {
        let data = ring_data(100);
        let no_gamma =
            Gbdt::fit(&GbdtParams { gamma: 0.0, n_rounds: 3, ..Default::default() }, &data, 0)
                .unwrap();
        let big_gamma =
            Gbdt::fit(&GbdtParams { gamma: 1e9, n_rounds: 3, ..Default::default() }, &data, 0)
                .unwrap();
        let count = |m: &Gbdt| -> usize { m.trees.iter().flatten().map(|t| t.nodes.len()).sum() };
        assert!(count(&big_gamma) < count(&no_gamma));
    }

    #[test]
    fn deterministic() {
        let data = ring_data(60);
        let m1 = Gbdt::fit(&GbdtParams::default(), &data, 0).unwrap();
        let m2 = Gbdt::fit(&GbdtParams::default(), &data, 0).unwrap();
        assert_eq!(m1.predict_proba(&data).unwrap(), m2.predict_proba(&data).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let data = ring_data(10);
        assert!(Gbdt::fit(&GbdtParams { n_rounds: 0, ..Default::default() }, &data, 0).is_err());
        assert!(Gbdt::fit(&GbdtParams { eta: 0.0, ..Default::default() }, &data, 0).is_err());
        assert!(Gbdt::fit(&GbdtParams { lambda: -1.0, ..Default::default() }, &data, 0).is_err());
    }
}
