//! Test oracle for the tree and logistic-regression kernels: the fit paths
//! as they were before the splitter arena, the class-major LR scratch and
//! the one-hot groups, and properties asserting that every family encodes
//! to the same bytes through either path.
//!
//! The reference CART and GBDT builders sort every column themselves, 0/1
//! columns included, and sweep every column's sorted list; they move each
//! node's membership into freshly allocated per-child `Vec`s. The reference
//! forest copies every bootstrap with `select_rows` and fits the copy with
//! unit weights, so each tree sorts its own copy. The reference logistic
//! regression keeps its logits and softmax errors row-major (`n × k`,
//! stride k) and multiplies every cell. The matrices are tie-heavy on
//! purpose (0/1 columns, small integer grids, duplicated rows): ties are
//! where a multiplicity bootstrap or an in-place partition could reorder a
//! sum. The one-hot matrices add groups of every width from 1 to 6, at
//! column 0, after a numeric column and after another group, so each of
//! the group passes' base orders is exercised.

use cleanml_dataset::FeatureMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::adaboost::{AdaBoost, AdaBoostParams};
use crate::error::MlError;
use crate::forest::{ForestParams, RandomForest};
use crate::gbdt::{score, Gbdt, GbdtParams, GradCtx, RNode, RegTree};
use crate::logistic::{softmax, Logistic, LogisticParams};
use crate::tree::{gini, DecisionTree, Node, TreeParams};
use crate::{codec, FittedModel, Result};

// ---- reference sidecars: every column sorted, 0/1 columns included -------

/// Every column's rows in ascending `(value, row)` order.
fn sorted_cols(data: &FeatureMatrix) -> Vec<Vec<u32>> {
    (0..data.n_cols())
        .map(|j| {
            let col = data.col(j);
            let mut idx: Vec<u32> = (0..data.n_rows() as u32).collect();
            idx.sort_unstable_by(|&a, &b| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            idx
        })
        .collect()
}

/// Every stage of the chained argsort: stage `j` is stage `j − 1` stably
/// sorted by column `j`, stage −1 the identity.
fn sorted_cols_chained(data: &FeatureMatrix) -> Vec<Vec<u32>> {
    let mut ord: Vec<u32> = (0..data.n_rows() as u32).collect();
    (0..data.n_cols())
        .map(|j| {
            let col = data.col(j);
            ord.sort_by(|&a, &b| {
                col[a as usize].partial_cmp(&col[b as usize]).unwrap_or(std::cmp::Ordering::Equal)
            });
            ord.clone()
        })
        .collect()
}

// ---- reference CART builder: per-node `Vec` partitions -------------------

struct BuildCtx<'a> {
    data: &'a FeatureMatrix,
    weights: &'a [f64],
    params: &'a TreeParams,
    rng: StdRng,
    n_classes: usize,
}

/// The reference `DecisionTree::fit_weighted`.
fn fit_tree(
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
    let mut ctx = BuildCtx {
        data,
        weights,
        params,
        rng: StdRng::seed_from_u64(seed),
        n_classes: data.n_classes(),
    };
    let mut nodes = Vec::new();
    let all_rows: Vec<u32> = (0..data.n_rows() as u32).collect();
    build_node(&mut ctx, &mut nodes, all_rows, sorted_cols(data), 0);
    Ok(DecisionTree { nodes, n_features: data.n_cols(), n_classes: data.n_classes() })
}

fn build_node(
    ctx: &mut BuildCtx<'_>,
    nodes: &mut Vec<Node>,
    rows: Vec<u32>,
    lists: Vec<Vec<u32>>,
    depth: usize,
) -> usize {
    let k = ctx.n_classes;
    let mut counts = vec![0.0; k];
    let mut total = 0.0;
    for &r in &rows {
        counts[ctx.data.labels()[r as usize]] += ctx.weights[r as usize];
        total += ctx.weights[r as usize];
    }

    let make_leaf = |counts: &[f64], total: f64| {
        let dist: Vec<f64> = if total > 0.0 {
            counts.iter().map(|&c| c / total).collect()
        } else {
            vec![1.0 / k as f64; k]
        };
        Node::Leaf { dist }
    };

    let node_gini = gini(&counts, total);
    let stop = depth >= ctx.params.max_depth
        || rows.len() < ctx.params.min_samples_split
        || node_gini <= 1e-12;
    if stop {
        let idx = nodes.len();
        nodes.push(make_leaf(&counts, total));
        return idx;
    }

    let best = find_best_split(ctx, &lists, &counts, total, node_gini);
    let Some((feature, threshold)) = best else {
        let idx = nodes.len();
        nodes.push(make_leaf(&counts, total));
        return idx;
    };

    let goes_left = |r: u32| ctx.data.at(r as usize, feature) <= threshold;
    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
        rows.into_iter().partition(|&r| goes_left(r));
    let mut left_lists = Vec::with_capacity(lists.len());
    let mut right_lists = Vec::with_capacity(lists.len());
    for list in lists {
        let (l, r): (Vec<u32>, Vec<u32>) = list.into_iter().partition(|&r| goes_left(r));
        left_lists.push(l);
        right_lists.push(r);
    }

    let idx = nodes.len();
    nodes.push(Node::Leaf { dist: Vec::new() }); // placeholder
    let left = build_node(ctx, nodes, left_rows, left_lists, depth + 1);
    let right = build_node(ctx, nodes, right_rows, right_lists, depth + 1);
    nodes[idx] = Node::Split { feature, threshold, left, right };
    idx
}

fn find_best_split(
    ctx: &mut BuildCtx<'_>,
    lists: &[Vec<u32>],
    counts: &[f64],
    total: f64,
    node_gini: f64,
) -> Option<(usize, f64)> {
    let d = ctx.data.n_cols();
    let k = ctx.n_classes;

    let feature_pool: Vec<usize> = match ctx.params.max_features {
        Some(m) if m < d => {
            let mut all: Vec<usize> = (0..d).collect();
            all.shuffle(&mut ctx.rng);
            all.truncate(m);
            all
        }
        _ => (0..d).collect(),
    };

    let mut best: Option<(usize, f64)> = None;
    let mut best_gain = 1e-12;
    let mut left_counts = vec![0.0; k];

    for &f in &feature_pool {
        let order = &lists[f];
        let col = ctx.data.col(f);

        left_counts.iter_mut().for_each(|c| *c = 0.0);
        let mut left_total = 0.0;
        let mut left_n = 0usize;

        for w in 0..order.len() - 1 {
            let r = order[w] as usize;
            left_counts[ctx.data.labels()[r]] += ctx.weights[r];
            left_total += ctx.weights[r];
            left_n += 1;

            let v_here = col[r];
            let v_next = col[order[w + 1] as usize];
            if v_next <= v_here {
                continue;
            }
            let right_n = order.len() - left_n;
            if left_n < ctx.params.min_samples_leaf || right_n < ctx.params.min_samples_leaf {
                continue;
            }
            let right_total = total - left_total;
            let right_counts: Vec<f64> =
                counts.iter().zip(&left_counts).map(|(c, l)| c - l).collect();
            let weighted = (left_total * gini(&left_counts, left_total)
                + right_total * gini(&right_counts, right_total))
                / total;
            let gain = node_gini - weighted;
            if gain > best_gain {
                best_gain = gain;
                best = Some((f, 0.5 * (v_here + v_next)));
            }
        }
    }
    best
}

// ---- reference forest: `select_rows` copy + unit-weight fit per tree -----

/// The reference `RandomForest::fit`.
fn fit_forest(params: &ForestParams, data: &FeatureMatrix, seed: u64) -> Result<RandomForest> {
    if params.n_trees == 0 {
        return Err(MlError::InvalidParam { param: "n_trees", message: "0".into() });
    }
    let n = data.n_rows();
    if n == 0 {
        return Err(MlError::EmptyTrainingSet);
    }
    let d = data.n_cols();
    let max_features =
        params.max_features.unwrap_or_else(|| (d as f64).sqrt().ceil() as usize).clamp(1, d);
    let tree_params = TreeParams {
        max_depth: params.max_depth,
        min_samples_split: 2,
        min_samples_leaf: params.min_samples_leaf,
        max_features: Some(max_features),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let boots: Vec<Vec<usize>> =
        (0..params.n_trees).map(|_| (0..n).map(|_| rng.random_range(0..n)).collect()).collect();
    let trees = boots
        .iter()
        .enumerate()
        .map(|(t, boot)| {
            let sample = data.select_rows(boot);
            let tree_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t as u64);
            fit_tree(&tree_params, &sample, &vec![1.0; n], tree_seed)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(RandomForest { trees, n_features: d, n_classes: data.n_classes() })
}

// ---- reference GBDT builder: per-node `Vec` partitions -------------------

/// The reference regression-tree builder, for [`Gbdt::fit_with`].
fn grow_reg_tree(ctx: &GradCtx<'_>) -> RegTree {
    let rows: Vec<u32> = (0..ctx.data.n_rows() as u32).collect();
    let mut nodes = Vec::new();
    build_reg_node(ctx, &mut nodes, rows, sorted_cols_chained(ctx.data), 0);
    RegTree { nodes }
}

fn build_reg_node(
    ctx: &GradCtx<'_>,
    nodes: &mut Vec<RNode>,
    rows: Vec<u32>,
    lists: Vec<Vec<u32>>,
    depth: usize,
) -> usize {
    let g_total: f64 = rows.iter().map(|&r| ctx.gh[r as usize][0]).sum();
    let h_total: f64 = rows.iter().map(|&r| ctx.gh[r as usize][1]).sum();
    let lambda = ctx.params.lambda;

    let leaf_weight = -g_total / (h_total + lambda);
    if depth >= ctx.params.max_depth || rows.len() < 2 {
        let idx = nodes.len();
        nodes.push(RNode::Leaf(leaf_weight));
        return idx;
    }

    let parent_score = score(g_total, h_total, lambda);
    let gain_floor = ctx.params.gamma.max(1e-12);
    let mut best: Option<(usize, f64)> = None;
    let mut best_gain = gain_floor;
    for (f, order) in lists.iter().enumerate() {
        let col = ctx.data.col(f);
        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in 0..order.len() - 1 {
            let r = order[w] as usize;
            gl += ctx.gh[r][0];
            hl += ctx.gh[r][1];
            let v_here = col[r];
            let v_next = col[order[w + 1] as usize];
            if v_next <= v_here {
                continue;
            }
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < ctx.params.min_child_weight || hr < ctx.params.min_child_weight {
                continue;
            }
            let gain = 0.5 * (score(gl, hl, lambda) + score(gr, hr, lambda) - parent_score);
            if gain > best_gain {
                best_gain = gain;
                best = Some((f, 0.5 * (v_here + v_next)));
            }
        }
    }

    let Some((feature, threshold)) = best else {
        let idx = nodes.len();
        nodes.push(RNode::Leaf(leaf_weight));
        return idx;
    };

    let goes_left = |r: u32| ctx.data.at(r as usize, feature) <= threshold;
    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
        rows.into_iter().partition(|&r| goes_left(r));
    let mut left_lists = Vec::with_capacity(lists.len());
    let mut right_lists = Vec::with_capacity(lists.len());
    for list in lists {
        let (l, r): (Vec<u32>, Vec<u32>) = list.into_iter().partition(|&r| goes_left(r));
        left_lists.push(l);
        right_lists.push(r);
    }

    let idx = nodes.len();
    nodes.push(RNode::Leaf(0.0)); // placeholder
    let left = build_reg_node(ctx, nodes, left_rows, left_lists, depth + 1);
    let right = build_reg_node(ctx, nodes, right_rows, right_lists, depth + 1);
    nodes[idx] = RNode::Split { feature, threshold, left, right };
    idx
}

// ---- reference logistic regression: row-major `n × k` scratch ------------

/// The reference `Logistic::fit`.
fn fit_logistic(params: &LogisticParams, data: &FeatureMatrix) -> Result<Logistic> {
    params.validate()?;
    let n = data.n_rows();
    if n == 0 {
        return Err(MlError::EmptyTrainingSet);
    }
    let d = data.n_cols();
    let k = data.n_classes();
    let mut weights = vec![0.0; k * d];
    let mut bias = vec![0.0; k];

    let mut probs = vec![0.0; k];
    let mut logits = vec![0.0; n * k];
    let mut errs = vec![0.0; n * k];
    let mut grad_w = vec![0.0; k * d];
    let mut grad_b = vec![0.0; k];

    for epoch in 0..params.epochs {
        grad_w.iter_mut().for_each(|g| *g = 0.0);
        grad_b.iter_mut().for_each(|g| *g = 0.0);

        logits.iter_mut().for_each(|z| *z = 0.0);
        for c in 0..k {
            for j in 0..d {
                let wcj = weights[c * d + j];
                let col = data.col(j);
                for (i, &xij) in col.iter().enumerate() {
                    logits[i * k + c] += wcj * xij;
                }
            }
        }
        for i in 0..n {
            for c in 0..k {
                probs[c] = bias[c] + logits[i * k + c];
            }
            softmax(&mut probs);
            let y = data.labels()[i];
            for c in 0..k {
                errs[i * k + c] = probs[c] - if c == y { 1.0 } else { 0.0 };
            }
        }
        for c in 0..k {
            for j in 0..d {
                let g = &mut grad_w[c * d + j];
                let col = data.col(j);
                for (i, &xij) in col.iter().enumerate() {
                    *g += errs[i * k + c] * xij;
                }
            }
            let gb = &mut grad_b[c];
            for i in 0..n {
                *gb += errs[i * k + c];
            }
        }

        let lr = params.lr / (1.0 + epoch as f64 / 50.0);
        let scale = lr / n as f64;
        for (w, g) in weights.iter_mut().zip(&grad_w) {
            *w -= scale * g + lr * params.l2 * *w;
        }
        for (b, g) in bias.iter_mut().zip(&grad_b) {
            *b -= scale * g;
        }
    }

    Ok(Logistic { weights, bias, n_features: d, n_classes: k })
}

// ---- properties ----------------------------------------------------------

/// A tie-heavy matrix of `n` rows, `d` columns and `k` classes. Each
/// column is an independent 0/1 indicator or a grid of 3–5 integer levels,
/// and about a third of the rows duplicate an earlier row's features
/// (keeping its label half the time, so some duplicates conflict). Several
/// indicators can be 1 in one row, so they only ever form one-hot groups of
/// one; [`one_hot_matrix`] builds wider groups.
fn tie_matrix(n: usize, d: usize, k: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let levels: Vec<u32> = (0..d).map(|_| rng.random_range(2..6)).collect();
    let mut data: Vec<f64> = Vec::with_capacity(n * d);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = if i > 0 && rng.random_range(0..3) == 0 {
            let src = rng.random_range(0..i);
            data.extend_from_within(src * d..(src + 1) * d);
            if rng.random_range(0..2) == 0 {
                labels[src]
            } else {
                rng.random_range(0..k)
            }
        } else {
            for &l in &levels {
                let level = f64::from(rng.random_range(0..l));
                data.push(if l == 2 { level } else { level - 2.0 });
            }
            rng.random_range(0..k)
        };
        labels.push(label);
    }
    FeatureMatrix::from_parts(data, n, d, labels, k)
}

fn arb_ties() -> impl Strategy<Value = FeatureMatrix> {
    (2usize..64, 1usize..7, 2usize..5, any::<u64>())
        .prop_map(|(n, d, k, seed)| tie_matrix(n, d, k, seed))
}

/// A one-hot matrix of `n` rows and `k` classes: one to five blocks in a
/// seeded order, each either one or two integer-grid columns (3–5 levels)
/// or a one-hot group of width 1–6. About one row in eight is hot nowhere
/// in a group, and about a third of the rows duplicate an earlier row's
/// features (keeping its label half the time). Adjacent groups usually
/// stay two groups, since most rows are hot in both; a group can also
/// open the matrix or follow a grid column.
fn one_hot_matrix(n: usize, k: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    // per block: (is a group, width, grid levels)
    let blocks: Vec<(bool, usize, u32)> = (0..rng.random_range(1..6))
        .map(|_| {
            if rng.random_range(0..3) == 0 {
                (false, rng.random_range(1..3), rng.random_range(3..6))
            } else {
                (true, rng.random_range(1..7), 0)
            }
        })
        .collect();
    let d: usize = blocks.iter().map(|b| b.1).sum();
    let mut data: Vec<f64> = Vec::with_capacity(n * d);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = if i > 0 && rng.random_range(0..3) == 0 {
            let src = rng.random_range(0..i);
            data.extend_from_within(src * d..(src + 1) * d);
            if rng.random_range(0..2) == 0 {
                labels[src]
            } else {
                rng.random_range(0..k)
            }
        } else {
            for &(group, width, levels) in &blocks {
                if group {
                    let hot = (rng.random_range(0..8) != 0).then(|| rng.random_range(0..width));
                    data.extend((0..width).map(|s| if hot == Some(s) { 1.0 } else { 0.0 }));
                } else {
                    for _ in 0..width {
                        data.push(f64::from(rng.random_range(0..levels)) - 2.0);
                    }
                }
            }
            rng.random_range(0..k)
        };
        labels.push(label);
    }
    FeatureMatrix::from_parts(data, n, d, labels, k)
}

fn arb_one_hot() -> impl Strategy<Value = FeatureMatrix> {
    (2usize..64, 2usize..5, any::<u64>()).prop_map(|(n, k, seed)| one_hot_matrix(n, k, seed))
}

/// `(n, d)` for the logistic property: a free shape, a single feature, or
/// fewer rows (1–6) than features (7–16).
fn arb_lr_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..64, 1usize..11, 0usize..3).prop_map(|(n, d, shape)| match shape {
        0 => (n, d),
        1 => (n, 1),
        _ => (1 + n % 6, 6 + d),
    })
}

fn bytes(model: FittedModel) -> Vec<u8> {
    codec::encode_model(&model)
}

type Checked = std::result::Result<(), TestCaseError>;

/// Unit-weight and fractional-weight trees encode exactly as the reference
/// builder's.
fn check_tree(m: &FeatureMatrix, params: &TreeParams, seed: u64) -> Checked {
    let n = m.n_rows();
    let mut rng = StdRng::seed_from_u64(seed);
    let fractional: Vec<f64> = (0..n).map(|_| rng.random_range(0.01..1.0)).collect();
    for weights in [vec![1.0; n], fractional] {
        let got = DecisionTree::fit_weighted(params, m, &weights, seed).expect("fit");
        let want = fit_tree(params, m, &weights, seed).expect("reference fit");
        prop_assert_eq!(bytes(FittedModel::Tree(got)), bytes(FittedModel::Tree(want)));
    }
    Ok(())
}

fn check_forest(m: &FeatureMatrix, params: &ForestParams, seed: u64) -> Checked {
    let got = RandomForest::fit(params, m, seed).expect("fit");
    let want = fit_forest(params, m, seed).expect("reference fit");
    prop_assert_eq!(bytes(FittedModel::Forest(got)), bytes(FittedModel::Forest(want)));
    Ok(())
}

fn check_adaboost(m: &FeatureMatrix, params: &AdaBoostParams, seed: u64) -> Checked {
    let got = AdaBoost::fit(params, m, seed).expect("fit");
    let want = AdaBoost::fit_with(params, m, seed, fit_tree).expect("reference fit");
    prop_assert_eq!(bytes(FittedModel::AdaBoost(got)), bytes(FittedModel::AdaBoost(want)));
    Ok(())
}

fn check_gbdt(m: &FeatureMatrix, params: &GbdtParams) -> Checked {
    let got = Gbdt::fit(params, m, 0).expect("fit");
    let want = Gbdt::fit_with(params, m, grow_reg_tree).expect("reference fit");
    prop_assert_eq!(bytes(FittedModel::Gbdt(got)), bytes(FittedModel::Gbdt(want)));
    Ok(())
}

fn check_logistic(m: &FeatureMatrix, params: &LogisticParams) -> Checked {
    let got = Logistic::fit(params, m).expect("fit");
    let want = fit_logistic(params, m).expect("reference fit");
    prop_assert_eq!(bytes(FittedModel::Logistic(got)), bytes(FittedModel::Logistic(want)));
    Ok(())
}

fn tree_params(
    max_depth: usize,
    min_samples_leaf: usize,
    min_samples_split: usize,
    max_features: usize,
) -> TreeParams {
    TreeParams {
        max_depth,
        min_samples_split,
        min_samples_leaf,
        max_features: (max_features > 0).then_some(max_features),
    }
}

fn forest_params(
    n_trees: usize,
    max_depth: usize,
    min_samples_leaf: usize,
    max_features: usize,
) -> ForestParams {
    ForestParams {
        n_trees,
        max_depth,
        min_samples_leaf,
        max_features: (max_features > 0).then_some(max_features),
    }
}

fn adaboost_params(n_rounds: usize, base_depth: usize, halve_rate: bool) -> AdaBoostParams {
    AdaBoostParams { n_rounds, base_depth, learning_rate: if halve_rate { 0.5 } else { 1.0 } }
}

fn gbdt_params(n_rounds: usize, max_depth: usize, lambda: usize, gamma: bool) -> GbdtParams {
    GbdtParams {
        n_rounds,
        max_depth,
        lambda: [0.5, 1.0, 2.0][lambda],
        gamma: if gamma { 0.1 } else { 0.0 },
        ..GbdtParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit-weight and fractional-weight trees, with and without feature
    /// subsampling, encode exactly as the reference builder's.
    #[test]
    fn decision_tree_matches_reference(
        m in arb_ties(),
        max_depth in 1usize..15,
        min_samples_leaf in 1usize..5,
        min_samples_split in 2usize..6,
        max_features in 0usize..4,
        seed in any::<u64>(),
    ) {
        let params = tree_params(max_depth, min_samples_leaf, min_samples_split, max_features);
        check_tree(&m, &params, seed)?;
    }

    /// The multiplicity bootstrap encodes exactly as `select_rows` copies.
    #[test]
    fn random_forest_matches_reference(
        m in arb_ties(),
        n_trees in 1usize..6,
        max_depth in 1usize..15,
        min_samples_leaf in 1usize..5,
        max_features in 0usize..4,
        seed in any::<u64>(),
    ) {
        check_forest(&m, &forest_params(n_trees, max_depth, min_samples_leaf, max_features), seed)?;
    }

    /// SAMME over arena stumps and shallow trees encodes exactly as over
    /// the reference builder's.
    #[test]
    fn adaboost_matches_reference(
        m in arb_ties(),
        n_rounds in 1usize..12,
        base_depth in 1usize..5,
        halve_rate in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        check_adaboost(&m, &adaboost_params(n_rounds, base_depth, halve_rate), seed)?;
    }

    /// Gradient-boosted trees encode exactly as the reference builder's.
    #[test]
    fn gbdt_matches_reference(
        m in arb_ties(),
        n_rounds in 1usize..6,
        max_depth in 1usize..8,
        lambda in 0usize..3,
        gamma in prop::bool::ANY,
    ) {
        check_gbdt(&m, &gbdt_params(n_rounds, max_depth, lambda, gamma))?;
    }

    /// Class-major logistic regression encodes exactly as the reference's
    /// row-major loop for 2, 3 and 4 classes on one tie-heavy matrix
    /// shape: free, one feature, or fewer rows than features.
    #[test]
    fn logistic_matches_reference(
        shape in arb_lr_shape(),
        log_l2 in -5.0f64..0.0,
        epochs in 1usize..151,
        seed in any::<u64>(),
    ) {
        let (n, d) = shape;
        let params = LogisticParams { l2: 10f64.powf(log_l2), epochs, ..Default::default() };
        for k in 2..5 {
            check_logistic(&tie_matrix(n, d, k, seed), &params)?;
        }
    }

    /// On one-hot groups, where every-column nodes take one masked pass
    /// per group and subsampled nodes one scan per 0/1 column, trees with
    /// unit and fractional weights, with and without feature subsampling,
    /// encode exactly as the reference builder's.
    #[test]
    fn decision_tree_matches_reference_on_one_hot_groups(
        m in arb_one_hot(),
        max_depth in 1usize..15,
        min_samples_leaf in 1usize..5,
        min_samples_split in 2usize..6,
        max_features in 0usize..4,
        seed in any::<u64>(),
    ) {
        let params = tree_params(max_depth, min_samples_leaf, min_samples_split, max_features);
        check_tree(&m, &params, seed)?;
    }

    /// Bootstrap trees scan their drawn rows for each sampled 0/1 column
    /// and encode exactly as the reference forest's.
    #[test]
    fn random_forest_matches_reference_on_one_hot_groups(
        m in arb_one_hot(),
        n_trees in 1usize..6,
        max_depth in 1usize..15,
        min_samples_leaf in 1usize..5,
        max_features in 0usize..4,
        seed in any::<u64>(),
    ) {
        check_forest(&m, &forest_params(n_trees, max_depth, min_samples_leaf, max_features), seed)?;
    }

    /// SAMME's fractional weights through the masked group passes encode
    /// exactly as through the reference builder.
    #[test]
    fn adaboost_matches_reference_on_one_hot_groups(
        m in arb_one_hot(),
        n_rounds in 1usize..12,
        base_depth in 1usize..5,
        halve_rate in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        check_adaboost(&m, &adaboost_params(n_rounds, base_depth, halve_rate), seed)?;
    }

    /// GBDT's two group passes, from each kind of base order, encode
    /// exactly as the reference's chained-list sweeps.
    #[test]
    fn gbdt_matches_reference_on_one_hot_groups(
        m in arb_one_hot(),
        n_rounds in 1usize..6,
        max_depth in 1usize..8,
        lambda in 0usize..3,
        gamma in prop::bool::ANY,
    ) {
        check_gbdt(&m, &gbdt_params(n_rounds, max_depth, lambda, gamma))?;
    }

    /// Logistic regression's one-row group passes encode exactly as the
    /// reference's dense loop for 2, 3 and 4 classes, and so does the dense
    /// fallback: a learning rate of 1e300 overflows the weights, and then
    /// the errors, to non-finite values within a few epochs.
    #[test]
    fn logistic_matches_reference_on_one_hot_groups(
        n in 1usize..64,
        log_l2 in -5.0f64..0.0,
        epochs in 1usize..151,
        overflow in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let lr = if overflow { 1e300 } else { LogisticParams::default().lr };
        let params = LogisticParams { l2: 10f64.powf(log_l2), lr, epochs };
        for k in 2..5 {
            check_logistic(&one_hot_matrix(n, k, seed), &params)?;
        }
    }
}

/// The one-hot matrices reach every group width from 1 to 6 and each of
/// the GBDT group passes' base orders, and the overflowing learning rate
/// reaches logistic regression's dense fallback.
#[test]
fn one_hot_matrices_cover_every_group_kind() {
    let (mut at_zero, mut after_list, mut after_group) = (false, false, false);
    let mut widths = std::collections::BTreeSet::new();
    for seed in 0..32 {
        let m = one_hot_matrix(48, 2, seed);
        let one_hot = m.one_hot_groups();
        for g in one_hot.groups() {
            widths.insert(g.width());
            match g.start().checked_sub(1) {
                None => at_zero = true,
                Some(before) if one_hot.is_binary(before) => after_group = true,
                Some(_) => after_list = true,
            }
        }
    }
    assert!(at_zero && after_list && after_group, "{at_zero} {after_list} {after_group}");
    assert!((1..=6).all(|w| widths.contains(&w)), "{widths:?}");
    let params = LogisticParams { lr: 1e300, epochs: 5, ..Default::default() };
    let model = Logistic::fit(&params, &one_hot_matrix(48, 2, 1)).unwrap();
    assert!(model.weights.iter().any(|w| !w.is_finite()));
}

/// The widest GBDT input in the suite (3000 rows × 6 columns, tie-heavy,
/// three classes), far past `arb_ties`' 64 rows.
#[test]
fn gbdt_on_a_wide_tie_matrix_matches_reference() {
    let m = tie_matrix(3000, 6, 3, 11);
    let params = GbdtParams { n_rounds: 2, max_depth: 4, ..GbdtParams::default() };
    let want = bytes(FittedModel::Gbdt(Gbdt::fit_with(&params, &m, grow_reg_tree).unwrap()));
    let got = Gbdt::fit(&params, &m, 0).unwrap();
    assert_eq!(bytes(FittedModel::Gbdt(got)), want);
}
