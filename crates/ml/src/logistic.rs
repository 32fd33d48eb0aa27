//! Multinomial (softmax) logistic regression.
//!
//! Full-batch gradient descent on the cross-entropy loss with L2
//! regularization. Features arrive standardized from the encoder, so a fixed
//! learning-rate schedule converges reliably; the paper's random search is
//! mirrored by sampling the regularization strength.
//!
//! Both passes of the fit read a 0/1 column through the matrix's one-hot
//! groups ([`FeatureMatrix::one_hot_groups`]) and visit only its one rows:
//! pass 1 adds each row's hot weight to its logit, pass 2 adds each row's
//! error to its hot column's gradient. A skipped term is `w·0.0` or
//! `e·0.0`, which is `±0.0` while `w` and `e` are finite, and every
//! accumulator starts at `+0.0`. In round-to-nearest a sum that starts at
//! `+0.0` never becomes `−0.0`, so adding `±0.0` to it changes no bit, and
//! skipping the term gives the dense loop's bits. A class whose group
//! weights or errors are not all finite runs the dense loop.

use std::ops::Range;

use cleanml_dataset::{FeatureMatrix, OneHotGroup};
use rand::Rng;

use crate::error::MlError;
use crate::Result;

/// Hyper-parameters for [`Logistic`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticParams {
    /// L2 penalty weight (λ).
    pub l2: f64,
    /// Initial learning rate; decayed as `lr / (1 + epoch / 50)`.
    pub lr: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams { l2: 1e-3, lr: 0.5, epochs: 120 }
    }
}

impl LogisticParams {
    /// Samples hyper-parameters for random search (λ log-uniform in
    /// [1e-5, 1], the scikit-learn-style `C` sweep).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let log_l2 = rng.random_range(-5.0..0.0);
        LogisticParams { l2: 10f64.powf(log_l2), ..Default::default() }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.l2.is_nan() || self.l2 < 0.0 {
            return Err(MlError::InvalidParam { param: "l2", message: format!("{}", self.l2) });
        }
        if self.lr.is_nan() || self.lr <= 0.0 {
            return Err(MlError::InvalidParam { param: "lr", message: format!("{}", self.lr) });
        }
        if self.epochs == 0 {
            return Err(MlError::InvalidParam { param: "epochs", message: "0".into() });
        }
        Ok(())
    }
}

/// A fitted softmax regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct Logistic {
    /// `n_classes × n_features` weight matrix, row-major by class.
    pub(crate) weights: Vec<f64>,
    /// Per-class intercepts.
    pub(crate) bias: Vec<f64>,
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
}

/// Numerically stable in-place softmax.
pub(crate) fn softmax(logits: &mut [f64]) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for z in logits.iter_mut() {
        *z = (*z - max).exp();
        sum += *z;
    }
    for z in logits.iter_mut() {
        *z /= sum;
    }
}

impl Logistic {
    /// Trains on `data` (features + labels).
    pub fn fit(params: &LogisticParams, data: &FeatureMatrix) -> Result<Logistic> {
        params.validate()?;
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let d = data.n_cols();
        let k = data.n_classes();
        let mut weights = vec![0.0; k * d];
        let mut bias = vec![0.0; k];

        // Preallocated scratch, reused across epochs and class-major
        // (`k × n`): class `c`'s raw logit sums and softmax errors are the
        // contiguous rows `logits[c*n..(c+1)*n]` and `errs[c*n..(c+1)*n]`.
        let labels = data.labels();
        let mut probs = vec![0.0; k];
        let mut logits = vec![0.0; k * n];
        let mut errs = vec![0.0; k * n];
        let mut grad_w = vec![0.0; k * d];
        let mut grad_b = vec![0.0; k];
        // Per group: its weights plus a `+0.0` for rows hot nowhere, or its
        // gradient sums plus a sink for those rows.
        let mut lanes = Vec::new();

        for epoch in 0..params.epochs {
            // Pass 1 — logits, one AXPY per (class, feature) over a
            // contiguous column, or one pass per (class, group) adding each
            // row's hot weight. Each `logits[c,i]` accumulator receives its
            // nonzero feature terms in ascending-`j` order starting from
            // zero (a row-major dot product term for term), with the bias
            // added afterwards. The elements are independent, so
            // vectorizing the AXPY changes no bit.
            logits.fill(0.0);
            for (c, zs) in logits.chunks_exact_mut(n).enumerate() {
                let wc = &weights[c * d..(c + 1) * d];
                for_each_column(data, |cols, group| match group {
                    Some(g) if wc[cols.clone()].iter().all(|w: &f64| w.is_finite()) => {
                        lanes.clear();
                        lanes.extend_from_slice(&wc[cols]);
                        lanes.push(0.0);
                        for (z, &h) in zs.iter_mut().zip(g.hot()) {
                            *z += lanes[usize::from(h)];
                        }
                    }
                    _ => {
                        for (j, &wcj) in cols.clone().zip(&wc[cols]) {
                            for (z, &xij) in zs.iter_mut().zip(data.col(j)) {
                                *z += wcj * xij;
                            }
                        }
                    }
                });
            }
            // Softmax + error per example.
            for (i, &y) in labels.iter().enumerate() {
                for (c, p) in probs.iter_mut().enumerate() {
                    *p = bias[c] + logits[c * n + i];
                }
                softmax(&mut probs);
                for (c, &p) in probs.iter().enumerate() {
                    errs[c * n + i] = p - if c == y { 1.0 } else { 0.0 };
                }
            }
            // Pass 2 — gradients, each a sweep of one class's contiguous
            // errors, or one pass per group adding each row's error to its
            // hot column; every `grad_w[c,j]` and `grad_b[c]` sums its
            // nonzero terms in ascending-`i` order starting from zero.
            for (c, es) in errs.chunks_exact(n).enumerate() {
                let mut finite = None; // checked at the class's first group
                let gc = &mut grad_w[c * d..(c + 1) * d];
                for_each_column(data, |cols, group| match group {
                    Some(g) if *finite.get_or_insert_with(|| es.iter().all(|e| e.is_finite())) => {
                        lanes.clear();
                        lanes.resize(cols.len() + 1, 0.0);
                        for (&e, &h) in es.iter().zip(g.hot()) {
                            lanes[usize::from(h)] += e;
                        }
                        gc[cols.clone()].copy_from_slice(&lanes[..cols.len()]);
                    }
                    _ => {
                        for (j, g) in cols.clone().zip(&mut gc[cols]) {
                            let mut sum = 0.0;
                            for (&e, &xij) in es.iter().zip(data.col(j)) {
                                sum += e * xij;
                            }
                            *g = sum;
                        }
                    }
                });
                let mut sum = 0.0;
                for &e in es {
                    sum += e;
                }
                grad_b[c] = sum;
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

    /// Per-class probabilities for each row (row-major `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let n = data.n_rows();
        let k = self.n_classes;
        let d = self.n_features;
        let mut out = vec![0.0; n * k];
        let mut x = vec![0.0; d];
        for i in 0..n {
            data.read_row(i, &mut x);
            let row = &mut out[i * k..(i + 1) * k];
            for (c, out_c) in row.iter_mut().enumerate() {
                *out_c = self.bias[c] + dot(&self.weights[c * d..(c + 1) * d], &x);
            }
            softmax(row);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(argmax_rows(&probs, self.n_classes))
    }

    /// Weight vector for `class` (exposed for NaCL and tests).
    pub fn class_weights(&self, class: usize) -> &[f64] {
        &self.weights[class * self.n_features..(class + 1) * self.n_features]
    }
}

/// Calls `visit` on the matrix's columns in ascending order: once per
/// one-hot group, with the group's columns, and once per other column.
fn for_each_column(
    data: &FeatureMatrix,
    mut visit: impl FnMut(Range<usize>, Option<&OneHotGroup>),
) {
    let mut groups = data.one_hot_groups().groups().iter().peekable();
    let mut j = 0;
    while j < data.n_cols() {
        let group = groups.next_if(|g| g.start() == j);
        let cols = group.map_or(j..j + 1, OneHotGroup::columns);
        j = cols.end;
        visit(cols, group);
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Row-wise argmax over a flat `n × k` probability matrix. `total_cmp`
/// orders identically to `partial_cmp` for real probability rows (softmax
/// outputs are non-negative) and stays total — no panic — when scores
/// overflowed to NaN, which adversarially corrupted-but-finite decoded
/// weights can produce.
pub(crate) fn argmax_rows(probs: &[f64], k: usize) -> Vec<usize> {
    probs
        .chunks_exact(k)
        .map(|row| {
            row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).expect("k > 0")
        })
        .collect()
}

impl Logistic {
    /// Appends the fitted weights to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::push_usize;
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        crate::codec::push_f64_vec(out, &self.weights);
        crate::codec::push_f64_vec(out, &self.bias);
    }

    /// Reads a model written by [`Logistic::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Logistic> {
        use cleanml_dataset::codec::take_usize;
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let weights = crate::codec::take_f64_vec(parts)?;
        let bias = crate::codec::take_f64_vec(parts)?;
        (weights.len() == n_classes.checked_mul(n_features)? && bias.len() == n_classes)
            .then_some(Logistic { weights, bias, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    /// Linearly separable two-class blob.
    pub(crate) fn blobs(n_per: usize, sep: f64) -> FeatureMatrix {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut s = 1u64;
        let mut next = || {
            // xorshift for test determinism without pulling rand here
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0 - 0.5
        };
        for i in 0..2 * n_per {
            let c = i % 2;
            let offset = if c == 0 { -sep } else { sep };
            data.push(offset + next());
            data.push(offset + next());
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, 2 * n_per, 2, labels, 2)
    }

    #[test]
    fn separable_data_learned() {
        let data = blobs(50, 2.0);
        let model = Logistic::fit(&LogisticParams::default(), &data).unwrap();
        let preds = model.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.95);
    }

    #[test]
    fn probabilities_normalized() {
        let data = blobs(20, 1.0);
        let model = Logistic::fit(&LogisticParams::default(), &data).unwrap();
        let probs = model.predict_proba(&data).unwrap();
        for row in probs.chunks_exact(2) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn l2_shrinks_weights() {
        let data = blobs(50, 2.0);
        let loose =
            Logistic::fit(&LogisticParams { l2: 1e-6, ..Default::default() }, &data).unwrap();
        let tight =
            Logistic::fit(&LogisticParams { l2: 0.5, ..Default::default() }, &data).unwrap();
        let norm = |m: &Logistic| m.weights.iter().map(|w| w * w).sum::<f64>();
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = blobs(10, 1.0);
        let model = Logistic::fit(&LogisticParams::default(), &data).unwrap();
        let other = FeatureMatrix::from_parts(vec![0.0; 5 * 3], 5, 3, vec![0; 5], 2);
        assert!(matches!(
            model.predict(&other),
            Err(MlError::DimensionMismatch { expected: 2, got: 3 })
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let data = blobs(5, 1.0);
        assert!(Logistic::fit(&LogisticParams { l2: -1.0, ..Default::default() }, &data).is_err());
        assert!(Logistic::fit(&LogisticParams { lr: 0.0, ..Default::default() }, &data).is_err());
        assert!(Logistic::fit(&LogisticParams { epochs: 0, ..Default::default() }, &data).is_err());
    }

    #[test]
    fn empty_training_rejected() {
        let data = FeatureMatrix::from_parts(vec![], 0, 0, vec![], 2);
        assert!(matches!(
            Logistic::fit(&LogisticParams::default(), &data),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn softmax_stability() {
        let mut big = [1000.0, 1001.0];
        softmax(&mut big);
        assert!(big.iter().all(|p| p.is_finite()));
        assert!((big.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn param_sampling_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let p = LogisticParams::sample(&mut rng);
            assert!(p.l2 > 0.0 && p.l2 <= 1.0);
        }
    }
}
