//! ZeroER's generative core: a two-component Gaussian mixture over record-
//! pair similarity vectors, fit by EM with zero labeled examples.
//!
//! ZeroER (Wu et al., SIGMOD'20) observes that the similarity vectors of
//! matching and non-matching record pairs form two clusters; fitting a
//! 2-component GMM by expectation–maximization separates them without any
//! labels, and the component with the higher mean similarity is the *match*
//! class. This module implements exactly that core (diagonal covariance,
//! deterministic initialization from the similarity ranking); ZeroER's
//! blocking refinements and transitivity post-processing are omitted — see
//! the README's *Substitutions* section.

/// A flat column-major matrix of pair-similarity vectors: dimension `d` of
/// all `n` pairs occupies the contiguous slice `data[d*n..(d+1)*n]`, mirroring
/// the columnar arena used by `FeatureMatrix`. The fixed width makes ragged
/// input unrepresentable and gives the EM M-step contiguous per-dimension
/// sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMatrix {
    data: Vec<f64>,
    n: usize,
    dim: usize,
}

impl SimMatrix {
    /// An `n × dim` matrix of zeros.
    pub fn zeroed(n: usize, dim: usize) -> SimMatrix {
        SimMatrix { data: vec![0.0; n * dim], n, dim }
    }

    /// Number of pairs (rows).
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Similarity-vector width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Value of dimension `d` for pair `i`.
    #[inline(always)]
    pub fn at(&self, i: usize, d: usize) -> f64 {
        self.data[d * self.n + i]
    }

    /// Contiguous column view of dimension `d` across all pairs.
    pub fn col(&self, d: usize) -> &[f64] {
        &self.data[d * self.n..(d + 1) * self.n]
    }

    /// Scatters one pair's similarity vector into the arena.
    pub fn set_row(&mut self, i: usize, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "similarity vector width mismatch");
        for (d, &v) in row.iter().enumerate() {
            self.data[d * self.n + i] = v;
        }
    }

    /// Gathers pair `i`'s similarity vector into `out`.
    pub fn read_row(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "similarity vector width mismatch");
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.data[d * self.n + i];
        }
    }
}

/// A fitted 2-component diagonal Gaussian mixture.
///
/// Component 0 is *unmatch*, component 1 is *match* (higher mean similarity).
#[derive(Debug, Clone)]
pub struct PairGmm {
    pub(crate) means: [Vec<f64>; 2],
    pub(crate) vars: [Vec<f64>; 2],
    /// Per-dimension means of the seed pairs; the match component is
    /// anchored near them (see the regularization constants).
    seed_means: Vec<f64>,
    /// Prior probability of the match component.
    pub(crate) match_prior: f64,
    dim: usize,
    /// `ln(2πσ²)` per component and dimension, and `[ln(1 − prior),
    /// ln(prior)]`: the parameters' constant terms, recomputed by
    /// [`PairGmm::refresh`] whenever the parameters change instead of
    /// once per pair and dimension.
    ln_norm: [Vec<f64>; 2],
    ln_prior: [f64; 2],
}

/// Variance floor to keep densities finite on degenerate features.
pub(crate) const VAR_FLOOR: f64 = 1e-4;
/// Cap on EM rounds. EM stops earlier at a bitwise fixed point: once an E
/// step reproduces every responsibility bit for bit, the M step (a pure
/// function of the responsibilities) would return the same parameters in
/// every later round. The quick study's eight fits reach it between
/// rounds 3 and 47.
pub(crate) const EM_ITERS: usize = 50;
/// Regularized-EM constraints, in the spirit of ZeroER's feature
/// regularization: true matches are rare, near-identical, and stochastically
/// dominate non-matches on every similarity feature. Without them, EM on the
/// continuous "share-some-tokens" similarity shoulder of real text data
/// drifts the match component downward until it absorbs a large fraction of
/// candidate pairs.
pub(crate) const MAX_MATCH_PRIOR: f64 = 0.02;
pub(crate) const MAX_MATCH_VAR: f64 = 0.02;
/// Floor on the unmatch variance, equal to the match cap: without it the
/// unmatch component's tighter tails make mid-similarity points *relatively*
/// more likely under the broad match Gaussian, flooding the result with
/// false positives (the tied-covariance robustification).
pub(crate) const MIN_UNMATCH_VAR: f64 = MAX_MATCH_VAR;
pub(crate) const DOMINANCE_GAP: f64 = 0.2;
/// How far below its seed mean the match component may drift per feature.
pub(crate) const SEED_SLACK: f64 = 0.1;

impl PairGmm {
    /// Fits the mixture to `points` (each a similarity vector in `[0,1]^d`).
    ///
    /// Initialization is deterministic and anchored at genuinely similar
    /// pairs: seeds are the pairs with mean similarity ≥ 0.8 (falling back
    /// to the top 0.1% by rank, at least 3 pairs, when none clear the bar).
    /// In entity resolution true matches are a tiny fraction of candidate
    /// pairs, so a large seed set would let EM converge to a
    /// "somewhat similar" cluster instead of the match cluster. Returns
    /// `None` when there are fewer than 2 points or zero dimensions.
    pub fn fit(points: &SimMatrix) -> Option<PairGmm> {
        let n = points.n_rows();
        if n < 2 {
            return None;
        }
        let dim = points.dim();
        if dim == 0 {
            return None;
        }

        let mean_sim = |i: usize| (0..dim).map(|d| points.at(i, d)).sum::<f64>() / dim as f64;
        let mut seeds: Vec<usize> = (0..n).filter(|&i| mean_sim(i) >= 0.8).collect();
        if seeds.len() < 3 {
            let mut ranked: Vec<usize> = (0..n).collect();
            ranked.sort_by(|&a, &b| {
                mean_sim(b).partial_cmp(&mean_sim(a)).expect("finite sims").then(a.cmp(&b))
            });
            let n_top = (n / 1000).max(3).min(n - 1);
            seeds = ranked[..n_top].to_vec();
        }
        let n_match_init = seeds.len();

        let mut resp: Vec<f64> = vec![0.0; n]; // P(match | point)
        for &i in &seeds {
            resp[i] = 1.0;
        }

        let mut seed_means = vec![0.0; dim];
        for &i in &seeds {
            for (d, m) in seed_means.iter_mut().enumerate() {
                *m += points.at(i, d);
            }
        }
        for m in &mut seed_means {
            *m /= n_match_init as f64;
        }

        let mut gmm = PairGmm {
            means: [vec![0.0; dim], vec![0.0; dim]],
            vars: [vec![VAR_FLOOR; dim], vec![VAR_FLOOR; dim]],
            seed_means,
            match_prior: (n_match_init as f64 / n as f64).min(MAX_MATCH_PRIOR),
            dim,
            ln_norm: [vec![0.0; dim], vec![0.0; dim]],
            ln_prior: [0.0; 2],
        };
        gmm.refresh();

        let mut row = vec![0.0; dim];
        for _ in 0..EM_ITERS {
            // M step, swept over contiguous per-dimension columns; every
            // accumulator still receives its pairs in ascending order.
            let w1: f64 = resp.iter().sum();
            let w0 = n as f64 - w1;
            if w1 < 1e-9 || w0 < 1e-9 {
                break; // collapsed; keep previous parameters
            }
            for d in 0..dim {
                let col = points.col(d);
                let m1: f64 = col.iter().zip(&resp).map(|(p, r)| r * p).sum::<f64>() / w1;
                let m0: f64 = col.iter().zip(&resp).map(|(p, r)| (1.0 - r) * p).sum::<f64>() / w0;
                let v1: f64 =
                    col.iter().zip(&resp).map(|(p, r)| r * (p - m1) * (p - m1)).sum::<f64>() / w1;
                let v0: f64 = col
                    .iter()
                    .zip(&resp)
                    .map(|(p, r)| (1.0 - r) * (p - m0) * (p - m0))
                    .sum::<f64>()
                    / w0;
                gmm.means[0][d] = m0;
                // Dominance constraint (match above unmatch on every
                // feature) plus seed anchoring (no drifting down the
                // similarity shoulder away from the near-identical seeds).
                gmm.means[1][d] =
                    m1.max(m0 + DOMINANCE_GAP).max(gmm.seed_means[d] - SEED_SLACK).min(1.0);
                gmm.vars[0][d] = v0.max(MIN_UNMATCH_VAR);
                // Matches are near-identical: cap their spread.
                gmm.vars[1][d] = v1.clamp(VAR_FLOOR, MAX_MATCH_VAR);
            }
            gmm.match_prior = (w1 / n as f64).clamp(1e-6, MAX_MATCH_PRIOR);
            gmm.refresh();

            // E step; a round that moves no responsibility is a fixed point.
            let mut moved = false;
            for (i, r) in resp.iter_mut().enumerate() {
                points.read_row(i, &mut row);
                let p = gmm.posterior_match(&row);
                moved |= p.to_bits() != r.to_bits();
                *r = p;
            }
            if !moved {
                break;
            }
        }

        // Enforce the match component to be the higher-similarity one.
        let mean1: f64 = gmm.means[1].iter().sum();
        let mean0: f64 = gmm.means[0].iter().sum();
        if mean1 < mean0 {
            gmm.means.swap(0, 1);
            gmm.vars.swap(0, 1);
            gmm.match_prior = 1.0 - gmm.match_prior;
            gmm.refresh();
        }
        Some(gmm)
    }

    /// Two identical components under an even prior, so every posterior
    /// is exactly 0.5 (a test fixture).
    #[cfg(test)]
    pub(crate) fn tied(dim: usize) -> PairGmm {
        let mut gmm = PairGmm {
            means: [vec![0.5; dim], vec![0.5; dim]],
            vars: [vec![1.0; dim], vec![1.0; dim]],
            seed_means: vec![0.5; dim],
            match_prior: 0.5,
            dim,
            ln_norm: [vec![0.0; dim], vec![0.0; dim]],
            ln_prior: [0.0; 2],
        };
        gmm.refresh();
        gmm
    }

    /// Recomputes the constant terms from the current variances and prior.
    fn refresh(&mut self) {
        for (ln_norm, vars) in self.ln_norm.iter_mut().zip(&self.vars) {
            for (ln, &var) in ln_norm.iter_mut().zip(vars) {
                *ln = (2.0 * std::f64::consts::PI * var).ln();
            }
        }
        self.ln_prior = [(1.0 - self.match_prior).ln(), self.match_prior.ln()];
    }

    /// Posterior probability that `point` is a matching pair.
    pub fn posterior_match(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.dim, "dimension mismatch");
        let ll1 = self.log_density(point, 1) + self.ln_prior[1];
        let ll0 = self.log_density(point, 0) + self.ln_prior[0];
        let max = ll1.max(ll0);
        let e1 = (ll1 - max).exp();
        let e0 = (ll0 - max).exp();
        e1 / (e1 + e0)
    }

    fn log_density(&self, point: &[f64], comp: usize) -> f64 {
        let mut ll = 0.0;
        let params = self.means[comp].iter().zip(&self.vars[comp]).zip(&self.ln_norm[comp]);
        for (p, ((m, &var), ln_norm)) in point[..self.dim].iter().zip(params) {
            let dev = p - m;
            ll += -0.5 * (ln_norm + dev * dev / var);
        }
        ll
    }

    /// Mean vector of the match component (diagnostics).
    pub fn match_mean(&self) -> &[f64] {
        &self.means[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 90 low-similarity pairs + 10 high-similarity pairs.
    fn bimodal_points() -> SimMatrix {
        let mut pts = SimMatrix::zeroed(100, 3);
        for i in 0..90 {
            let jitter = (i as f64 * 0.37).sin() * 0.05;
            pts.set_row(i, &[0.2 + jitter, 0.15 - jitter, 0.25 + jitter * 0.5]);
        }
        for i in 0..10 {
            let jitter = (i as f64 * 0.71).cos() * 0.03;
            pts.set_row(90 + i, &[0.92 + jitter, 0.88 - jitter, 0.95 + jitter * 0.5]);
        }
        pts
    }

    fn row_of(pts: &SimMatrix, i: usize) -> Vec<f64> {
        let mut out = vec![0.0; pts.dim()];
        pts.read_row(i, &mut out);
        out
    }

    #[test]
    fn separates_bimodal_similarities() {
        let pts = bimodal_points();
        let gmm = PairGmm::fit(&pts).unwrap();
        // match mean clearly above unmatch mean
        let m1: f64 = gmm.match_mean().iter().sum::<f64>() / 3.0;
        assert!(m1 > 0.7, "match mean {m1}");
        // posteriors classify correctly
        for i in 0..90 {
            let p = row_of(&pts, i);
            assert!(gmm.posterior_match(&p) < 0.5, "false positive on {p:?}");
        }
        for i in 90..100 {
            let p = row_of(&pts, i);
            assert!(gmm.posterior_match(&p) > 0.5, "false negative on {p:?}");
        }
    }

    #[test]
    fn deterministic() {
        let pts = bimodal_points();
        let a = PairGmm::fit(&pts).unwrap();
        let b = PairGmm::fit(&pts).unwrap();
        assert_eq!(a.posterior_match(&row_of(&pts, 0)), b.posterior_match(&row_of(&pts, 0)));
        assert_eq!(a.posterior_match(&row_of(&pts, 95)), b.posterior_match(&row_of(&pts, 95)));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(PairGmm::fit(&SimMatrix::zeroed(0, 3)).is_none());
        assert!(PairGmm::fit(&SimMatrix::zeroed(1, 3)).is_none());
        assert!(PairGmm::fit(&SimMatrix::zeroed(2, 0)).is_none());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_rows_unrepresentable() {
        let mut pts = SimMatrix::zeroed(2, 2);
        pts.set_row(0, &[0.5]); // wrong width panics instead of corrupting
    }

    #[test]
    fn constant_points_do_not_crash() {
        let mut pts = SimMatrix::zeroed(20, 2);
        for i in 0..20 {
            pts.set_row(i, &[0.5, 0.5]);
        }
        let gmm = PairGmm::fit(&pts).unwrap();
        let p = gmm.posterior_match(&[0.5, 0.5]);
        assert!(p.is_finite());
    }

    #[test]
    fn extreme_query_points() {
        let pts = bimodal_points();
        let gmm = PairGmm::fit(&pts).unwrap();
        assert!(gmm.posterior_match(&[1.0, 1.0, 1.0]) > 0.5);
        assert!(gmm.posterior_match(&[0.0, 0.0, 0.0]) < 0.5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn posterior_checks_dims() {
        let pts = bimodal_points();
        let gmm = PairGmm::fit(&pts).unwrap();
        gmm.posterior_match(&[0.5]);
    }

    #[test]
    fn sim_matrix_round_trips_rows_and_columns() {
        let mut m = SimMatrix::zeroed(3, 2);
        m.set_row(0, &[1.0, 2.0]);
        m.set_row(1, &[3.0, 4.0]);
        m.set_row(2, &[5.0, 6.0]);
        assert_eq!(m.col(0), &[1.0, 3.0, 5.0]);
        assert_eq!(m.col(1), &[2.0, 4.0, 6.0]);
        assert_eq!(m.at(1, 1), 4.0);
        assert_eq!(row_of(&m, 2), vec![5.0, 6.0]);
    }
}
