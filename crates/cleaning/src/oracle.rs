//! Test oracle for the ZeroER kernel: the featurizer and the EM as they
//! were before the bit-vector Levenshtein, the interned Jaccard sets, the
//! hoisted EM constants and the fixed-point exit, and properties asserting
//! that the kernel reproduces them bit for bit.
//!
//! The reference featurizer compares `HashSet<String>` token and trigram
//! sets and runs the two-row Levenshtein DP on every pair. The reference
//! EM recomputes `ln(2πσ²)` and the prior logs for every pair and
//! dimension and always runs all [`EM_ITERS`] rounds. The tables mix
//! ASCII and non-ASCII records, records on both sides of the 64-byte
//! bit-vector limit, and empty records; the blocked fixtures have more
//! than [`BLOCK_ABOVE`] rows.

use std::collections::HashSet;

use cleanml_dataset::{FieldMeta, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::duplicates::{
    self, candidate_pairs, keep_one, numeric_columns, record_text, text_columns,
    DuplicateDetection, BLOCK_ABOVE, MATCH_THRESHOLD,
};
use crate::similarity::{
    jaccard, levenshtein, levenshtein_dp, numeric_similarity, token_set, trigram_set,
};
use crate::zeroer::{
    SimMatrix, DOMINANCE_GAP, EM_ITERS, MAX_MATCH_PRIOR, MAX_MATCH_VAR, MIN_UNMATCH_VAR,
    SEED_SLACK, VAR_FLOOR,
};

// ---- reference featurizer: string sets, DP-only Levenshtein -------------

struct RefFeaturizer {
    texts: Vec<String>,
    tokens: Vec<HashSet<String>>,
    trigrams: Vec<HashSet<String>>,
    numeric: Vec<Vec<Option<f64>>>,
}

impl RefFeaturizer {
    fn new(table: &Table) -> Self {
        let text_cols = text_columns(table);
        let n = table.n_rows();
        let texts: Vec<String> = (0..n).map(|r| record_text(table, r, &text_cols)).collect();
        let tokens = texts.iter().map(|t| token_set(t)).collect();
        let trigrams = texts.iter().map(|t| trigram_set(t)).collect();
        let numeric = numeric_columns(table)
            .iter()
            .map(|&c| {
                let col = table.column(c).expect("column exists");
                (0..n).map(|r| col.num(r)).collect()
            })
            .collect();
        RefFeaturizer { texts, tokens, trigrams, numeric }
    }

    fn features(&self, a: usize, b: usize) -> Vec<f64> {
        let (x, y) = (&self.texts[a], &self.texts[b]);
        let max_len = x.chars().count().max(y.chars().count());
        let lev =
            if max_len == 0 { 1.0 } else { 1.0 - levenshtein_dp(x, y) as f64 / max_len as f64 };
        let mut out = vec![
            lev,
            jaccard(&self.tokens[a], &self.tokens[b]),
            jaccard(&self.trigrams[a], &self.trigrams[b]),
        ];
        if !self.numeric.is_empty() {
            let mut sum = 0.0;
            let mut n = 0usize;
            for col in &self.numeric {
                if let (Some(x), Some(y)) = (col[a], col[b]) {
                    sum += numeric_similarity(x, y);
                    n += 1;
                }
            }
            out.push(if n > 0 { sum / n as f64 } else { 0.5 });
        }
        out
    }
}

// ---- reference EM: per-pair constants, all rounds ------------------------

struct RefGmm {
    means: [Vec<f64>; 2],
    vars: [Vec<f64>; 2],
    match_prior: f64,
}

impl RefGmm {
    fn posterior_match(&self, point: &[f64]) -> f64 {
        let ll1 = self.log_density(point, 1) + self.match_prior.ln();
        let ll0 = self.log_density(point, 0) + (1.0 - self.match_prior).ln();
        let max = ll1.max(ll0);
        let e1 = (ll1 - max).exp();
        let e0 = (ll0 - max).exp();
        e1 / (e1 + e0)
    }

    fn log_density(&self, point: &[f64], comp: usize) -> f64 {
        let mut ll = 0.0;
        for (p, (m, &var)) in point.iter().zip(self.means[comp].iter().zip(&self.vars[comp])) {
            let dev = p - m;
            ll += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + dev * dev / var);
        }
        ll
    }
}

fn ref_gmm_fit(points: &SimMatrix) -> Option<RefGmm> {
    let n = points.n_rows();
    let dim = points.dim();
    if n < 2 || dim == 0 {
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
    let mut resp: Vec<f64> = vec![0.0; n];
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
    let mut gmm = RefGmm {
        means: [vec![0.0; dim], vec![0.0; dim]],
        vars: [vec![VAR_FLOOR; dim], vec![VAR_FLOOR; dim]],
        match_prior: (n_match_init as f64 / n as f64).min(MAX_MATCH_PRIOR),
    };
    let mut row = vec![0.0; dim];
    for _ in 0..EM_ITERS {
        let w1: f64 = resp.iter().sum();
        let w0 = n as f64 - w1;
        if w1 < 1e-9 || w0 < 1e-9 {
            break;
        }
        for (d, &seed_mean) in seed_means.iter().enumerate() {
            let col = points.col(d);
            let m1: f64 = col.iter().zip(&resp).map(|(p, r)| r * p).sum::<f64>() / w1;
            let m0: f64 = col.iter().zip(&resp).map(|(p, r)| (1.0 - r) * p).sum::<f64>() / w0;
            let v1: f64 =
                col.iter().zip(&resp).map(|(p, r)| r * (p - m1) * (p - m1)).sum::<f64>() / w1;
            let v0: f64 =
                col.iter().zip(&resp).map(|(p, r)| (1.0 - r) * (p - m0) * (p - m0)).sum::<f64>()
                    / w0;
            gmm.means[0][d] = m0;
            gmm.means[1][d] = m1.max(m0 + DOMINANCE_GAP).max(seed_mean - SEED_SLACK).min(1.0);
            gmm.vars[0][d] = v0.max(MIN_UNMATCH_VAR);
            gmm.vars[1][d] = v1.clamp(VAR_FLOOR, MAX_MATCH_VAR);
        }
        gmm.match_prior = (w1 / n as f64).clamp(1e-6, MAX_MATCH_PRIOR);
        for (i, r) in resp.iter_mut().enumerate() {
            points.read_row(i, &mut row);
            *r = gmm.posterior_match(&row);
        }
    }
    let mean1: f64 = gmm.means[1].iter().sum();
    let mean0: f64 = gmm.means[0].iter().sum();
    if mean1 < mean0 {
        gmm.means.swap(0, 1);
        gmm.vars.swap(0, 1);
        gmm.match_prior = 1.0 - gmm.match_prior;
    }
    Some(gmm)
}

/// The reference fit on a training table.
fn ref_fit(train: &Table) -> Option<RefGmm> {
    let fz = RefFeaturizer::new(train);
    let pairs = candidate_pairs(train);
    let dim = 3 + usize::from(!fz.numeric.is_empty());
    let mut points = SimMatrix::zeroed(pairs.len(), dim);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        points.set_row(i, &fz.features(a, b));
    }
    ref_gmm_fit(&points)
}

/// The reference match sweep: featurize every candidate pair again.
fn ref_detect(gmm: Option<&RefGmm>, table: &Table) -> Vec<(usize, usize)> {
    let Some(gmm) = gmm else { return Vec::new() };
    let fz = RefFeaturizer::new(table);
    candidate_pairs(table)
        .into_iter()
        .filter(|&(a, b)| gmm.posterior_match(&fz.features(a, b)) > MATCH_THRESHOLD)
        .collect()
}

/// Asserts that ZeroER fit on `train` and applied to `test` reproduces the
/// reference: the mixture bit for bit, the training and test pair lists,
/// and both cleaned tables with their reports.
fn check_against_oracle(train: &Table, test: &Table) -> Result<(), TestCaseError> {
    let reference = ref_fit(train);
    let (gmm, train_pairs) = duplicates::fit_zeroer(train);
    match (&gmm, &reference) {
        (None, None) => {}
        (Some(g), Some(r)) => {
            for c in 0..2 {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&g.means[c]), bits(&r.means[c]), "means[{}]", c);
                prop_assert_eq!(bits(&g.vars[c]), bits(&r.vars[c]), "vars[{}]", c);
            }
            prop_assert_eq!(g.match_prior.to_bits(), r.match_prior.to_bits(), "prior");
        }
        _ => prop_assert!(false, "fit {:?} vs reference {}", gmm, reference.is_some()),
    }
    let ref_train_pairs = ref_detect(reference.as_ref(), train);
    prop_assert_eq!(&train_pairs, &ref_train_pairs, "training pairs");

    let (cleaner, clean, report) = duplicates::fit(DuplicateDetection::ZeroEr, train)
        .map_err(|e| TestCaseError::Fail(e.to_string()))?;
    prop_assert_eq!((clean, report), keep_one(train, &ref_train_pairs), "cleaned training table");

    let ref_test_pairs = ref_detect(reference.as_ref(), test);
    let test_pairs = cleaner.detect_pairs(test).map_err(|e| TestCaseError::Fail(e.to_string()))?;
    prop_assert_eq!(&test_pairs, &ref_test_pairs, "test pairs");
    let applied = cleaner.apply(test).map_err(|e| TestCaseError::Fail(e.to_string()))?;
    prop_assert_eq!(applied, keep_one(test, &ref_test_pairs), "cleaned test table");
    Ok(())
}

// ---- fixtures -------------------------------------------------------------

const NAMES: [&str; 14] = [
    "Luigi Pizza",
    "Sushi Ko",
    "Taco Town",
    "Burger Barn",
    "Pho Place",
    "Curry Corner",
    "Bagel Bros",
    "Café Crème",
    "Zürich Grill",
    "Dumpling 饺子 Den",
    "Ångström Bar",
    "Pasta Palace",
    "Salad Stop",
    "Waffle Works",
];

/// Addresses: the long ones alone take a record past 64 bytes.
const ADDRESSES: [&str; 5] = [
    "12 Main St",
    "401 Elm Avenue",
    "1600 Pennsylvania Avenue Northwest, Washington, District of Columbia",
    "Rue de la Paix 7, 75002 Paris, Île-de-France",
    "",
];

/// A record name: the vocabulary entry, a near-duplicate of it, or no name
/// at all (`None` is a missing key, `""` an empty one).
fn name_variant(name: &str, variant: usize) -> Option<String> {
    match variant {
        0 => Some(name.to_string()),
        1 => Some(format!("{name}e")),
        2 => Some(name.to_lowercase()),
        3 => Some(format!("{name} #2")),
        4 => Some(name.chars().skip(1).collect()),
        5 => Some(String::new()),
        _ => None,
    }
}

fn schema(numeric: bool) -> Schema {
    let mut fields = vec![
        FieldMeta::key("name"),
        FieldMeta::new(
            "address",
            cleanml_dataset::ColumnKind::Categorical,
            cleanml_dataset::ColumnRole::Ignore,
        ),
    ];
    if numeric {
        fields.push(FieldMeta::num_feature("rating"));
    }
    fields.push(FieldMeta::label("y"));
    Schema::new(fields)
}

fn push_record(
    t: &mut Table,
    name: Option<String>,
    address: Option<&str>,
    rating: Option<f64>,
    y: bool,
) {
    let mut row = vec![Value::from(name), Value::from(address)];
    if t.schema().numeric_feature_indices().len() == 1 {
        row.push(Value::from(rating));
    }
    row.push(Value::from(if y { "a" } else { "b" }));
    t.push_row(row).expect("schema");
}

/// Entity tables of 6–59 rows, with or without a numeric feature.
fn arb_entity_table() -> impl Strategy<Value = Table> {
    let row = (
        0..NAMES.len(),
        0usize..7,
        prop::option::of(0..ADDRESSES.len()),
        prop::option::of(-10.0f64..10.0),
        prop::bool::ANY,
    );
    (prop::bool::ANY, prop::collection::vec(row, 6..60)).prop_map(|(numeric, rows)| {
        let mut t = Table::new(schema(numeric));
        for (ni, variant, addr, rating, y) in rows {
            let address = addr.map(|a| ADDRESSES[a]);
            push_record(&mut t, name_variant(NAMES[ni], variant), address, rating, y);
        }
        t
    })
}

/// A table above [`BLOCK_ABOVE`] rows: two-word names over a vocabulary
/// wide enough that most token buckets stay under the blocking cap, a
/// quarter of them near-duplicates of an earlier name, and a stop word in
/// a fifth of the rows, which blocking skips.
fn blocked_table(seed: u64, numeric: bool) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let words: Vec<String> = (0..150).map(|i| format!("w{}{}", i * 7919 % 1000, i % 3)).collect();
    let mut t = Table::new(schema(numeric));
    let mut bases: Vec<String> = Vec::new();
    let n = BLOCK_ABOVE + 20 + rng.random_range(0..40usize);
    for r in 0..n {
        let (base, variant) = if !bases.is_empty() && rng.random_range(0..4) == 0 {
            (bases[rng.random_range(0..bases.len())].clone(), rng.random_range(0..7))
        } else {
            let mut base = format!(
                "{} {}",
                words[rng.random_range(0..words.len())],
                words[rng.random_range(0..words.len())]
            );
            if r % 5 == 0 {
                base.push_str(" the");
            }
            (base, 0)
        };
        let address = (r % 3 == 0).then(|| ADDRESSES[rng.random_range(0..ADDRESSES.len())]);
        let rating = (r % 4 != 0).then(|| rng.random_range(0.0..5.0));
        push_record(&mut t, name_variant(&base, variant), address, rating, r % 2 == 0);
        bases.push(base);
    }
    t
}

/// Strings over alphabets small enough to share many characters, with the
/// shorter side often at the 63/64/65-byte edge of the one-word limit, and
/// a second string that is usually an edit of the first.
fn arb_string_pair() -> impl Strategy<Value = (String, String)> {
    const ALPHABETS: [&str; 4] =
        ["ab", "abcdefgh ", "abcdefghijklmnopqrstuvwxyzABC0123 .,#", "aé饺 b"];
    let edits = prop::collection::vec((0usize..3, 0usize..200, 0usize..64), 0..8);
    let shape = (0..ALPHABETS.len(), 0usize..6, 0usize..90);
    (shape, prop::collection::vec(0usize..64, 90), edits, 0usize..3).prop_map(
        |((ai, edge, free_len), picks, edits, mode)| {
            let alphabet: Vec<char> = ALPHABETS[ai].chars().collect();
            let len = match edge {
                0..=2 => 63 + edge,
                _ => free_len,
            };
            let a: String = picks[..len.min(picks.len())]
                .iter()
                .map(|&i| alphabet[i % alphabet.len()])
                .collect();
            let b: String = match mode {
                // an independent string
                0 => picks
                    .iter()
                    .rev()
                    .take(free_len)
                    .map(|&i| alphabet[i % alphabet.len()])
                    .collect(),
                // an edit of the first
                _ => {
                    let mut chars: Vec<char> = a.chars().collect();
                    for (op, pos, pick) in edits {
                        let c = alphabet[pick % alphabet.len()];
                        let at = if chars.is_empty() { 0 } else { pos % (chars.len() + 1) };
                        match op {
                            0 => chars.insert(at, c),
                            1 if at < chars.len() => {
                                chars.remove(at);
                            }
                            _ if at < chars.len() => chars[at] = c,
                            _ => chars.push(c),
                        }
                    }
                    chars.into_iter().collect()
                }
            };
            (a, b)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel reproduces the reference ZeroER on small tables: all
    /// pairs, so the training and test sweeps run unblocked.
    #[test]
    fn zeroer_matches_reference(t in arb_entity_table(), seed in 0u64..1000) {
        let (train, test) = t.split(0.3, seed).expect("split");
        check_against_oracle(&train, &test)?;
    }

    /// Levenshtein equals the DP on arbitrary strings, including the
    /// shorter side at 63, 64 and 65 bytes.
    #[test]
    fn levenshtein_matches_dp(pair in arb_string_pair()) {
        let (a, b) = pair;
        prop_assert_eq!(levenshtein(&a, &b), levenshtein_dp(&a, &b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(levenshtein(&b, &a), levenshtein_dp(&a, &b));
    }
}

/// Above [`BLOCK_ABOVE`] rows `candidate_pairs` token-blocks; the kernel
/// still reproduces the reference there, serially and with the pair
/// sweeps fanned out over a thread bridge.
#[test]
fn blocked_tables_match_reference_serial_and_bridged() {
    for (seed, numeric) in [(1u64, true), (2, false)] {
        let t = blocked_table(seed, numeric);
        assert!(t.n_rows() > BLOCK_ABOVE);
        let pairs = candidate_pairs(&t);
        assert!(pairs.len() < t.n_rows() * (t.n_rows() - 1) / 2, "blocking must prune pairs");
        check_against_oracle(&t, &t).expect("serial");
        cleanml_parallel::install_bridge(std::sync::Arc::new(cleanml_parallel::ThreadBridge {
            helpers: 3,
        }));
        let bridged = check_against_oracle(&t, &t);
        cleanml_parallel::clear_bridge();
        bridged.expect("bridged");
    }
}
