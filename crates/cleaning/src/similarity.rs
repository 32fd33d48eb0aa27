//! String similarity primitives for duplicate detection.
//!
//! ZeroER (and entity resolution generally) works on per-pair similarity
//! feature vectors. These are the classic measures: normalized Levenshtein
//! edit similarity, token Jaccard, and 3-gram Jaccard.

use std::collections::{HashMap, HashSet};

/// Longest pattern the bit-vector Levenshtein holds in one machine word.
const MYERS_MAX: usize = 64;

/// Levenshtein edit distance over `char`s.
///
/// When both strings are ASCII and the shorter is 1–64 bytes, this is
/// Myers' bit-vector algorithm (JACM 1999) in Hyyrö's edit-distance form:
/// one `u64` holds a whole DP column, so a text byte costs a dozen word
/// operations. All other input takes the two-row dynamic program. Both
/// compute the same distance.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if (1..=MYERS_MAX).contains(&short.len()) && short.is_ascii() && long.is_ascii() {
        return myers(short.as_bytes(), long.as_bytes());
    }
    levenshtein_dp(a, b)
}

/// Levenshtein edit distance by dynamic programming, two rows.
pub(crate) fn levenshtein_dp(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Edit distance between an ASCII `pattern` of 1–64 bytes and an ASCII
/// `text`. Bit `i` of the vertical delta vectors `pv` / `mv` says whether
/// DP cell `i` of the current column is one more / one less than cell
/// `i - 1`; the score tracks the bottom cell.
fn myers(pattern: &[u8], text: &[u8]) -> usize {
    let m = pattern.len();
    debug_assert!((1..=MYERS_MAX).contains(&m));
    let mut peq = [0u64; 128];
    for (i, &c) in pattern.iter().enumerate() {
        peq[usize::from(c)] |= 1 << i;
    }
    let last = 1u64 << (m - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut score = m;
    for &c in text {
        let eq = peq[usize::from(c)];
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // The top row of an edit-distance DP grows by one per text byte:
        // the `| 1` shifts that +1 into row 0.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// `1 - lev(a,b) / max(|a|,|b|)`; 1.0 for two empty strings.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Lowercase whitespace tokens, in order (repeats included).
fn tokens(s: &str) -> impl Iterator<Item = String> + '_ {
    s.split_whitespace().map(str::to_lowercase)
}

/// Character `n`-grams of the lowercased string, in order; a non-empty
/// string shorter than `n` is its own single gram.
fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    let chars: Vec<char> = s.to_lowercase().chars().collect();
    if chars.len() < n {
        if chars.is_empty() {
            return Vec::new();
        }
        return vec![chars.iter().collect()];
    }
    chars.windows(n).map(|w| w.iter().collect()).collect()
}

/// The lowercase whitespace-token set of a string.
pub(crate) fn token_set(s: &str) -> HashSet<String> {
    tokens(s).collect()
}

/// The character 3-gram set of the lowercased string.
pub(crate) fn trigram_set(s: &str) -> HashSet<String> {
    char_ngrams(s, 3).into_iter().collect()
}

/// Jaccard similarity of lowercase whitespace tokens; 1.0 for two empty
/// token sets.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    jaccard(&token_set(a), &token_set(b))
}

/// Jaccard similarity of character 3-grams of the lowercased strings.
pub fn trigram_jaccard(a: &str, b: &str) -> f64 {
    jaccard(&trigram_set(a), &trigram_set(b))
}

pub(crate) fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    jaccard_counts(a.len(), b.len(), a.intersection(b).count())
}

/// Jaccard from set sizes and the intersection size: every Jaccard in
/// this module ends here, so equal counts give equal bits.
fn jaccard_counts(a: usize, b: usize, inter: usize) -> f64 {
    if a == 0 && b == 0 {
        return 1.0;
    }
    let union = a + b - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// One table's token and trigram sets, interned: every distinct gram gets
/// a `u32` id and each record keeps its set as a sorted, duplicate-free id
/// list, so a pair's intersection is a merge of two integer slices
/// instead of string hashing. Ids are per table; sets from two interners
/// do not compare.
pub(crate) struct InternedSets {
    /// Record `r`'s ids are `ids[starts[r]..starts[r + 1]]`.
    ids: Vec<u32>,
    starts: Vec<usize>,
}

impl InternedSets {
    /// Interns `grams(record)` for every record, in record order.
    fn build<'a, I>(records: &'a [String], grams: impl Fn(&'a str) -> I) -> InternedSets
    where
        I: IntoIterator<Item = String>,
    {
        let mut dict: HashMap<String, u32> = HashMap::new();
        let mut ids = Vec::new();
        let mut starts = Vec::with_capacity(records.len() + 1);
        starts.push(0);
        for record in records {
            let mut set: Vec<u32> = grams(record)
                .into_iter()
                .map(|gram| {
                    let next = u32::try_from(dict.len()).expect("under 2^32 distinct grams");
                    *dict.entry(gram).or_insert(next)
                })
                .collect();
            set.sort_unstable();
            set.dedup();
            ids.extend_from_slice(&set);
            starts.push(ids.len());
        }
        InternedSets { ids, starts }
    }

    /// The lowercase whitespace-token sets of `records`.
    pub(crate) fn tokens(records: &[String]) -> InternedSets {
        Self::build(records, tokens)
    }

    /// The character 3-gram sets of `records`.
    pub(crate) fn trigrams(records: &[String]) -> InternedSets {
        Self::build(records, |s| char_ngrams(s, 3))
    }

    fn set(&self, r: usize) -> &[u32] {
        &self.ids[self.starts[r]..self.starts[r + 1]]
    }

    /// Jaccard similarity of records `a` and `b`: the intersection is
    /// counted by merging the two sorted id lists.
    pub(crate) fn jaccard(&self, a: usize, b: usize) -> f64 {
        let (x, y) = (self.set(a), self.set(b));
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        jaccard_counts(x.len(), y.len(), inter)
    }
}

/// Relative numeric similarity `1 - |a-b| / max(|a|,|b|)`, clamped to
/// `[0,1]`; 1.0 when both are (near) zero.
pub fn numeric_similarity(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom < 1e-12 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lev_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn lev_similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("U.S. Bank", "US Bank");
        assert!(s > 0.7, "{s}");
    }

    #[test]
    fn token_jaccard_cases() {
        assert_eq!(token_jaccard("the big cat", "the big cat"), 1.0);
        assert_eq!(token_jaccard("a b", "c d"), 0.0);
        assert!((token_jaccard("big cat", "big dog") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(token_jaccard("", ""), 1.0);
        // case-insensitive
        assert_eq!(token_jaccard("Cat", "cat"), 1.0);
    }

    #[test]
    fn trigram_jaccard_cases() {
        assert_eq!(trigram_jaccard("restaurant", "restaurant"), 1.0);
        // shared trigrams {res, est, sta} of 13 total -> 3/13
        assert!((trigram_jaccard("restaurant", "restaraunt") - 3.0 / 13.0).abs() < 1e-12);
        assert_eq!(trigram_jaccard("", ""), 1.0);
        // short strings fall back to whole-string grams
        assert_eq!(trigram_jaccard("ab", "ab"), 1.0);
        assert_eq!(trigram_jaccard("ab", "cd"), 0.0);
    }

    #[test]
    fn numeric_similarity_cases() {
        assert_eq!(numeric_similarity(0.0, 0.0), 1.0);
        assert_eq!(numeric_similarity(10.0, 10.0), 1.0);
        assert_eq!(numeric_similarity(10.0, 0.0), 0.0);
        assert!((numeric_similarity(10.0, 9.0) - 0.9).abs() < 1e-12);
        assert_eq!(numeric_similarity(-5.0, 5.0), 0.0);
    }

    #[test]
    fn similarity_symmetry() {
        for (a, b) in [("hotel", "motel"), ("sushi bar", "sushi-bar tokyo"), ("", "x")] {
            assert_eq!(levenshtein_similarity(a, b), levenshtein_similarity(b, a));
            assert_eq!(token_jaccard(a, b), token_jaccard(b, a));
            assert_eq!(trigram_jaccard(a, b), trigram_jaccard(b, a));
        }
    }

    #[test]
    fn myers_word_edges() {
        // the shorter side at 63, 64 and 65 bytes: the last two straddle
        // the one-word limit, so 65 takes the dynamic program
        for m in [1, 63, 64, 65] {
            let a = "ab".repeat(40)[..m].to_string();
            let b = format!("x{}y", &a[1..]);
            assert_eq!(levenshtein(&a, &b), levenshtein_dp(&a, &b), "m={m}");
            assert_eq!(levenshtein(&a, &a), 0);
            assert_eq!(levenshtein(&a, ""), m);
        }
        // a prefix-free search would score 0 here; edit distance is 2
        assert_eq!(levenshtein("abc", "xxabc"), 2);
    }

    #[test]
    fn interned_sets_match_string_sets() {
        let records: Vec<String> = ["Sushi Ko", "sushi  KO bar", "", "ab", "Café Crème crème"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let toks = InternedSets::tokens(&records);
        let tris = InternedSets::trigrams(&records);
        for a in 0..records.len() {
            for b in 0..records.len() {
                let (x, y) = (&records[a], &records[b]);
                assert_eq!(toks.jaccard(a, b).to_bits(), token_jaccard(x, y).to_bits());
                assert_eq!(tris.jaccard(a, b).to_bits(), trigram_jaccard(x, y).to_bits());
            }
        }
    }
}
