//! The CleanML results database: relations R1/R2/R3, Benjamini–Yekutieli
//! control, and the paper's five query templates.
//!
//! Paper §IV-C runs one BY procedure per relation over *all* its p-values
//! (three per experiment — two-tailed, upper, lower — hence "3612, 516 and
//! 168 hypotheses" for relations of 1204, 172 and 56 rows). Flags are then
//! re-derived: a row keeps P/N only if both its two-tailed test and the
//! matching one-tailed test survive the correction.
//!
//! §V-A's query templates are implemented directly:
//! Q1 groups by flag; Q2 adds the scenario; Q3 the model; Q4.1/Q4.2 the
//! detection/repair method; Q5 the dataset.

use std::collections::BTreeMap;

use cleanml_stats::{Correction, Flag};

use crate::schema::{Detection, ErrorType, Evidence, Model, Repair, Row1, Row2, Row3, Scenario};

/// Counts of P/S/N flags in one query group (one line of a paper table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlagDist {
    pub p: usize,
    pub s: usize,
    pub n: usize,
}

impl FlagDist {
    /// Adds one flag.
    pub fn add(&mut self, flag: Flag) {
        match flag {
            Flag::Positive => self.p += 1,
            Flag::Insignificant => self.s += 1,
            Flag::Negative => self.n += 1,
        }
    }

    /// Total experiments in the group.
    pub fn total(&self) -> usize {
        self.p + self.s + self.n
    }

    /// Percentage of a flag kind (0–100).
    pub fn pct(&self, flag: Flag) -> f64 {
        let count = match flag {
            Flag::Positive => self.p,
            Flag::Insignificant => self.s,
            Flag::Negative => self.n,
        };
        if self.total() == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.total() as f64
        }
    }

    /// Paper-style cell rendering: `49% (143)`.
    pub fn render(&self, flag: Flag) -> String {
        let count = match flag {
            Flag::Positive => self.p,
            Flag::Insignificant => self.s,
            Flag::Negative => self.n,
        };
        format!("{:.0}% ({})", self.pct(flag), count)
    }
}

/// Which relation a query targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    R1,
    R2,
    R3,
}

/// The in-memory CleanML database instance.
#[derive(Debug, Clone, Default)]
pub struct CleanMlDb {
    pub r1: Vec<Row1>,
    pub r2: Vec<Row2>,
    pub r3: Vec<Row3>,
}

fn corrected_flag(survive: &[bool; 3]) -> Flag {
    // survive = [two-tailed, upper, lower] after FDR control.
    if !survive[0] {
        Flag::Insignificant
    } else if survive[1] {
        Flag::Positive
    } else if survive[2] {
        Flag::Negative
    } else {
        Flag::Insignificant
    }
}

/// Applies an FDR correction over all 3·m p-values of one relation's rows,
/// rewriting flags in place.
fn correct_rows<'a, I>(rows: I, correction: Correction, alpha: f64)
where
    I: IntoIterator<Item = (&'a mut Flag, &'a Evidence)>,
{
    let items: Vec<(&'a mut Flag, &'a Evidence)> = rows.into_iter().collect();
    let mut pvals = Vec::with_capacity(items.len() * 3);
    for (_, e) in &items {
        pvals.push(e.p_two);
        pvals.push(e.p_upper);
        pvals.push(e.p_lower);
    }
    let survive = correction.apply(&pvals, alpha);
    for (i, (flag, _)) in items.into_iter().enumerate() {
        let s = [survive[3 * i], survive[3 * i + 1], survive[3 * i + 2]];
        *flag = corrected_flag(&s);
    }
}

impl CleanMlDb {
    /// Number of hypotheses per relation (3 per row, paper §IV-C).
    pub fn n_hypotheses(&self, relation: Relation) -> usize {
        3 * match relation {
            Relation::R1 => self.r1.len(),
            Relation::R2 => self.r2.len(),
            Relation::R3 => self.r3.len(),
        }
    }

    /// Runs the paper's BY procedure (α = 0.05) separately per relation,
    /// rewriting every row's flag.
    pub fn apply_benjamini_yekutieli(&mut self, alpha: f64) {
        self.apply_correction(Correction::BenjaminiYekutieli, alpha);
    }

    /// Runs an arbitrary correction per relation (for the ablation bench
    /// comparing BY with BH / Bonferroni / uncorrected).
    pub fn apply_correction(&mut self, correction: Correction, alpha: f64) {
        correct_rows(self.r1.iter_mut().map(|r| (&mut r.flag, &r.evidence)), correction, alpha);
        correct_rows(self.r2.iter_mut().map(|r| (&mut r.flag, &r.evidence)), correction, alpha);
        correct_rows(self.r3.iter_mut().map(|r| (&mut r.flag, &r.evidence)), correction, alpha);
    }

    // --- Query templates (paper §V-A) ------------------------------------

    /// Q1: flag distribution for one error type over a relation.
    pub fn q1(&self, relation: Relation, error_type: ErrorType) -> FlagDist {
        let mut dist = FlagDist::default();
        self.for_each(relation, error_type, |flag, _, _, _, _, _| dist.add(flag));
        dist
    }

    /// Q2: grouped by scenario.
    pub fn q2(&self, relation: Relation, error_type: ErrorType) -> BTreeMap<Scenario, FlagDist> {
        let mut map = BTreeMap::new();
        self.for_each(relation, error_type, |flag, _, scenario, _, _, _| {
            map.entry(scenario).or_insert_with(FlagDist::default).add(flag);
        });
        map
    }

    /// Q3: grouped by ML model (R1 only — R2/R3 have no model attribute).
    pub fn q3(&self, error_type: ErrorType) -> BTreeMap<Model, FlagDist> {
        let mut map = BTreeMap::new();
        for r in self.r1.iter().filter(|r| r.error_type == error_type) {
            map.entry(r.model).or_insert_with(FlagDist::default).add(r.flag);
        }
        map
    }

    /// Q4.1: grouped by detection method (R1/R2).
    pub fn q4_detection(
        &self,
        relation: Relation,
        error_type: ErrorType,
    ) -> BTreeMap<Detection, FlagDist> {
        let mut map = BTreeMap::new();
        self.for_each(relation, error_type, |flag, _, _, detection, _, _| {
            if let Some(d) = detection {
                map.entry(d).or_insert_with(FlagDist::default).add(flag);
            }
        });
        map
    }

    /// Q4.2: grouped by repair method (R1/R2).
    pub fn q4_repair(
        &self,
        relation: Relation,
        error_type: ErrorType,
    ) -> BTreeMap<Repair, FlagDist> {
        let mut map = BTreeMap::new();
        self.for_each(relation, error_type, |flag, _, _, _, repair, _| {
            if let Some(r) = repair {
                map.entry(r).or_insert_with(FlagDist::default).add(flag);
            }
        });
        map
    }

    /// Q5: grouped by dataset.
    pub fn q5(&self, relation: Relation, error_type: ErrorType) -> BTreeMap<String, FlagDist> {
        let mut map = BTreeMap::new();
        self.for_each(relation, error_type, |flag, dataset, _, _, _, _| {
            map.entry(dataset.to_owned()).or_insert_with(FlagDist::default).add(flag);
        });
        map
    }

    /// Internal row visitor unifying the three relations.
    fn for_each<F>(&self, relation: Relation, error_type: ErrorType, mut f: F)
    where
        F: FnMut(Flag, &str, Scenario, Option<Detection>, Option<Repair>, Option<Model>),
    {
        match relation {
            Relation::R1 => {
                for r in self.r1.iter().filter(|r| r.error_type == error_type) {
                    f(
                        r.flag,
                        &r.dataset,
                        r.scenario,
                        Some(r.detection),
                        Some(r.repair),
                        Some(r.model),
                    );
                }
            }
            Relation::R2 => {
                for r in self.r2.iter().filter(|r| r.error_type == error_type) {
                    f(r.flag, &r.dataset, r.scenario, Some(r.detection), Some(r.repair), None);
                }
            }
            Relation::R3 => {
                for r in self.r3.iter().filter(|r| r.error_type == error_type) {
                    f(r.flag, &r.dataset, r.scenario, None, None, None);
                }
            }
        }
    }
}

/// Escapes one CSV field per RFC 4180: fields containing commas, quotes,
/// newlines or carriage returns are quoted, with embedded quotes doubled.
/// The single canonical implementation — `cleanml_bench` re-exports it —
/// so the dumped files and the serving layer's wire CSV can never drift.
pub fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Column names of R1's canonical CSV form, in header order.
pub const R1_COLUMNS: [&str; 13] = [
    "dataset",
    "error_type",
    "detection",
    "repair",
    "model",
    "scenario",
    "flag",
    "p_two",
    "p_upper",
    "p_lower",
    "mean_before",
    "mean_after",
    "n_splits",
];

/// Column names of R2's canonical CSV form, in header order.
pub const R2_COLUMNS: [&str; 9] = [
    "dataset",
    "error_type",
    "detection",
    "repair",
    "scenario",
    "flag",
    "p_two",
    "mean_before",
    "mean_after",
];

/// Column names of R3's canonical CSV form, in header order.
pub const R3_COLUMNS: [&str; 7] =
    ["dataset", "error_type", "scenario", "flag", "p_two", "mean_before", "mean_after"];

/// Index of the first numeric column in each relation; every column from
/// here on renders as a number (p-values, means, split counts), everything
/// before it as a string. Consumers rendering rows as typed output (the
/// HTTP gateway's JSON) key off this.
pub const R1_NUMERIC_FROM: usize = 7;
pub const R2_NUMERIC_FROM: usize = 6;
pub const R3_NUMERIC_FROM: usize = 4;

/// Canonical per-column renderings of one R1 row, in [`R1_COLUMNS`] order.
/// P-values render in `{:e}`, means in `{}` — the exact strings the CSV
/// form carries, so any consumer (paging, filtering, JSON) that renders
/// these values byte-matches [`CleanMlDb::r1_csv`].
pub fn r1_values(r: &Row1) -> [String; 13] {
    [
        r.dataset.clone(),
        r.error_type.name().to_string(),
        r.detection.name().to_string(),
        r.repair.name().to_string(),
        r.model.name().to_string(),
        r.scenario.to_string(),
        r.flag.to_string(),
        format!("{:e}", r.evidence.p_two),
        format!("{:e}", r.evidence.p_upper),
        format!("{:e}", r.evidence.p_lower),
        format!("{}", r.evidence.mean_before),
        format!("{}", r.evidence.mean_after),
        format!("{}", r.evidence.n_splits),
    ]
}

/// Canonical per-column renderings of one R2 row, in [`R2_COLUMNS`] order.
pub fn r2_values(r: &Row2) -> [String; 9] {
    [
        r.dataset.clone(),
        r.error_type.name().to_string(),
        r.detection.name().to_string(),
        r.repair.name().to_string(),
        r.scenario.to_string(),
        r.flag.to_string(),
        format!("{:e}", r.evidence.p_two),
        format!("{}", r.evidence.mean_before),
        format!("{}", r.evidence.mean_after),
    ]
}

/// Canonical per-column renderings of one R3 row, in [`R3_COLUMNS`] order.
pub fn r3_values(r: &Row3) -> [String; 7] {
    [
        r.dataset.clone(),
        r.error_type.name().to_string(),
        r.scenario.to_string(),
        r.flag.to_string(),
        format!("{:e}", r.evidence.p_two),
        format!("{}", r.evidence.mean_before),
        format!("{}", r.evidence.mean_after),
    ]
}

/// One CSV line (escaped, comma-joined, newline-terminated) from already
/// canonical field renderings.
pub fn csv_line(values: &[String]) -> String {
    let mut out = String::with_capacity(values.iter().map(|v| v.len() + 1).sum());
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&csv_escape(v));
    }
    out.push('\n');
    out
}

fn csv_header(columns: &[&str]) -> String {
    let mut out = columns.join(",");
    out.push('\n');
    out
}

/// CSV rendering of the relations — the canonical on-disk / on-wire form
/// shared by the `study` binary's dump and the HTTP gateway's row pages
/// (which `cleanml-query` reassembles). Floats render p-values in `{:e}` and
/// means in `{}` so a byte-compare across runs is a real determinism
/// check; the whole-relation strings are built row by row from
/// [`r1_values`]/[`r2_values`]/[`r3_values`], so a paged slice of rows is
/// byte-identical to the matching slice of the full CSV.
impl CleanMlDb {
    /// R1 as CSV text, header included.
    pub fn r1_csv(&self) -> String {
        let mut out = csv_header(&R1_COLUMNS);
        for r in &self.r1 {
            out.push_str(&csv_line(&r1_values(r)));
        }
        out
    }

    /// R2 as CSV text, header included.
    pub fn r2_csv(&self) -> String {
        let mut out = csv_header(&R2_COLUMNS);
        for r in &self.r2 {
            out.push_str(&csv_line(&r2_values(r)));
        }
        out
    }

    /// R3 as CSV text, header included.
    pub fn r3_csv(&self) -> String {
        let mut out = csv_header(&R3_COLUMNS);
        for r in &self.r3 {
            out.push_str(&csv_line(&r3_values(r)));
        }
        out
    }

    /// All rows of `relation` as canonical per-column renderings — the
    /// row-granular form the HTTP gateway filters, orders and pages
    /// without re-parsing whole-CSV strings.
    pub fn relation_values(&self, relation: Relation) -> Vec<Vec<String>> {
        match relation {
            Relation::R1 => self.r1.iter().map(|r| r1_values(r).to_vec()).collect(),
            Relation::R2 => self.r2.iter().map(|r| r2_values(r).to_vec()).collect(),
            Relation::R3 => self.r3.iter().map(|r| r3_values(r).to_vec()).collect(),
        }
    }
}

/// `(column names, index of the first numeric column)` for a relation.
pub fn relation_columns(relation: Relation) -> (&'static [&'static str], usize) {
    match relation {
        Relation::R1 => (&R1_COLUMNS, R1_NUMERIC_FROM),
        Relation::R2 => (&R2_COLUMNS, R2_NUMERIC_FROM),
        Relation::R3 => (&R3_COLUMNS, R3_NUMERIC_FROM),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evidence(p: f64) -> Evidence {
        // direction: positive improvement with one-tailed p = p/2
        Evidence {
            p_two: p,
            p_upper: p / 2.0,
            p_lower: 1.0 - p / 2.0,
            mean_before: 0.8,
            mean_after: 0.85,
            n_splits: 20,
        }
    }

    fn row1(dataset: &str, et: ErrorType, model: Model, scenario: Scenario, p: f64) -> Row1 {
        Row1 {
            dataset: dataset.into(),
            error_type: et,
            detection: Detection::Iqr,
            repair: Repair::ImputeMean,
            model,
            scenario,
            flag: cleanml_stats::flag_from_pvalues(p, p / 2.0, 1.0 - p / 2.0, 0.05),
            evidence: evidence(p),
        }
    }

    fn sample_db() -> CleanMlDb {
        let mut db = CleanMlDb::default();
        for (i, p) in [1e-8, 0.5, 0.03, 1e-6].iter().enumerate() {
            db.r1.push(row1(
                if i % 2 == 0 { "EEG" } else { "Sensor" },
                ErrorType::Outliers,
                if i < 2 { Model::Knn } else { Model::NaiveBayes },
                if i % 2 == 0 { Scenario::BD } else { Scenario::CD },
                *p,
            ));
        }
        db
    }

    #[test]
    fn q1_counts() {
        let db = sample_db();
        let d = db.q1(Relation::R1, ErrorType::Outliers);
        assert_eq!(d.total(), 4);
        assert_eq!(d.p, 3);
        assert_eq!(d.s, 1);
        // unrelated error type is empty
        assert_eq!(db.q1(Relation::R1, ErrorType::Duplicates).total(), 0);
    }

    #[test]
    fn groupings() {
        let db = sample_db();
        let by_scenario = db.q2(Relation::R1, ErrorType::Outliers);
        assert_eq!(by_scenario[&Scenario::BD].total(), 2);
        assert_eq!(by_scenario[&Scenario::CD].total(), 2);
        let by_model = db.q3(ErrorType::Outliers);
        assert_eq!(by_model[&Model::Knn].total(), 2);
        let by_dataset = db.q5(Relation::R1, ErrorType::Outliers);
        assert_eq!(by_dataset["EEG"].total(), 2);
        let by_det = db.q4_detection(Relation::R1, ErrorType::Outliers);
        assert_eq!(by_det[&Detection::Iqr].total(), 4);
    }

    #[test]
    fn by_correction_reduces_or_keeps_positives() {
        let mut db = sample_db();
        let before = db.q1(Relation::R1, ErrorType::Outliers);
        db.apply_benjamini_yekutieli(0.05);
        let after = db.q1(Relation::R1, ErrorType::Outliers);
        assert!(after.p <= before.p, "BY cannot create discoveries");
        assert_eq!(after.total(), before.total());
        // The 0.03 row is borderline: with 12 hypotheses BY should kill it.
        assert!(after.s >= before.s);
    }

    #[test]
    fn hypothesis_count_is_three_per_row() {
        let db = sample_db();
        assert_eq!(db.n_hypotheses(Relation::R1), 12);
        assert_eq!(db.n_hypotheses(Relation::R2), 0);
    }

    #[test]
    fn flag_dist_rendering() {
        let mut d = FlagDist::default();
        d.add(Flag::Positive);
        d.add(Flag::Positive);
        d.add(Flag::Negative);
        d.add(Flag::Insignificant);
        assert_eq!(d.render(Flag::Positive), "50% (2)");
        assert_eq!(d.pct(Flag::Negative), 25.0);
    }

    #[test]
    fn row_values_pin_canonical_formats() {
        let r = row1("A,B", ErrorType::Outliers, Model::Knn, Scenario::BD, 1e-8);
        let v = r1_values(&r);
        // p-values in {:e}, means in {}, splits in {} — the wire-pinned forms
        assert_eq!(v[7], "1e-8");
        assert_eq!(v[8], "5e-9");
        assert_eq!(v[9], "9.99999995e-1");
        assert_eq!(v[10], "0.8");
        assert_eq!(v[11], "0.85");
        assert_eq!(v[12], "20");
        let line = csv_line(&v);
        assert!(line.starts_with("\"A,B\","), "dataset field must be RFC 4180 escaped: {line}");
        assert!(line.ends_with(",20\n"));
        // whole-relation CSV is exactly header + per-row lines
        let db = CleanMlDb { r1: vec![r], ..Default::default() };
        assert_eq!(db.r1_csv(), format!("{}\n{}", R1_COLUMNS.join(","), line));
        assert_eq!(db.relation_values(Relation::R1), vec![v.to_vec()]);
        let (cols, numeric_from) = relation_columns(Relation::R1);
        assert_eq!(cols.len(), v.len());
        assert_eq!(numeric_from, 7);
    }

    #[test]
    fn uncorrected_keeps_raw_flags() {
        let mut db = sample_db();
        let before: Vec<Flag> = db.r1.iter().map(|r| r.flag).collect();
        db.apply_correction(Correction::None, 0.05);
        let after: Vec<Flag> = db.r1.iter().map(|r| r.flag).collect();
        assert_eq!(before, after);
    }
}
