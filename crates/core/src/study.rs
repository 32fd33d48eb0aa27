//! Full-study orchestration: which datasets participate in which error
//! type's experiments, and population of the CleanML database.

use cleanml_cleaning::ErrorType;
use cleanml_datagen::{
    generate, inject_mislabel_variant, specs, GeneratedDataset, MislabelStrategy,
    MISLABEL_INJECTION_DATASETS,
};

use crate::config::ExperimentConfig;
use crate::database::CleanMlDb;
use crate::runner::{evaluate_grid, Result};

/// FNV-1a hash for stable per-dataset seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed used to generate a dataset under a study base seed.
pub fn dataset_seed(name: &str, base_seed: u64) -> u64 {
    fnv1a(name) ^ base_seed.rotate_left(17)
}

/// One planned dataset of a study: everything needed to *generate* it,
/// without generating it. The engine builds `GenerateDataset` tasks from
/// plans so that a base dataset shared by several mislabel variants (or by
/// several error types) is generated exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetPlan {
    /// Final dataset name (e.g. `EEGuniform` for an injected variant).
    pub name: String,
    /// Name of the base [`cleanml_datagen::DatasetSpec`].
    pub spec_name: &'static str,
    /// Seed for generating the base dataset.
    pub seed: u64,
    /// Mislabel-injection step applied on top of the base, if any.
    pub variant: Option<(MislabelStrategy, u64)>,
}

impl DatasetPlan {
    /// Generates the planned dataset (base generation plus optional
    /// injection).
    pub fn realize(&self) -> GeneratedDataset {
        let spec = cleanml_datagen::spec_by_name(self.spec_name).expect("known dataset");
        let base = generate(spec, self.seed);
        match self.variant {
            Some((strategy, variant_seed)) => {
                inject_mislabel_variant(&base, strategy, variant_seed)
            }
            None => base,
        }
    }
}

/// The datasets participating in `error_type`'s experiments, as plans.
///
/// For mislabels this is the paper's 13 variants: Clothing (real mislabels)
/// plus {EEG, Marketing, Titanic, USCensus} × {uniform, major, minor}
/// injection (paper §III-B5). For every other error type it is the Table 3
/// column.
pub fn dataset_plan(error_type: ErrorType, base_seed: u64) -> Vec<DatasetPlan> {
    match error_type {
        ErrorType::Mislabels => {
            let mut out = Vec::with_capacity(13);
            out.push(DatasetPlan {
                name: "Clothing".into(),
                spec_name: "Clothing",
                seed: dataset_seed("Clothing", base_seed),
                variant: None,
            });
            for name in MISLABEL_INJECTION_DATASETS {
                for strategy in MislabelStrategy::all() {
                    let variant_seed = dataset_seed(name, base_seed) ^ fnv1a(strategy.suffix());
                    out.push(DatasetPlan {
                        name: format!("{name}{}", strategy.suffix()),
                        spec_name: name,
                        seed: dataset_seed(name, base_seed),
                        variant: Some((strategy, variant_seed)),
                    });
                }
            }
            out
        }
        _ => specs()
            .iter()
            .filter(|s| s.error_types.contains(&error_type))
            .map(|s| DatasetPlan {
                name: s.name.to_owned(),
                spec_name: s.name,
                seed: dataset_seed(s.name, base_seed),
                variant: None,
            })
            .collect(),
    }
}

/// The datasets participating in `error_type`'s experiments, generated
/// eagerly. Base datasets shared by several mislabel variants are generated
/// once and reused.
pub fn generate_datasets_for(error_type: ErrorType, base_seed: u64) -> Vec<GeneratedDataset> {
    let mut bases: Vec<((&'static str, u64), GeneratedDataset)> = Vec::new();
    dataset_plan(error_type, base_seed)
        .into_iter()
        .map(|plan| {
            let key = (plan.spec_name, plan.seed);
            if !bases.iter().any(|(k, _)| *k == key) {
                let spec = cleanml_datagen::spec_by_name(plan.spec_name).expect("known dataset");
                bases.push((key, generate(spec, plan.seed)));
            }
            let base = &bases.iter().find(|(k, _)| *k == key).expect("just inserted").1;
            match plan.variant {
                Some((strategy, variant_seed)) => {
                    inject_mislabel_variant(base, strategy, variant_seed)
                }
                None => base.clone(),
            }
        })
        .collect()
}

/// Runs the study for the given error types and returns the populated
/// database with Benjamini–Yekutieli-corrected flags.
pub fn run_study(error_types: &[ErrorType], cfg: &ExperimentConfig) -> Result<CleanMlDb> {
    let mut db = CleanMlDb::default();
    for &et in error_types {
        for data in generate_datasets_for(et, cfg.base_seed) {
            let grid = evaluate_grid(&data, et, cfg)?;
            db.r1.extend(grid.r1_rows()?);
            db.r2.extend(grid.r2_rows()?);
            db.r3.extend(grid.r3_rows()?);
        }
    }
    db.apply_benjamini_yekutieli(cfg.alpha);
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_participation_counts_match_paper() {
        let seed = 1;
        assert_eq!(generate_datasets_for(ErrorType::MissingValues, seed).len(), 6);
        assert_eq!(generate_datasets_for(ErrorType::Outliers, seed).len(), 4);
        assert_eq!(generate_datasets_for(ErrorType::Duplicates, seed).len(), 4);
        assert_eq!(generate_datasets_for(ErrorType::Inconsistencies, seed).len(), 4);
        assert_eq!(generate_datasets_for(ErrorType::Mislabels, seed).len(), 13);
    }

    #[test]
    fn mislabel_variant_names() {
        let variants = generate_datasets_for(ErrorType::Mislabels, 1);
        let names: Vec<&str> = variants.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"Clothing"));
        assert!(names.contains(&"EEGuniform"));
        assert!(names.contains(&"Marketingmajor"));
        assert!(names.contains(&"USCensusminor"));
        for v in &variants {
            assert!(!v.mislabeled_rows.is_empty(), "{}", v.name);
        }
    }

    #[test]
    fn plan_matches_eager_generation() {
        for et in [ErrorType::Outliers, ErrorType::Mislabels] {
            let plans = dataset_plan(et, 2);
            let eager = generate_datasets_for(et, 2);
            assert_eq!(plans.len(), eager.len());
            for (plan, data) in plans.iter().zip(&eager) {
                assert_eq!(plan.name, data.name);
                let realized = plan.realize();
                assert_eq!(realized.name, data.name);
                assert_eq!(realized.dirty, data.dirty, "{}", plan.name);
            }
        }
    }

    #[test]
    fn dataset_seeds_stable_and_distinct() {
        assert_eq!(dataset_seed("EEG", 5), dataset_seed("EEG", 5));
        assert_ne!(dataset_seed("EEG", 5), dataset_seed("EEG", 6));
        assert_ne!(dataset_seed("EEG", 5), dataset_seed("Sensor", 5));
    }

    /// End-to-end smoke: a tiny study over one error type populates all
    /// three relations with the right cardinalities.
    #[test]
    fn tiny_study_populates_relations() {
        let cfg = ExperimentConfig { n_splits: 3, ..ExperimentConfig::quick() };
        let db = run_study(&[ErrorType::Inconsistencies], &cfg).unwrap();
        // 4 datasets × 1 method × 7 models × 2 scenarios
        assert_eq!(db.r1.len(), 56);
        // 4 datasets × 1 method × 2 scenarios
        assert_eq!(db.r2.len(), 8);
        // 4 datasets × 2 scenarios
        assert_eq!(db.r3.len(), 8);
    }
}
