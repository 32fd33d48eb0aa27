//! The serial replay: the same grid the engine runs, composed from the
//! `cleanml_core::tasks` units one call at a time (the order of
//! `cleanml_core::run_study`), each call timed into a per-layer total and,
//! when tracing, recorded as a span under its grid.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cleanml_cleaning::{CleaningMethod, ErrorType};
use cleanml_core::runner::CellEval;
use cleanml_core::tasks::{self, TrainedModel};
use cleanml_core::{dataset_plan, CleanMlDb, CoreError, EvalGrid, ExperimentConfig};
use cleanml_ml::PAPER_MODELS;

use crate::metrics::{family_key, method_key};
use crate::trace::Tracer;

/// Metric stems whose spans are leaves of the blocking path; their sum is
/// the replay's total unit time (`engine.units_ms`). Predictions are
/// children of `core.evaluate`, rendering happens after the engine's wall.
const UNIT_STEMS: [&str; 6] = [
    "datagen.generate",
    "core.context",
    "dataset.split",
    "core.evaluate",
    "core.reduce",
    "stats.by",
];

/// Accumulated `(total time, calls)` per metric stem, e.g.
/// `cleaning.ZeroER-Deletion` or `ml.KNN.fit`.
#[derive(Default)]
pub struct Layers {
    pub totals: BTreeMap<String, (Duration, u64)>,
}

impl Layers {
    pub fn ms(&self, stem: &str) -> f64 {
        self.totals.get(stem).map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    pub fn calls(&self, stem: &str) -> u64 {
        self.totals.get(stem).map_or(0, |(_, n)| *n)
    }

    /// Σ unit time: generation, context, split, clean, fit, evaluate,
    /// reduce and BY correction.
    pub fn units_ms(&self) -> f64 {
        self.totals
            .iter()
            .filter(|(stem, _)| {
                UNIT_STEMS.contains(&stem.as_str())
                    || stem.starts_with("cleaning.")
                    || stem.ends_with(".fit")
            })
            .map(|(_, (d, _))| d.as_secs_f64() * 1e3)
            .sum()
    }
}

struct Timer<'a> {
    tracer: &'a Tracer,
    layers: &'a mut Layers,
    grid: String,
    /// Sweep calls are timed into their layer but kept out of Σ units.
    counted: bool,
}

impl Timer<'_> {
    fn time<T>(&mut self, stem: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.tracer.record(stem, &self.grid, start, dur, parent, 0);
        let key = if self.counted { stem.to_string() } else { format!("sweep.{stem}") };
        let e = self.layers.totals.entry(key).or_default();
        e.0 += dur;
        e.1 += 1;
        out
    }
}

/// Replays the study for `error_types` serially and returns its
/// BY-corrected database, which must equal the engine's byte for byte.
pub fn replay(
    error_types: &[ErrorType],
    cfg: &ExperimentConfig,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<CleanMlDb, CoreError> {
    let mut db = CleanMlDb::default();
    for &et in error_types {
        for plan in dataset_plan(et, cfg.base_seed) {
            let grid = format!("{}/{}", plan.name, et.name());
            let span = tracer.open("core.grid", &grid, None);
            let mut t = Timer { tracer, layers, grid, counted: true };
            let data = t.time("datagen.generate", span, || plan.realize());
            let ctx = t.time("core.context", span, || tasks::dataset_context(&data))?;
            let methods = CleaningMethod::catalogue(et);
            let fams: Vec<String> = PAPER_MODELS.iter().map(|&k| family_key(k)).collect();
            let mut cells = Vec::with_capacity(cfg.n_splits);
            for s in 0..cfg.n_splits {
                let split =
                    t.time("dataset.split", span, || tasks::make_split(&data, et, &ctx, cfg, s))?;
                let fit_seed = cfg.fit_seed(s);
                let dirty: Vec<TrainedModel> = PAPER_MODELS
                    .iter()
                    .enumerate()
                    .map(|(ki, &kind)| {
                        t.time(&format!("ml.{}.fit", fams[ki]), span, || {
                            tasks::train_dirty(kind, ki, &split, &ctx, cfg, fit_seed)
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let mut per_method = Vec::with_capacity(methods.len());
                for (mi, method) in methods.iter().enumerate() {
                    let stem = format!("cleaning.{}", method_key(method));
                    let clean = t.time(&stem, span, || {
                        tasks::make_clean(method, mi, et, &split, &ctx, fit_seed)
                    })?;
                    let mut row = Vec::with_capacity(PAPER_MODELS.len());
                    for (ki, &kind) in PAPER_MODELS.iter().enumerate() {
                        let model = t.time(&format!("ml.{}.fit", fams[ki]), span, || {
                            tasks::train_clean(
                                kind,
                                ki,
                                mi,
                                PAPER_MODELS.len(),
                                &clean,
                                &ctx,
                                cfg,
                                fit_seed,
                            )
                        })?;
                        // `tasks::evaluate_cell`, with each prediction timed
                        // into its family.
                        let eval = tracer.open("core.evaluate", &t.grid, span);
                        let started = Instant::now();
                        let predict = format!("ml.{}.predict", fams[ki]);
                        let metric = ctx.metric;
                        let acc_d = t.time(&predict, eval, || {
                            tasks::score_model(&model.model, &clean.clean_test_m, metric)
                        })?;
                        let acc_c = match &clean.dirty_test_m {
                            Some(m) => Some(t.time(&predict, eval, || {
                                tasks::score_model(&model.model, m, metric)
                            })?),
                            None => None,
                        };
                        let acc_b = t.time(&predict, eval, || {
                            tasks::score_model(
                                &dirty[ki].model,
                                &clean.clean_test_for_dirty,
                                metric,
                            )
                        })?;
                        row.push(CellEval {
                            val_dirty: dirty[ki].val,
                            val_clean: model.val,
                            acc_b,
                            acc_c,
                            acc_d,
                        });
                        tracer.close(eval);
                        let e = t.layers.totals.entry("core.evaluate".to_string()).or_default();
                        e.0 += started.elapsed();
                        e.1 += 1;
                    }
                    per_method.push(row);
                }
                cells.push(per_method);
            }
            t.time("core.reduce", span, || -> Result<(), CoreError> {
                let grid = EvalGrid::from_parts(
                    data.name.clone(),
                    et,
                    methods,
                    PAPER_MODELS.to_vec(),
                    ctx.metric,
                    cells,
                )?;
                db.r1.extend(grid.r1_rows()?);
                db.r2.extend(grid.r2_rows()?);
                db.r3.extend(grid.r3_rows()?);
                Ok(())
            })?;
            tracer.close(span);
        }
    }
    let mut t = Timer { tracer, layers, grid: "study".to_string(), counted: true };
    t.time("stats.by", None, || db.apply_benjamini_yekutieli(cfg.alpha));
    t.time("core.render", None, || (db.r1_csv(), db.r2_csv(), db.r3_csv()));
    Ok(db)
}

/// Cleans split 0 of the first dataset of every error type the workload
/// does not cover, once per Table 2 method. A traced run reports every
/// per-layer metric on every workload, and a method the grid lacks would
/// otherwise report a time of exactly 0 on every run, which reads as a
/// broken timer. So on `paper_cv` and `serve_warm` a method's metric times
/// this one clean, not the workload's own work. These calls count into the
/// method's metric but not into Σ units.
pub fn sweep(
    covered: &[ErrorType],
    cfg: &ExperimentConfig,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(), CoreError> {
    for et in ErrorType::all().into_iter().filter(|et| !covered.contains(et)) {
        let plan = dataset_plan(et, cfg.base_seed)
            .into_iter()
            .next()
            .expect("every error type has datasets");
        let grid = format!("sweep/{}/{}", plan.name, et.name());
        let data = plan.realize();
        let ctx = tasks::dataset_context(&data)?;
        let split = tasks::make_split(&data, et, &ctx, cfg, 0)?;
        let fit_seed = cfg.fit_seed(0);
        let mut t = Timer { tracer, layers, grid, counted: false };
        for (mi, method) in CleaningMethod::catalogue(et).iter().enumerate() {
            let stem = format!("cleaning.{}", method_key(method));
            t.time(&stem, None, || tasks::make_clean(method, mi, et, &split, &ctx, fit_seed))?;
        }
    }
    Ok(())
}
