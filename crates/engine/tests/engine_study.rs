//! End-to-end engine guarantees: determinism across worker counts,
//! equivalence with the serial runner, and warm-cache resumption that
//! re-trains nothing.

use std::path::PathBuf;
use std::sync::mpsc;

use cleanml_core::schema::ErrorType;
use cleanml_core::{run_study, CleanMlDb, ExperimentConfig};
use cleanml_engine::{CellQuery, Engine, EngineConfig, EngineEvent, TaskKind};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() }
}

fn assert_identical(a: &CleanMlDb, b: &CleanMlDb, what: &str) {
    assert_eq!(a.r1, b.r1, "{what}: R1 differs");
    assert_eq!(a.r2, b.r2, "{what}: R2 differs");
    assert_eq!(a.r3, b.r3, "{what}: R3 differs");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cleanml-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn one_and_eight_workers_match_the_serial_path() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");

    let mut one = Engine::new(EngineConfig { workers: 1, cache_dir: None, ..Default::default() });
    let (db_one, report_one) = one.run_study_with_report(&ets, &cfg).expect("1-worker study");

    let mut eight = Engine::new(EngineConfig { workers: 8, cache_dir: None, ..Default::default() });
    let (db_eight, report_eight) = eight.run_study_with_report(&ets, &cfg).expect("8-worker study");

    assert_identical(&serial, &db_one, "serial vs 1 worker");
    assert_identical(&db_one, &db_eight, "1 worker vs 8 workers");

    // Both engine runs executed the same DAG from a cold cache.
    assert_eq!(report_one.total, report_eight.total);
    assert_eq!(report_one.executed_total(), report_eight.executed_total());
    assert!(report_one.executed(TaskKind::Train) > 0, "cold run must train");
    assert_eq!(report_one.workers, 1);
    assert_eq!(report_eight.workers, 8);
}

#[test]
fn warm_disk_cache_resumes_with_zero_training() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let dir = temp_dir("warm");

    // Cold run: populates the run directory.
    let mut cold = Engine::new(EngineConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_cold, report_cold) = cold.run_study_with_report(&ets, &cfg).expect("cold study");
    assert!(report_cold.executed(TaskKind::Train) > 0);
    assert!(cold.disk_store().unwrap().writes() > 0, "cells and contexts must persist");

    // Warm run in a *fresh* engine (new process semantics): every cell and
    // context is served from disk; no dataset is regenerated, no model is
    // trained, no cell is re-evaluated — only the grid reduction runs.
    let mut warm = Engine::new(EngineConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_warm, report_warm) = warm.run_study_with_report(&ets, &cfg).expect("warm study");
    assert_identical(&db_cold, &db_warm, "cold vs warm");

    assert_eq!(report_warm.executed(TaskKind::Train), 0, "warm run re-trained");
    assert_eq!(report_warm.executed(TaskKind::Evaluate), 0);
    assert_eq!(report_warm.executed(TaskKind::GenerateDataset), 0);
    assert_eq!(report_warm.executed(TaskKind::Split), 0);
    assert_eq!(report_warm.executed(TaskKind::Clean), 0);
    // Everything demanded besides the reduce sinks came from the cache:
    // 100% hits over the non-reduce frontier.
    let grids = report_warm.executed(TaskKind::Reduce);
    assert!(grids > 0);
    assert_eq!(report_warm.executed_total(), grids);
    assert_eq!(
        report_warm.cache_hits + report_warm.pruned + grids,
        report_warm.total,
        "every non-reduce task was a cache hit or pruned"
    );
    // a fresh engine's memo is empty: its hits are disk hits
    assert!(report_warm.cache_hits > 0);

    // Third run on the same engine: the in-memory layer now holds the
    // grids themselves, so *nothing* executes at all.
    let (db_mem, report_mem) = warm.run_study_with_report(&ets, &cfg).expect("memory study");
    assert_identical(&db_cold, &db_mem, "cold vs in-memory");
    assert_eq!(report_mem.executed_total(), 0, "in-memory rerun ran tasks");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_and_singleton_evaluate_agree_cell_for_cell() {
    let cfg = tiny_cfg();
    let et = ErrorType::Inconsistencies;

    // Full study: every Evaluate runs fused — one batch per
    // (split, cleaning method) carrying all models.
    let mut full = Engine::new(EngineConfig { workers: 2, cache_dir: None, ..Default::default() });
    let (db_full, _) = full.run_study_with_report(&[et], &cfg).expect("full study");

    // The same cell through a cold 1×1 query on a fresh engine: subset
    // grids keep the singleton Evaluate path, so this exercises the
    // other codepath end to end (no shared cache to hide behind).
    let query = CellQuery {
        error_type: et,
        dataset: "University".into(),
        detection: "OpenRefine".into(),
        repair: "Merge".into(),
        model: "Logistic Regression".into(),
    };
    let single = Engine::new(EngineConfig { workers: 2, cache_dir: None, ..Default::default() });
    let sub = single.submit_query(&query, &cfg).expect("known cell");
    let (db_cell, report) = sub.wait().expect("query run");
    assert!(
        report.executed(TaskKind::Evaluate) > 0,
        "a cold query must execute singleton Evaluates"
    );

    // Cell-granular rows (R1) must agree on the raw evidence. Flags are
    // excluded on purpose: BY correction runs over each database's own
    // row family, which legitimately differs between a 1×1 query and the
    // full study.
    assert!(!db_cell.r1.is_empty());
    for row in &db_cell.r1 {
        let matched = db_full
            .r1
            .iter()
            .find(|r| {
                r.dataset == row.dataset
                    && r.detection == row.detection
                    && r.repair == row.repair
                    && r.model == row.model
                    && r.scenario == row.scenario
            })
            .expect("full study contains the queried cell");
        assert_eq!(
            matched.evidence, row.evidence,
            "batched and singleton Evaluate disagree on {:?} scenario {:?}",
            row.model, row.scenario
        );
    }
}

/// Sum of artifact payload bytes currently in a run directory.
fn art_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    // artifact payloads and their in-flight temp files; the
                    // index sidecar is bookkeeping, not cached payload
                    !name.starts_with("index.v2")
                        && (name.ends_with(".art") || name.contains(".tmp-"))
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The acceptance scenario: a study killed mid-run (simulated by the exact
/// disk state such a kill leaves — finished Clean/Train artifacts present,
/// unfinished cells absent, index stale) resumes with *zero* retraining and
/// reproduces the uninterrupted run's relations bit for bit.
#[test]
fn killed_run_resumes_without_retraining() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let dir = temp_dir("killed");

    let serial = run_study(&ets, &cfg).expect("serial study");

    let mut cold = Engine::new(EngineConfig {
        workers: 4,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_cold, report_cold) = cold.run_study_with_report(&ets, &cfg).expect("cold study");
    assert_identical(&serial, &db_cold, "serial vs cold");
    assert!(report_cold.executed(TaskKind::Train) > 0);
    drop(cold);

    // Simulate the kill: every Evaluate artifact vanishes (those tasks had
    // not finished), and the index file is stale (never flushed after the
    // final writes) — the store must rebuild it from the directory scan.
    // Evaluate batches and their fanned-out singleton cells are recognized
    // by their payload dispatch tags inside the frame.
    let mut dropped_batches = 0usize;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "art") {
            let bytes = std::fs::read(&path).unwrap();
            let payload = cleanml_dataset::codec::open_frame(&bytes).expect("stored frame valid");
            match payload.first() {
                Some(&b'B') => {
                    std::fs::remove_file(&path).unwrap();
                    dropped_batches += 1;
                }
                Some(&b'C') => std::fs::remove_file(&path).unwrap(),
                _ => {}
            }
        }
    }
    assert!(dropped_batches > 0, "study must have persisted evaluate batches");
    let _ = std::fs::remove_file(dir.join("index.v2"));

    let mut resumed = Engine::new(EngineConfig {
        workers: 4,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_resumed, report) = resumed.run_study_with_report(&ets, &cfg).expect("resumed study");

    // The acceptance criterion: zero (dataset, error, model, split) cells
    // are retrained — models, cleaned matrices and splits all come back
    // from the artifact store; only the lost evaluations and the grid
    // reductions execute.
    assert_eq!(report.executed(TaskKind::Train), 0, "resume retrained a model");
    assert_eq!(report.executed(TaskKind::Clean), 0, "resume re-cleaned");
    assert_eq!(report.executed(TaskKind::Split), 0, "resume re-split");
    assert_eq!(report.executed(TaskKind::GenerateDataset), 0, "resume regenerated data");
    assert_eq!(report.executed(TaskKind::Evaluate), dropped_batches, "exactly the lost batches");
    assert!(report.executed(TaskKind::Reduce) > 0);

    // Relations are bit-identical to the uninterrupted serial run, so the
    // CSVs rendered from them are byte-identical.
    assert_identical(&serial, &db_resumed, "serial vs resumed");

    let _ = std::fs::remove_dir_all(&dir);
}

/// With `cache_max_bytes` set, the run completes correctly and the run
/// directory (artifacts + temp files) never exceeds the cap — checked
/// continuously from the event stream while workers are writing.
#[test]
fn byte_capped_cache_stays_bounded() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let dir = temp_dir("capped");
    let cap: u64 = 48 * 1024;

    let (tx, rx) = mpsc::channel();
    let watch_dir = dir.clone();
    let watcher = std::thread::spawn(move || {
        let mut max_seen = 0u64;
        for event in rx {
            if let EngineEvent::TaskFinished { .. } = event {
                max_seen = max_seen.max(art_bytes(&watch_dir));
            }
        }
        max_seen
    });

    let mut engine = Engine::new(EngineConfig {
        workers: 4,
        cache_dir: Some(dir.clone()),
        cache_max_bytes: Some(cap),
        ..Default::default()
    })
    .with_events(tx);
    let db = engine.run_study(&ets, &cfg).expect("capped study");
    let evictions = engine.disk_store().unwrap().evictions();
    assert!(evictions > 0, "cap must actually bite: {evictions} evictions");
    assert!(engine.disk_store().unwrap().total_bytes() <= cap);
    drop(engine);
    let max_seen = watcher.join().expect("watcher");
    assert!(max_seen <= cap, "run directory exceeded the cap: {max_seen} > {cap}");
    assert!(art_bytes(&dir) <= cap);

    // and the capped run still produces the exact study result
    let serial = run_study(&ets, &cfg).expect("serial study");
    assert_identical(&serial, &db, "serial vs capped");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two engines sharing one cache directory concurrently (two-process
/// semantics): atomic writes mean neither can observe a torn artifact, and
/// both produce the exact study relations.
#[test]
fn concurrent_engines_share_a_cache_dir_safely() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let dir = temp_dir("shared");

    let run = |dir: std::path::PathBuf| {
        std::thread::spawn(move || {
            let mut engine = Engine::new(EngineConfig {
                workers: 2,
                cache_dir: Some(dir),
                ..Default::default()
            });
            engine.run_study(&[ErrorType::Inconsistencies], &cfg).expect("shared-dir study")
        })
    };
    let (a, b) = (run(dir.clone()), run(dir.clone()));
    let db_a = a.join().expect("engine a");
    let db_b = b.join().expect("engine b");

    let serial = run_study(&ets, &cfg).expect("serial study");
    assert_identical(&serial, &db_a, "serial vs engine a");
    assert_identical(&serial, &db_b, "serial vs engine b");

    // the directory is left fully warm: a third engine re-trains nothing
    let mut warm = Engine::new(EngineConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_warm, report) = warm.run_study_with_report(&ets, &cfg).expect("warm study");
    assert_identical(&serial, &db_warm, "serial vs warm");
    assert_eq!(report.executed_total(), report.executed(TaskKind::Reduce));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm store whose entries have been corrupted (bit flips, truncations)
/// or replaced by hex-text-era files degrades to cache misses: the study
/// re-runs the affected tasks, produces bit-identical relations, and GCs
/// every bad entry — no panic, no hang, no mangled artifact.
#[test]
fn corrupt_and_legacy_store_entries_degrade_to_misses() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let dir = temp_dir("corrupt");

    let mut cold = Engine::new(EngineConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_cold, _) = cold.run_study_with_report(&ets, &cfg).expect("cold study");
    drop(cold);

    // Vandalize the store: rotate through a bit flip mid-payload, a
    // truncation, and a hex-text-era replacement. Fanned-out singleton
    // cells (payload tag 'C') are skipped: a full-study graph only demands
    // the fused batches, so an unread singleton copy would survive the
    // resume unrepaired by design.
    let mut vandalized = 0usize;
    for (i, entry) in std::fs::read_dir(&dir).unwrap().flatten().enumerate() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "art") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        if cleanml_dataset::codec::open_frame(&bytes)
            .is_some_and(|payload| payload.first() == Some(&b'C'))
        {
            continue;
        }
        match i % 3 {
            0 => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
                std::fs::write(&path, &bytes).unwrap();
            }
            1 => {
                bytes.truncate(bytes.len() / 2);
                std::fs::write(&path, &bytes).unwrap();
            }
            _ => {
                std::fs::write(&path, "trained v1 3fe0000000000000 const 0 2").unwrap();
            }
        }
        vandalized += 1;
    }
    assert!(vandalized > 0, "cold run must have persisted artifacts");

    let mut resumed = Engine::new(EngineConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_resumed, report) = resumed.run_study_with_report(&ets, &cfg).expect("resumed study");
    assert_identical(&db_cold, &db_resumed, "cold vs corrupt-store resume");
    assert!(report.executed_total() > 0, "corrupt entries must re-run, not serve");

    // Every surviving entry is once again a valid frame.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "art") {
            let bytes = std::fs::read(&path).unwrap();
            assert!(
                cleanml_dataset::codec::open_frame(&bytes).is_some(),
                "store left with an invalid frame: {}",
                path.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_events_cover_the_run() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let (tx, rx) = mpsc::channel();
    let mut engine =
        Engine::new(EngineConfig { workers: 2, cache_dir: None, ..Default::default() })
            .with_events(tx);
    let (_, report) = engine.run_study_with_report(&ets, &cfg).expect("study");

    let events: Vec<EngineEvent> = rx.try_iter().collect();
    let mut saw_graph = false;
    let mut started = 0usize;
    let mut finished = 0usize;
    let mut run_finished = false;
    for e in &events {
        match e {
            EngineEvent::GraphReady { total, to_run, .. } => {
                saw_graph = true;
                assert_eq!(*total, report.total);
                assert_eq!(*to_run, report.executed_total());
            }
            EngineEvent::TaskStarted { .. } => started += 1,
            EngineEvent::TaskFinished { ok, .. } => {
                assert!(ok);
                finished += 1;
            }
            EngineEvent::RunFinished => run_finished = true,
            other => panic!("local-only run emitted a remote event: {other:?}"),
        }
    }
    assert!(saw_graph, "GraphReady not emitted");
    assert!(run_finished, "RunFinished not emitted");
    assert_eq!(finished, report.executed_total());
    assert_eq!(started, finished);
}
