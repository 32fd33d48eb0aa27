//! Tiny-profile smoke runs of every workload, untraced and traced, plus the
//! check that the pinned R1–R3 digests equal the serial oracle's.

use std::path::PathBuf;

use cleanml_layerbench::metrics::{per_layer, END_TO_END};
use cleanml_layerbench::workload::{digests, run, Scale, Workload, PINNED, PINNED_SEED};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cleanml-layerbench-{tag}-{}", std::process::id()))
}

fn names(report: &cleanml_layerbench::workload::Report) -> Vec<String> {
    report.metrics.iter().map(|(n, ..)| n.clone()).collect()
}

/// One test, run sequentially: the engine's registry and the CV counters
/// are process-global, so concurrent workloads would read each other's
/// deltas.
#[test]
fn every_workload_runs_clean_on_the_tiny_profile() {
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let layers: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    for workload in Workload::ALL {
        // The paper budget is the workload itself; traced, it would take
        // minutes, and the traced path is shared with the other two.
        let modes: &[bool] = if workload == Workload::PaperCv { &[false] } else { &[false, true] };
        for &traced in modes {
            let dir = scratch(&format!("{}-{traced}", workload.name()));
            let report = run(workload, 3, &Scale::tiny(workload), traced, &dir, None)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(report.failed, 0, "{} traced={traced}: {:?}", workload.name(), report.notes);
            assert!(report.attempted > 10);
            assert_eq!(names(&report), if traced { layers.clone() } else { e2e.clone() });
            assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite()));
            if !traced {
                assert!(report.metrics.iter().all(|(_, v, _)| *v > 0.0), "{:?}", report.metrics);
            } else {
                let get = |n: &str| report.metrics.iter().find(|(m, ..)| m == n).expect(n).1;
                assert_eq!(get("engine.executed.reduce"), 4.0, "4 inconsistency datasets");
                assert!(
                    get("cleaning.ZeroER-Deletion.calls") > 0.0,
                    "the sweep covers every method"
                );
                assert!(get("engine.units_ms") > 0.0);
                assert!(report.notes.iter().any(|n| n.starts_with("reconcile")));
            }
        }
    }
}

/// Slow (a full serial quick study and a paper-budget study): run with
/// `cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored`.
#[test]
#[ignore]
fn pinned_digests_match_the_serial_oracle() {
    for (workload, want) in PINNED {
        let cfg = workload.config(PINNED_SEED);
        let db = cleanml_core::run_study(&workload.error_types(), &cfg).expect("serial oracle");
        assert_eq!(digests(&db), want.map(String::from), "{}", workload.name());
    }
}
