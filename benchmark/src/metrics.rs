//! Metric definitions: the end-to-end metrics with their regression bounds,
//! the per-layer metrics with the end-to-end metric each should move, and
//! the `BENCHMARK.json` rendering of both.

use cleanml_cleaning::{CleaningMethod, ErrorType};
use cleanml_engine::TaskKind;
use cleanml_ml::{ModelKind, PAPER_MODELS};

use crate::workload::Workload;

/// An end-to-end metric: what a user of the engine sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15 },
    EndToEnd { name: "store_mb", unit: "MiB", better: "lower", bound: 0.1 },
    EndToEnd { name: "http_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "http_p99_ms", unit: "ms", better: "lower", bound: 0.25 },
];

/// A per-layer metric and the end-to-end metric (on the named workloads)
/// it should move.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

/// HTTP routes the serving mix exercises, as named in the metrics.
pub const ROUTES: [&str; 6] = ["rows_csv", "rows_json", "status", "list", "metrics", "submit"];

/// Metric-name form of a string: every character outside
/// `[A-Za-z0-9_.-]` becomes `_`.
pub fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "_.-".contains(c) { c } else { '_' })
        .collect()
}

/// `cleaning.<key>` for a Table 2 method, e.g. `ZeroER-Deletion`.
pub fn method_key(m: &CleaningMethod) -> String {
    sanitize(&format!("{}-{}", m.detection.name(), m.repair.name()))
}

/// `ml.<key>` for a model family, e.g. `Random_Forest`.
pub fn family_key(k: ModelKind) -> String {
    sanitize(k.name())
}

/// Every Table 2 method in catalogue order (21 of them).
pub fn all_methods() -> Vec<CleaningMethod> {
    ErrorType::all().into_iter().flat_map(CleaningMethod::catalogue).collect()
}

pub fn per_layer() -> Vec<Layer> {
    fn l(
        name: impl Into<String>,
        unit: &'static str,
        better: &'static str,
        moves: &'static str,
    ) -> Layer {
        Layer { name: name.into(), unit, better, moves }
    }
    const QUICK_WALL: &str = "wall_s on quick_cold only";
    const STUDY_WALL: &str = "wall_s slightly on quick_cold and paper_cv";
    const ENGINE: &str = "store_mb and peak_rss_mb on quick_cold; under 1% of wall_s";
    const HTTP: &str = "http_p50_ms and http_p99_ms on serve_warm only";
    let mut v = vec![
        l("datagen.generate_ms", "ms", "lower", QUICK_WALL),
        l("datagen.generate_calls", "count", "lower", QUICK_WALL),
        l("dataset.split_ms", "ms", "lower", QUICK_WALL),
        l("dataset.split_calls", "count", "lower", QUICK_WALL),
    ];
    for m in all_methods() {
        let key = method_key(&m);
        let moves = "wall_s on quick_cold; not on paper_cv";
        v.push(l(format!("cleaning.{key}.ms"), "ms", "lower", moves));
        v.push(l(format!("cleaning.{key}.calls"), "count", "lower", moves));
    }
    for k in PAPER_MODELS {
        let key = family_key(k);
        let moves = "wall_s and cpu_s on paper_cv most, quick_cold second";
        v.push(l(format!("ml.{key}.fit_ms"), "ms", "lower", moves));
        v.push(l(format!("ml.{key}.fit_calls"), "count", "lower", moves));
        v.push(l(format!("ml.{key}.predict_ms"), "ms", "lower", moves));
    }
    let cv = "wall_s on paper_cv only (the quick budget runs one candidate)";
    v.push(l("ml.cv.fits", "count", "lower", cv));
    v.push(l("ml.cv.fold_reuse", "count", "higher", cv));
    v.push(l("ml.cv.reuse_ratio", "ratio", "higher", cv));
    v.push(l("core.context_ms", "ms", "lower", STUDY_WALL));
    v.push(l("core.evaluate_ms", "ms", "lower", STUDY_WALL));
    v.push(l("core.reduce_ms", "ms", "lower", STUDY_WALL));
    v.push(l("stats.by_ms", "ms", "lower", STUDY_WALL));
    v.push(l("core.render_ms", "ms", "lower", STUDY_WALL));
    v.push(l("engine.graph_ms", "ms", "lower", ENGINE));
    v.push(l("engine.submit_ms", "ms", "lower", ENGINE));
    v.push(l("engine.resume_submit_ms", "ms", "lower", "engine.resume_ms on quick_cold"));
    v.push(l("engine.resume_ms", "ms", "lower", "the warm resume on quick_cold"));
    v.push(l("engine.cell_p50_ms", "ms", "lower", "the warm cell query on serve_warm"));
    v.push(l("engine.cell_p99_ms", "ms", "lower", "the warm cell query on serve_warm"));
    v.push(l("engine.cell_submit_ms", "ms", "lower", "engine.cell_p50_ms on serve_warm"));
    for kind in TaskKind::ALL {
        v.push(l(format!("engine.executed.{}", kind.name()), "count", "lower", ENGINE));
    }
    v.push(l("engine.cache_hits", "count", "higher", "engine.resume_ms on quick_cold"));
    v.push(l(
        "engine.store_files",
        "count",
        "lower",
        "store_mb and engine.resume_ms on quick_cold",
    ));
    v.push(l("engine.wall_w1_ms", "ms", "lower", "wall_s on quick_cold and paper_cv"));
    v.push(l("engine.units_ms", "ms", "lower", "wall_s on quick_cold and paper_cv"));
    v.push(l("engine.overhead_ms", "ms", "lower", "wall_s by under 1% on quick_cold and paper_cv"));
    let par = "wall_s and cpu_s on quick_cold and paper_cv";
    v.push(l("parallel.speedup", "ratio", "higher", par));
    v.push(l("parallel.cpu_util", "ratio", "higher", par));
    for route in ROUTES {
        v.push(l(format!("http.{route}.p50_ms"), "ms", "lower", HTTP));
        v.push(l(format!("http.{route}.p90_ms"), "ms", "lower", HTTP));
    }
    v.push(l("http.requests", "count", "higher", HTTP));
    v.push(l("http.connect_ms", "ms", "lower", HTTP));
    v.push(l("http.ttfb_ms", "ms", "lower", HTTP));
    v.push(l("http.render_ms", "ms", "lower", HTTP));
    v.push(l("http.wait_ms", "ms", "lower", HTTP));
    v.push(l("http.transfer_ms", "ms", "lower", HTTP));
    v.push(l("http.status_polls", "count", "lower", "setup_s on serve_warm"));
    v
}

/// The repository's `BENCHMARK.json`, rendered from the definitions above
/// (the benchmark's tests compare the committed file against it).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
    out.push_str("  \"workloads\": [\n");
    let w: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                crate::json_str(w.name()),
                crate::json_str(w.why())
            )
        })
        .collect();
    out.push_str(&w.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let p: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&p.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in names {
            assert!(valid_name(&n), "{n}");
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        assert_eq!(all_methods().len(), 21);
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn committed_benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json(), "regenerate with `--print-benchmark-json`");
    }
}
