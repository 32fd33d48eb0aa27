//! The resident-engine (serving core) guarantees:
//!
//! * N concurrent submissions against one `Engine` produce CSVs
//!   byte-identical to N serial `run_study` invocations, and overlapping
//!   submissions dedupe into the *same* in-flight tasks — the overlap
//!   trains exactly once, provably from the executed-task counts;
//! * a repeated submission executes zero `Train` tasks (warm in-memory
//!   reuse, not just a disk hit);
//! * cancelling one submission mid-run releases its subgraph without
//!   disturbing another submission's byte-identical output;
//! * serving end to end over the HTTP gateway on real loopback TCP:
//!   `POST /studies` a study (cold, then warm) and a single cell, poll it
//!   to done, page the CSVs out — they byte-match the canonical rendering,
//!   and the warm answers execute nothing but a cell's own reduction.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cleanml_core::schema::ErrorType;
use cleanml_core::{run_study, CleanMlDb, ExperimentConfig};
use cleanml_engine::{Engine, EngineConfig, RunReport, TaskKind};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() }
}

/// The canonical CSV rendering (headers included) — exactly what the
/// serving layer ships and the `study` binary writes.
fn csv_of(db: &CleanMlDb) -> String {
    format!("{}{}{}", db.r1_csv(), db.r2_csv(), db.r3_csv())
}

fn trains(report: &RunReport) -> usize {
    report.executed(TaskKind::Train) + report.remote(TaskKind::Train)
}

#[test]
fn concurrent_submissions_are_serial_identical_and_train_once() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");
    let serial_csv = csv_of(&serial);

    // Baseline: how much a single cold run trains.
    let mut baseline = Engine::new(EngineConfig { workers: 4, ..Default::default() });
    let (_, base_report) = baseline.run_study_with_report(&ets, &cfg).expect("baseline");
    assert!(trains(&base_report) > 0, "a cold study must train");

    // Two submissions of the same study, merged into one resident engine
    // back to back, so the second rides the first's in-flight tasks.
    let engine = Engine::new(EngineConfig { workers: 4, ..Default::default() });
    let s1 = engine.submit_study(&ets, &cfg);
    let s2 = engine.submit_study(&ets, &cfg);
    let (db1, r1) = s1.wait().expect("first submission");
    let (db2, r2) = s2.wait().expect("second submission");

    assert_eq!(csv_of(&db1), serial_csv, "submission 1 vs serial");
    assert_eq!(csv_of(&db2), serial_csv, "submission 2 vs serial");
    assert_eq!(
        trains(&r1) + trains(&r2),
        trains(&base_report),
        "the overlap must dedupe into the same in-flight Train tasks: {r1:?} {r2:?}"
    );
    assert_eq!(
        r1.executed_total() + r2.executed_total(),
        base_report.executed_total(),
        "every task of the shared DAG executed exactly once"
    );

    // A third, repeated submission answers from the warm in-memory memo:
    // zero Train tasks — zero tasks at all.
    let s3 = engine.submit_study(&ets, &cfg);
    let (db3, r3) = s3.wait().expect("warm submission");
    assert_eq!(csv_of(&db3), serial_csv, "warm submission vs serial");
    assert_eq!(trains(&r3), 0, "warm submission retrained: {r3:?}");
    assert_eq!(r3.executed_total(), 0, "warm submission executed tasks: {r3:?}");
}

#[test]
fn cancel_mid_run_leaves_the_other_submission_byte_identical() {
    let cfg = tiny_cfg();
    let keep_ets = [ErrorType::Inconsistencies];

    let serial = run_study(&keep_ets, &cfg).expect("serial study");

    let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
    let keep = engine.submit_study(&keep_ets, &cfg);
    // A disjoint study whose subgraph is exclusively its own.
    let doomed = engine.submit_study(&[ErrorType::Duplicates], &cfg);
    std::thread::sleep(Duration::from_millis(50));
    doomed.cancel();
    let err = doomed.wait().expect_err("cancelled submission must error");
    assert!(err.to_string().contains("cancelled"), "{err}");

    let (db, report) = keep.wait().expect("surviving submission");
    assert_eq!(csv_of(&db), csv_of(&serial), "cancel disturbed the surviving submission");
    assert!(trains(&report) > 0);
}

// -- serving over the HTTP gateway on real loopback TCP -------------------

/// One `Connection: close` exchange; returns (status code, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to resident engine");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: cleanml\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status code");
    (status, body.to_string())
}

fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} missing in {body}"));
    let digits: String = body[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} not a number in {body}"))
}

/// Submits a form-encoded spec, polls it to done and pages out its
/// relations; returns the concatenated CSVs and the submission's task
/// count to run (zero when the warm memo answered everything).
fn serve(addr: SocketAddr, form: &str) -> Result<(String, u64), String> {
    let (status, created) = http(addr, "POST", "/studies", form);
    if status != 201 {
        return Err(format!("{status}: {created}"));
    }
    let id = json_u64(&created, "id");
    let deadline = Instant::now() + Duration::from_secs(300);
    let to_run = loop {
        let (status, body) = http(addr, "GET", &format!("/studies/{id}"), "");
        assert_eq!(status, 200, "status poll: {body}");
        if body.contains("\"state\":\"done\"") {
            break json_u64(&body, "to_run");
        }
        assert!(!body.contains("\"state\":\"failed\""), "study failed: {body}");
        assert!(Instant::now() < deadline, "study did not finish in time");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut csv = String::new();
    for table in ["r1", "r2", "r3"] {
        let (status, page) =
            http(addr, "GET", &format!("/studies/{id}/{table}.csv?limit=10000"), "");
        assert_eq!(status, 200, "{table}: {page}");
        csv.push_str(&page);
    }
    Ok((csv, to_run))
}

#[test]
fn serving_clients_get_byte_identical_csvs_and_warm_cell_answers() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");
    let serial_csv = csv_of(&serial);

    let engine = Engine::new(EngineConfig {
        workers: 4,
        listen: Some("127.0.0.1:0".into()),
        ..Default::default()
    });
    let addr = engine.remote_addr().expect("hub bound");
    // tiny_cfg: the quick profile pinned to 2 splits
    let study = "errors=inconsistencies&profile=quick&splits=2";

    // Cold: the engine computes; the paged CSVs are the canonical rendering.
    let (cold_csv, cold_to_run) = serve(addr, study).expect("cold study request");
    assert_eq!(cold_csv, serial_csv, "gateway CSVs vs serial rendering");
    assert!(cold_to_run > 0, "a cold study must run tasks");

    // Warm: byte-identical bytes and zero tasks to run — the in-memory
    // memo answered, not a re-run against the disk store.
    let (warm_csv, warm_to_run) = serve(addr, study).expect("warm study request");
    assert_eq!(warm_csv, cold_csv, "warm response must be byte-identical");
    assert_eq!(warm_to_run, 0, "warm serve executed tasks");

    // A single-cell query shares content addresses with the study just
    // served, so it too answers without training: its one task to run is
    // its own 1×1 grid reduction (a retrained model would add a Train).
    let cell = format!("{study}&cell=University/OpenRefine/Merge/Logistic+Regression");
    let (cell_csv, cell_to_run) = serve(addr, &cell).expect("cell request");
    assert!(
        cell_csv.contains("University,Inconsistencies,OpenRefine,Merge,Logistic Regression"),
        "cell CSV must contain the requested cell's R1 rows:\n{cell_csv}"
    );
    assert_eq!(cell_to_run, 1, "warm cell query ran more than its reduction");

    // Unknown names are refused up front with the graph builder's reason.
    let bad = format!("{study}&cell=Atlantis/OpenRefine/Merge/Logistic+Regression");
    let err = serve(addr, &bad).expect_err("unknown dataset must be refused");
    assert!(err.starts_with("400"), "{err}");
    assert!(err.contains("unknown dataset 'Atlantis'"), "{err}");
}
