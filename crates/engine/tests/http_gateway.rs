//! The HTTP results gateway end to end against a live engine:
//!
//! * `POST /studies` submits a spec through the resident core and
//!   returns an id; polling `GET /studies/:id` reaches `done`;
//! * `GET /studies/:id/r1` pages out rows **byte-identical** to the
//!   corresponding `CleanMlDb::r1_csv` slices — whole-relation pulls,
//!   limit/offset reassembly, and filtered/ordered selections all agree
//!   with the typed [`Select`] applied to the serial reference run;
//! * bearer auth refuses missing and wrong tokens on every `/studies`
//!   route with 401 before anything touches the registry, while
//!   `/metrics` stays open;
//! * unknown ids 404, bad query strings 400, and the per-route
//!   telemetry counters account for all of it;
//! * a finished study's status carries its own account, so concurrent
//!   submissions on one engine do not count each other's work.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cleanml_core::database::{csv_line, relation_columns};
use cleanml_core::schema::ErrorType;
use cleanml_core::{run_study, ExperimentConfig, Relation};
use cleanml_engine::{parse_query, Engine, EngineConfig, Select};

const TOKEN: &str = "integration-s3cret";

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() }
}

fn gateway_engine(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        listen: Some("127.0.0.1:0".into()),
        http_token: Some(TOKEN.into()),
        ..Default::default()
    })
}

/// One bounded HTTP exchange: request out, full response (head + body)
/// back as a string.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to hub");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    stream.flush().expect("flush");
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn get(addr: SocketAddr, path: &str, token: Option<&str>) -> String {
    let auth = match token {
        Some(t) => format!("Authorization: Bearer {t}\r\n"),
        None => String::new(),
    };
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: cleanml\r\n{auth}Connection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, token: Option<&str>, body: &str) -> String {
    let auth = match token {
        Some(t) => format!("Authorization: Bearer {t}\r\n"),
        None => String::new(),
    };
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: cleanml\r\n{auth}\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Splits an HTTP/1.1 response into owned (status line, body).
fn split_response(response: &str) -> (String, String) {
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (head.lines().next().unwrap_or("").to_string(), body.to_string())
}

/// Pulls `"key":<digits>` out of a flat JSON body without a parser.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} missing in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} not a number in {body}"))
}

/// POSTs a study spec and returns its id.
fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, body) = split_response(&post(addr, "/studies", Some(TOKEN), spec));
    assert!(status.starts_with("HTTP/1.1 201"), "submit {spec}: {status}: {body}");
    json_u64(&body, "id")
}

/// Polls study `id` until it is done and returns its last status body.
fn poll_done(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let response = get(addr, &format!("/studies/{id}"), Some(TOKEN));
        let (status, body) = split_response(&response);
        assert!(status.starts_with("HTTP/1.1 200"), "status poll: {status}: {body}");
        if body.contains("\"state\":\"done\"") {
            let done = json_u64(&body, "done");
            let to_run = json_u64(&body, "to_run");
            assert_eq!(done, to_run, "finished study must report full progress: {body}");
            return body;
        }
        assert!(!body.contains("\"state\":\"failed\""), "study failed: {body}");
        assert!(Instant::now() < deadline, "study did not finish in time");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn gateway_submits_polls_and_pages_rows_byte_identical_to_csv() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let serial = run_study(&ets, &cfg).expect("serial reference study");

    let engine = gateway_engine(2);
    let addr = engine.remote_addr().expect("hub bound");

    // -- auth: refused before the registry sees anything ---------------
    for response in [
        get(addr, "/studies", None),
        get(addr, "/studies", Some("wrong-token")),
        get(addr, "/studies/1/r1", None),
        post(addr, "/studies", None, "errors=inconsistencies"),
    ] {
        let (status, body) = split_response(&response);
        assert!(status.starts_with("HTTP/1.1 401"), "{status}: {body}");
        assert!(response.contains("WWW-Authenticate: Bearer"), "{response}");
    }
    // /metrics stays open — no token required.
    let (status, _) = split_response(&get(addr, "/metrics", None));
    assert!(status.starts_with("HTTP/1.1 200"), "open /metrics: {status}");

    // -- submit --------------------------------------------------------
    // The spec mirrors tiny_cfg: quick profile pinned to 2 splits.
    let id = submit(addr, "errors=inconsistencies&profile=quick&splits=2");
    assert!(id >= 1, "ids are monotonic from 1: {id}");

    // Malformed specs fail closed with 400.
    let (status, _) = split_response(&post(addr, "/studies", Some(TOKEN), "errors=bogus"));
    assert!(status.starts_with("HTTP/1.1 400"), "bad error type: {status}");
    let (status, _) = split_response(&post(addr, "/studies", Some(TOKEN), "profile=quick"));
    assert!(status.starts_with("HTTP/1.1 400"), "missing errors: {status}");

    // -- poll to done --------------------------------------------------
    poll_done(addr, id);

    // The submission also shows up in the list route.
    let (status, body) = split_response(&get(addr, "/studies", Some(TOKEN)));
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body.contains(&format!("\"id\":{id}")), "list misses study {id}: {body}");

    // -- whole-relation pulls are byte-identical to the CSVs -----------
    let expected = [serial.r1_csv(), serial.r2_csv(), serial.r3_csv()];
    for (table, want) in ["r1", "r2", "r3"].iter().zip(&expected) {
        let response = get(addr, &format!("/studies/{id}/{table}"), Some(TOKEN));
        let (status, body) = split_response(&response);
        assert!(status.starts_with("HTTP/1.1 200"), "{table}: {status}");
        assert!(response.contains("text/csv"), "bare rows default to CSV: {response}");
        assert_eq!(&body, want, "{table} must match the serial CSV byte-for-byte");
    }

    // -- limit/offset paging reassembles the exact CSV -----------------
    let full = serial.r1_csv();
    let rows: Vec<&str> = full.lines().skip(1).collect();
    assert!(rows.len() >= 4, "quick study too small to page: {} rows", rows.len());
    let half = rows.len() / 2;
    let page1 = get(addr, &format!("/studies/{id}/r1.csv?limit={half}"), Some(TOKEN));
    let page2 = get(addr, &format!("/studies/{id}/r1.csv?limit=10000&offset={half}"), Some(TOKEN));
    let (_, body1) = split_response(&page1);
    let (_, body2) = split_response(&page2);
    // Every page carries the header; drop it from the second page.
    let tail = body2.split_once('\n').expect("page 2 has a header").1;
    assert_eq!(format!("{body1}{tail}"), full, "paged slices must reassemble the CSV");

    // -- filtered + ordered selection matches the typed Select ---------
    let query = "model=logistic_regression&order=p_two&limit=10&offset=2";
    let values = serial.relation_values(Relation::R1);
    let select = Select::from_pairs(Relation::R1, &parse_query(query).unwrap()).unwrap();
    let (page, _) = select.apply(&values);
    let (columns, _) = relation_columns(Relation::R1);
    let mut want = columns.join(",");
    want.push('\n');
    for row in &page {
        want.push_str(&csv_line(row));
    }
    let response = get(addr, &format!("/studies/{id}/r1.csv?{query}"), Some(TOKEN));
    let (status, body) = split_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(body, want, "filtered page must equal Select over the serial rows");

    // The JSON rendering of the same selection reports the page shape
    // and carries one object per row.
    let response = get(addr, &format!("/studies/{id}/r1.json?{query}"), Some(TOKEN));
    let (status, body) = split_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(json_u64(&body, "offset"), 2, "{body}");
    assert_eq!(body.matches("\"dataset\":").count(), page.len(), "{body}");

    // -- failure modes -------------------------------------------------
    let (status, _) = split_response(&get(addr, "/studies/9999/r1", Some(TOKEN)));
    assert!(status.starts_with("HTTP/1.1 404"), "unknown id: {status}");
    let (status, _) = split_response(&get(addr, "/studies/9999", Some(TOKEN)));
    assert!(status.starts_with("HTTP/1.1 404"), "unknown id status: {status}");
    let response = get(addr, &format!("/studies/{id}/r1?bogus=1"), Some(TOKEN));
    let (status, _) = split_response(&response);
    assert!(status.starts_with("HTTP/1.1 400"), "unknown filter column: {status}");
    let response = get(addr, &format!("/studies/{id}/r1?limit=999999"), Some(TOKEN));
    let (status, _) = split_response(&response);
    assert!(status.starts_with("HTTP/1.1 400"), "limit beyond cap: {status}");
    let (status, _) = split_response(&get(addr, "/studies?x=1", Some(TOKEN)));
    assert!(status.starts_with("HTTP/1.1 400"), "list takes no query: {status}");

    // -- the route counters saw all of it ------------------------------
    let scrape = get(addr, "/metrics", None);
    for family in [
        "cleanml_http_route_requests_total{route=\"submit\"}",
        "cleanml_http_route_requests_total{route=\"status\"}",
        "cleanml_http_route_requests_total{route=\"rows\"}",
        "cleanml_http_route_requests_total{route=\"studies\"}",
        "cleanml_http_unauthorized_total",
    ] {
        let line = scrape
            .lines()
            .find(|l| l.starts_with(family))
            .unwrap_or_else(|| panic!("{family} missing:\n{scrape}"));
        let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value > 0, "{family} never incremented:\n{scrape}");
    }
}

/// Two studies POSTed at once on one engine each get their own account:
/// their reports add up to the report of the same error types POSTed
/// together on a fresh engine, and the list route carries no report.
#[test]
fn concurrent_submissions_each_report_their_own_account() {
    let spec = |errors: &str| format!("errors={errors}&profile=quick&splits=2");
    let engine = gateway_engine(2);
    let addr = engine.remote_addr().expect("hub bound");
    let ids = [submit(addr, &spec("inconsistencies")), submit(addr, &spec("outliers"))];
    let pair = ids.map(|id| poll_done(addr, id));
    let (status, list) = split_response(&get(addr, "/studies", Some(TOKEN)));
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(list.contains(&format!("\"id\":{}", ids[1])), "{list}");
    assert!(!list.contains("\"report\""), "the list carries no report: {list}");
    drop(engine);

    let engine = gateway_engine(2);
    let addr = engine.remote_addr().expect("hub bound");
    let both = poll_done(addr, submit(addr, &spec("inconsistencies,outliers")));
    for field in ["executed_local", "executed_train", "misses", "cv_fits"] {
        let alone = pair.each_ref().map(|body| json_u64(body, field));
        assert!(alone.iter().all(|&n| n > 0), "{field}: {pair:?}");
        assert_eq!(alone[0] + alone[1], json_u64(&both, field), "{field}: {pair:?} vs {both}");
    }
}
