//! The `/metrics` plane on the shared listener:
//!
//! * a plain HTTP `GET /metrics` against a live engine's hub returns
//!   Prometheus text — `# TYPE` lines, per-kind task-latency histograms
//!   with cumulative buckets, a queue wait for every executed task,
//!   cache hit/miss counters;
//! * hostile first contact fails closed: garbage magic, malformed
//!   request lines and oversized request heads are dropped without a
//!   panic and without touching the task pool, while well-formed
//!   requests for unknown routes earn an explicit 404;
//! * after every such rejection the same engine still computes a study
//!   with byte-identical results;
//! * with a bearer token configured, HTTP is the only way in: a CMAF
//!   frame carrying the retired `Submit` message closes unanswered, and a
//!   token-less cell submission is refused — no submission is created.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cleanml_core::schema::ErrorType;
use cleanml_core::{run_study, ExperimentConfig};
use cleanml_dataset::codec::{push_bytes, push_tag, seal_frame};
use cleanml_engine::{Engine, EngineConfig, StudySpec, TaskKind};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() }
}

fn hub_engine(workers: usize) -> Engine {
    Engine::new(EngineConfig { workers, listen: Some("127.0.0.1:0".into()), ..Default::default() })
}

/// Writes raw bytes to the hub and reads until the server closes. The
/// responder always closes after one exchange, so EOF terminates every
/// conversation — including the silent rejections.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect to hub");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    // The server may close mid-write on oversized requests; that is the
    // behaviour under test, not a failure.
    let _ = stream.write_all(request);
    let _ = stream.flush();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let req = format!("GET {path} HTTP/1.1\r\nHost: cleanml\r\nConnection: close\r\n\r\n");
    String::from_utf8_lossy(&raw_exchange(addr, req.as_bytes())).into_owned()
}

#[test]
fn metrics_scrape_returns_prometheus_text_with_task_histograms() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let mut engine = hub_engine(2);
    let addr = engine.remote_addr().expect("hub bound");

    // Execute real work first so the scrape shows a live registry, not
    // an all-zero one.
    let (_db, report) = engine.run_study_with_report(&ets, &cfg).expect("study run");

    let response = http_get(addr, "/metrics");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "status line: {head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "exposition content type: {head}"
    );

    // Counter families with # TYPE lines and executed work.
    assert!(body.contains("# TYPE cleanml_tasks_executed_total counter"), "{body}");
    assert!(
        body.contains(r#"cleanml_tasks_executed_total{kind="train",site="local"}"#),
        "per-kind executed counter missing:\n{body}"
    );
    assert!(body.contains("# TYPE cleanml_cache_hits_total counter"), "{body}");
    assert!(body.contains(r#"cleanml_cache_hits_total{layer="memory"}"#), "{body}");
    assert!(body.contains("cleanml_cache_misses_total"), "{body}");
    assert!(body.contains("# TYPE cleanml_leases_active gauge"), "{body}");
    assert!(body.contains("# TYPE cleanml_submissions_total counter"), "{body}");

    // Per-kind latency histogram: buckets end at +Inf and the +Inf count
    // equals the _count sample (cumulativeness is proven bucket-by-bucket
    // in the unit tests; here we prove the wire rendering agrees).
    assert!(body.contains("# TYPE cleanml_task_seconds histogram"), "{body}");
    let inf = body
        .lines()
        .find(|l| l.starts_with(r#"cleanml_task_seconds_bucket{kind="train",le="+Inf"}"#))
        .expect("train +Inf bucket");
    let count = body
        .lines()
        .find(|l| l.starts_with(r#"cleanml_task_seconds_count{kind="train"}"#))
        .expect("train count sample");
    let value = |l: &str| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
    assert_eq!(value(inf), value(count), "+Inf bucket vs count");
    assert!(value(count) > 0, "the study trained; the histogram must have observations");

    // Every locally executed task waited in the ready list first, so the
    // queue-wait family has at least one observation per train task the
    // run executed. At least, not equal: the registry is process-wide and
    // other tests in this binary run studies too.
    let queued = body
        .lines()
        .find(|l| l.starts_with(r#"cleanml_task_queue_seconds_count{kind="train"}"#))
        .expect("train queue-wait count sample");
    let trained = report.executed(TaskKind::Train) as u64;
    assert!(trained > 0, "a cold study trains");
    assert!(value(queued) >= trained, "queue waits {} < trains {trained}", value(queued));

    // The scrape itself is counted.
    let again = http_get(addr, "/metrics");
    assert!(again.contains("cleanml_http_requests_total"), "{again}");
}

#[test]
fn hostile_first_contact_fails_closed_and_the_pool_still_serves() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let serial = run_study(&ets, &cfg).expect("serial study");

    let mut engine = hub_engine(2);
    let addr = engine.remote_addr().expect("hub bound");

    // Garbage magic: neither CMAF nor "GET " — dropped without a reply.
    let reply = raw_exchange(addr, b"XYZW garbage that is neither frame nor http\r\n");
    assert!(reply.is_empty(), "garbage magic must be dropped silently: {reply:?}");

    // POST now classifies as HTTP (the gateway accepts POST /studies),
    // but /metrics is not a POST route: a well-formed head earns a 404.
    let reply = raw_exchange(addr, b"POST /metrics HTTP/1.1\r\n\r\n");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 404"), "POST /metrics: {reply}");

    // Unknown method: dropped without a reply.
    let reply = raw_exchange(addr, b"PUT /metrics HTTP/1.1\r\n\r\n");
    assert!(reply.is_empty(), "PUT must be dropped silently");

    // Malformed request line (three tokens required).
    let reply = raw_exchange(addr, b"GET /metrics\r\n\r\n");
    assert!(reply.is_empty(), "malformed request line must be dropped");

    // Oversized head: far past the responder's byte cap, never
    // terminated — the server must cut the connection, not buffer it.
    let mut oversized = Vec::from(&b"GET /"[..]);
    oversized.extend(std::iter::repeat_n(b'a', 64 * 1024));
    let reply = raw_exchange(addr, &oversized);
    assert!(reply.is_empty(), "oversized head must be dropped");

    // Oversized head whose terminator *does* arrive: equally hostile.
    // Regression — the old loop only applied the cap while the
    // terminator was missing, so this request used to be served.
    let mut terminated = Vec::from(&b"GET /metrics HTTP/1.1\r\nX-Pad: "[..]);
    terminated.extend(std::iter::repeat_n(b'a', 64 * 1024));
    terminated.extend_from_slice(b"\r\n\r\n");
    let reply = raw_exchange(addr, &terminated);
    assert!(reply.is_empty(), "oversized-but-terminated head must be dropped");

    // A query string on /metrics is ignored, not 404ed. Regression —
    // the old request-line parser kept `?foo=1` glued to the path.
    let reply = http_get(addr, "/metrics?foo=1");
    assert!(reply.starts_with("HTTP/1.1 200"), "GET /metrics?foo=1: {reply}");

    // Unknown path: a well-formed GET earns an explicit 404.
    let reply = http_get(addr, "/health");
    assert!(reply.starts_with("HTTP/1.1 404"), "unknown path: {reply}");

    // None of the above touched the pool: the engine still computes the
    // study, byte-identical to the serial path.
    let (db, report) = engine.run_study_with_report(&ets, &cfg).expect("study after abuse");
    assert_eq!(
        format!("{}{}{}", db.r1_csv(), db.r2_csv(), db.r3_csv()),
        format!("{}{}{}", serial.r1_csv(), serial.r2_csv(), serial.r3_csv()),
        "hostile connections disturbed the study results"
    );
    assert!(report.executed_total() > 0, "cold study must execute tasks");

    // And the metrics plane survived too, now counting its rejections.
    // The accounting invariant holds: every request that reached the
    // listener is either rejected, unrouted, unauthorized or routed.
    let scrape = http_get(addr, "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    let sample = |name: &str| -> u64 {
        scrape
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("sample {name} missing:\n{scrape}"))
    };
    let requests = sample("cleanml_http_requests_total ");
    let rejected = sample("cleanml_http_rejected_total ");
    let not_found = sample("cleanml_http_not_found_total ");
    let unauthorized = sample("cleanml_http_unauthorized_total ");
    let routed: u64 = scrape
        .lines()
        .filter(|l| l.starts_with("cleanml_http_route_requests_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    // The final scrape itself is in flight while rendering: it has been
    // counted as a request and routed before the body renders.
    assert!(rejected >= 4, "garbage + PUT + malformed + 2 oversized: {scrape}");
    assert!(not_found >= 2, "POST /metrics and GET /health: {scrape}");
    assert_eq!(
        requests,
        rejected + not_found + unauthorized + routed,
        "accounting invariant broken:\n{scrape}"
    );
}

#[test]
fn token_guards_every_client_path() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        listen: Some("127.0.0.1:0".into()),
        http_token: Some("guard-s3cret".into()),
        ..Default::default()
    });
    let addr = engine.remote_addr().expect("hub bound");
    // Only the gateway creates submissions, and nothing in this binary
    // submits through it: the counter must not move.
    let submissions = || -> u64 {
        http_get(addr, "/metrics")
            .lines()
            .filter(|l| l.starts_with("cleanml_submissions_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    };
    let before = submissions();

    // The exact bytes a protocol-2 `cleanml-query` sent: a well-formed,
    // checksummed CMAF frame holding `Submit { Request::Study(spec) }`.
    // The tag is retired, so the frame no longer decodes: the connection
    // closes without a reply and no study starts.
    let spec = StudySpec { error_types: vec![ErrorType::Inconsistencies], cfg: tiny_cfg() };
    let mut request = Vec::new();
    push_tag(&mut request, b'W');
    push_bytes(&mut request, &spec.encode());
    let mut submit = Vec::new();
    push_tag(&mut submit, b'S');
    push_bytes(&mut submit, &request);
    let reply = raw_exchange(addr, &seal_frame(&submit));
    assert!(reply.is_empty(), "a retired Submit frame must close unanswered: {reply:?}");

    // A cell submission without the token is refused before the registry
    // or the pool sees it.
    let body = "errors=inconsistencies&profile=quick&splits=2\
                &cell=University/OpenRefine/Merge/Logistic+Regression";
    let post = format!(
        "POST /studies HTTP/1.1\r\nHost: cleanml\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let reply = String::from_utf8_lossy(&raw_exchange(addr, post.as_bytes())).into_owned();
    assert!(reply.starts_with("HTTP/1.1 401"), "token-less cell submission: {reply}");

    assert_eq!(submissions(), before, "a refused client created a submission");
}
