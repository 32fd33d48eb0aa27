//! A bounded HTTP/1.1 results gateway mounted on the hub listener.
//!
//! The hub classifies connections by their first bytes: CMAF frames go
//! to the worker plane, and an HTTP `GET `/`POST` preamble lands here —
//! the only client protocol. What started as a single-endpoint `/metrics`
//! responder is now the daemon's typed query surface — a
//! PostgREST-flavoured, strictly bounded subset:
//!
//! * `GET  /metrics` — Prometheus scrape (open, no auth);
//! * `GET  /studies[.json]` — list gateway submissions and their status;
//! * `POST /studies` — submit a study spec (form-encoded body:
//!   `errors=outliers,mislabels&profile=quick&splits=6&seed=1`, plus an
//!   optional `cell=DATASET/DETECTION/REPAIR/MODEL` for one cell of a
//!   single error type's grid), returns `{"id":N}` to poll;
//! * `GET  /studies/:id[.json]` — one submission's status/progress, and
//!   its account once it is done (`"report":{"memory_hits":…,…}`);
//! * `GET  /studies/:id/r1|r2|r3[.csv|.json]` — page result rows with
//!   `?model=…&dataset=…&error=…&order=…&limit=…&offset=…`.
//!
//! Everything follows the CMAF codec's fail-closed discipline: the
//! request head is capped at `MAX_REQUEST_BYTES` on **every** read,
//! bodies at `MAX_BODY_BYTES`, the query string is parsed by a
//! hand-rolled, bounded, percent-decoding parser that rejects anything
//! it does not fully understand, and a malformed request closes the
//! connection without a response and without ever touching the pool.
//! Routes under `/studies` check the bearer token (when configured)
//! before the registry or the pool sees the request. This is still
//! deliberately not a web server: one request per connection,
//! `Connection: close`, no keep-alive, no TLS (front with a reverse
//! proxy for that).
//!
//! Filtering, ordering and paging run through the typed [`Select`]
//! struct over [`cleanml_core::CleanMlDb`]'s canonical per-column row
//! renderings, so CSV pages are byte-identical slices of
//! `r1_csv`/`r2_csv`/`r3_csv` and the whole query layer is unit-testable
//! without sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cleanml_cleaning::ErrorType;
use cleanml_core::database::{csv_line, relation_columns};
use cleanml_core::{ExperimentConfig, Relation};

use crate::pool::PoolInner;
use crate::study::{CellQuery, EngineGateway};
use crate::telemetry;

/// Hard cap on one request head (request line + headers), enforced on
/// every read — a head that terminates *beyond* the cap is as hostile
/// as one that never terminates.
pub(crate) const MAX_REQUEST_BYTES: usize = 4096;

/// Hard cap on a `POST` body (the form-encoded study spec).
pub(crate) const MAX_BODY_BYTES: usize = 16 * 1024;

/// Budget for the whole request to arrive.
const HTTP_TIMEOUT: Duration = Duration::from_secs(5);

/// Bounds on the query-string parser: a typed query over three small
/// relations never needs more than this.
pub const MAX_QUERY_PAIRS: usize = 32;
pub const MAX_QUERY_KEY_BYTES: usize = 64;
pub const MAX_QUERY_VALUE_BYTES: usize = 512;

/// Paging bounds: the default page and the largest page a client may
/// request (R1 of a full study is 1204 rows, so 10 000 covers any
/// whole-relation pull with room to spare).
pub const DEFAULT_PAGE_LIMIT: usize = 1000;
pub const MAX_PAGE_LIMIT: usize = 10_000;

/// Study-spec bound shared with the CLI's `--splits`: splits below 2
/// cannot form a paired test, and four digits of splits is a typo, not a
/// study.
pub const MAX_SPLITS: usize = 1000;

// ---- gateway types --------------------------------------------------

/// Observable state of one gateway submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyState {
    Running,
    Done,
    Failed(String),
}

/// One row of `GET /studies`, or the answer of `GET /studies/:id`.
#[derive(Debug, Clone)]
pub struct StudyStatus {
    pub id: u64,
    pub errors: Vec<String>,
    pub state: StudyState,
    pub done: u64,
    pub to_run: u64,
    /// A finished submission's account, as [`crate::RunReport::stats`]
    /// fields; `None` while it runs, when it failed, and in the list.
    pub report: Option<Vec<(&'static str, u64)>>,
}

/// Execution profile of a submitted spec, mirroring the CLI's
/// `--quick`/`--standard`/`--paper`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Quick,
    Standard,
    Paper,
}

/// A parsed `POST /studies` body.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    pub error_types: Vec<ErrorType>,
    pub profile: Profile,
    pub splits: Option<usize>,
    pub seed: Option<u64>,
    /// `cell=`: one cell of the single error type's grid instead of the
    /// whole study, through [`crate::Engine::submit_query`].
    pub cell: Option<CellQuery>,
}

impl SubmitSpec {
    /// The [`ExperimentConfig`] this spec resolves to.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = match self.profile {
            Profile::Quick => ExperimentConfig::quick(),
            Profile::Standard => ExperimentConfig::standard(),
            Profile::Paper => ExperimentConfig::paper(),
        };
        if let Some(s) = self.splits {
            cfg.n_splits = s;
        }
        if let Some(s) = self.seed {
            cfg.base_seed = s;
        }
        cfg
    }
}

/// Why a gateway operation could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// No submission with that id.
    NotFound,
    /// The submission exists but has not finished.
    NotReady,
    /// Too many submissions in flight; retry later.
    Busy,
    /// The spec names something the study does not have (an unknown
    /// cell dataset, method or model).
    Invalid(String),
    /// The study itself failed.
    Failed(String),
    /// The engine behind the gateway is gone (shutdown race).
    Unavailable,
}

// ---- request model --------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HttpMethod {
    Get,
    Post,
}

/// A fully read, bounded request.
struct HttpRequest {
    method: HttpMethod,
    path: String,
    query: String,
    bearer: Option<String>,
    body: Vec<u8>,
}

/// What the gateway can do with a request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Metrics,
    Studies,
    Submit,
    Status(u64),
    Rows(u64, Relation, Format),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Csv,
    Json,
}

impl Route {
    /// Index into the telemetry registry's per-route arrays
    /// ([`telemetry::HTTP_ROUTES`]).
    fn telemetry_index(self) -> usize {
        match self {
            Route::Metrics => 0,
            Route::Studies => 1,
            Route::Submit => 2,
            Route::Status(_) => 3,
            Route::Rows(..) => 4,
        }
    }

    /// Whether the route sits behind the bearer token.
    fn needs_auth(self) -> bool {
        !matches!(self, Route::Metrics)
    }
}

// ---- entry point ----------------------------------------------------

/// Serves one already-classified HTTP connection end to end.
pub(crate) fn serve_http<A>(inner: &PoolInner<A>, gateway: &EngineGateway, mut stream: TcpStream) {
    let t = telemetry::global();
    t.http_requests.inc();
    let Some(req) = read_request(&mut stream) else {
        t.http_rejected.inc();
        return; // fail closed: no response for malformed requests
    };
    let Some(route) = parse_route(req.method, &req.path) else {
        t.http_not_found.inc();
        respond(&mut stream, "404 Not Found", "text/plain; charset=utf-8", "not found\n");
        return;
    };
    // Auth before anything route-specific runs — a bad token must be
    // refused before the registry or the pool sees the request.
    if route.needs_auth() {
        if let Some(expected) = gateway.token() {
            if !token_matches(&expected, req.bearer.as_deref()) {
                t.http_unauthorized.inc();
                respond_with_headers(
                    &mut stream,
                    "401 Unauthorized",
                    &[("WWW-Authenticate", "Bearer")],
                    "application/json",
                    "{\"error\":\"missing or invalid bearer token\"}\n",
                );
                return;
            }
        }
    }
    let ri = route.telemetry_index();
    t.http_route_requests[ri].inc();
    let started = Instant::now();
    match route {
        Route::Metrics => serve_metrics(inner, &mut stream),
        Route::Studies => serve_studies(gateway, &req, &mut stream),
        Route::Submit => serve_submit(gateway, &req, &mut stream),
        Route::Status(id) => serve_status(gateway, id, &req, &mut stream),
        Route::Rows(id, relation, format) => {
            serve_rows(gateway, id, relation, &req, format, &mut stream)
        }
    }
    t.http_route_seconds[ri].observe(started.elapsed());
    // Close only once the request is counted: the close is what tells the
    // client its request completed, so a scrape it sends next includes it.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn serve_metrics<A>(inner: &PoolInner<A>, stream: &mut TcpStream) {
    let t = telemetry::global();
    // Store occupancy is an instantaneous property of the disk index,
    // not an event stream — refresh the gauges at scrape time.
    if let Some(store) = &inner.persist {
        t.store_bytes.set(store.total_bytes() as i64);
        t.store_entries.set(store.len() as i64);
    }
    let body = t.render();
    respond(stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body);
}

fn serve_studies(gateway: &EngineGateway, req: &HttpRequest, stream: &mut TcpStream) {
    match parse_query(&req.query) {
        Some(pairs) if pairs.is_empty() => {}
        _ => {
            json_error(stream, "400 Bad Request", "GET /studies takes no query parameters");
            return;
        }
    }
    let mut body = String::from("{\"studies\":[");
    for (i, s) in gateway.list().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&status_json(s));
    }
    body.push_str("]}\n");
    respond(stream, "200 OK", "application/json", &body);
}

fn serve_submit(gateway: &EngineGateway, req: &HttpRequest, stream: &mut TcpStream) {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        json_error(stream, "400 Bad Request", "body is not UTF-8");
        return;
    };
    let Some(pairs) = parse_query(body.trim_end_matches(['\r', '\n'])) else {
        json_error(stream, "400 Bad Request", "malformed form body");
        return;
    };
    let spec = match parse_submit(&pairs) {
        Ok(spec) => spec,
        Err(e) => {
            json_error(stream, "400 Bad Request", &e);
            return;
        }
    };
    match gateway.submit(spec) {
        Ok(id) => {
            let body = format!("{{\"id\":{id},\"state\":\"running\"}}\n");
            respond(stream, "201 Created", "application/json", &body);
        }
        Err(GatewayError::Busy) => {
            json_error(stream, "429 Too Many Requests", "too many submissions in flight")
        }
        Err(GatewayError::Invalid(e)) => json_error(stream, "400 Bad Request", &e),
        Err(GatewayError::Unavailable) => {
            json_error(stream, "503 Service Unavailable", "engine shutting down")
        }
        Err(e) => json_error(stream, "500 Internal Server Error", &format!("{e:?}")),
    }
}

fn serve_status(gateway: &EngineGateway, id: u64, req: &HttpRequest, stream: &mut TcpStream) {
    if parse_query(&req.query).is_none() {
        json_error(stream, "400 Bad Request", "malformed query string");
        return;
    }
    match gateway.status(id) {
        Some(s) => {
            let body = format!("{}\n", status_json(&s));
            respond(stream, "200 OK", "application/json", &body);
        }
        None => json_error(stream, "404 Not Found", &format!("no study {id}")),
    }
}

fn serve_rows(
    gateway: &EngineGateway,
    id: u64,
    relation: Relation,
    req: &HttpRequest,
    format: Format,
    stream: &mut TcpStream,
) {
    let Some(pairs) = parse_query(&req.query) else {
        json_error(stream, "400 Bad Request", "malformed query string");
        return;
    };
    let select = match Select::from_pairs(relation, &pairs) {
        Ok(s) => s,
        Err(e) => {
            json_error(stream, "400 Bad Request", &e);
            return;
        }
    };
    let db = match gateway.results(id) {
        Ok(db) => db,
        Err(GatewayError::NotFound) => {
            json_error(stream, "404 Not Found", &format!("no study {id}"));
            return;
        }
        Err(GatewayError::NotReady) => {
            json_error(stream, "409 Conflict", &format!("study {id} still running"));
            return;
        }
        Err(GatewayError::Failed(e)) => {
            json_error(stream, "500 Internal Server Error", &format!("study {id} failed: {e}"));
            return;
        }
        Err(e) => {
            json_error(stream, "503 Service Unavailable", &format!("{e:?}"));
            return;
        }
    };
    let rows = db.relation_values(relation);
    let (page, total) = select.apply(&rows);
    match format {
        Format::Csv => {
            let (columns, _) = relation_columns(relation);
            let mut body = columns.join(",");
            body.push('\n');
            for row in &page {
                body.push_str(&csv_line(row));
            }
            respond(stream, "200 OK", "text/csv; charset=utf-8", &body);
        }
        Format::Json => {
            let table = match relation {
                Relation::R1 => "r1",
                Relation::R2 => "r2",
                Relation::R3 => "r3",
            };
            let mut body = format!(
                "{{\"study\":{id},\"table\":\"{table}\",\"total\":{total},\"offset\":{},\"limit\":{},\"rows\":[",
                select.offset, select.limit
            );
            for (i, row) in page.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&row_json(relation, row));
            }
            body.push_str("]}\n");
            respond(stream, "200 OK", "application/json", &body);
        }
    }
}

// ---- reading and parsing the request --------------------------------

/// Result of scanning a partially read buffer for the head terminator,
/// with the size cap applied *before* any parsing. Pure, so the cap is
/// testable without sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadScan {
    /// Head complete: byte length of the head, offset where the body starts.
    Complete { head: usize, body: usize },
    /// No terminator yet and still under the cap.
    Partial,
    /// Over [`MAX_REQUEST_BYTES`] — whether or not a terminator arrived.
    Oversized,
}

pub(crate) fn scan_head(buf: &[u8]) -> HeadScan {
    match find_head_end(buf) {
        // The cap applies to the head itself even when the terminator
        // has arrived: a 1 MiB request line followed by `\r\n\r\n` is
        // not a client, it is a memory probe.
        Some(end) if end > MAX_REQUEST_BYTES => HeadScan::Oversized,
        Some(end) => {
            let tlen = if buf[end..].starts_with(b"\r\n\r\n") { 4 } else { 2 };
            HeadScan::Complete { head: end, body: end + tlen }
        }
        None if buf.len() > MAX_REQUEST_BYTES => HeadScan::Oversized,
        None => HeadScan::Partial,
    }
}

/// Index of the end of the request head: the first `\r\n\r\n` (or bare
/// `\n\n` from hand-typed clients).
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n"))
}

/// Reads one bounded request (head and, for `POST`, body) under a
/// timeout. `None` on any violation.
fn read_request(stream: &mut TcpStream) -> Option<HttpRequest> {
    let _ = stream.set_read_timeout(Some(HTTP_TIMEOUT));
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let (head_end, body_start) = loop {
        match scan_head(&buf) {
            HeadScan::Complete { head, body } => break (head, body),
            HeadScan::Oversized => return None,
            HeadScan::Partial => {}
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None, // closed or timed out mid-head
            Ok(n) => n,
        };
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    if !head.is_ascii() {
        return None;
    }
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let (method, path, query) = parse_request_line(lines.next()?)?;
    let mut bearer = None;
    let mut content_length: usize = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("authorization") {
            let mut parts = value.splitn(2, ' ');
            if let (Some(scheme), Some(tok)) = (parts.next(), parts.next()) {
                if scheme.eq_ignore_ascii_case("bearer") {
                    bearer = Some(tok.trim().to_string());
                }
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        }
    }
    let mut body = buf[body_start.min(buf.len())..].to_vec();
    match method {
        HttpMethod::Get => body.clear(), // GETs carry no body here
        HttpMethod::Post => {
            if content_length > MAX_BODY_BYTES {
                return None;
            }
            while body.len() < content_length {
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return None,
                    Ok(n) => n,
                };
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(content_length);
        }
    }
    Some(HttpRequest { method, path, query, bearer, body })
}

/// Parses `GET|POST <path>[?<query>] HTTP/1.x` out of the head's first
/// line, splitting the query string off the path. `None` on anything
/// else — unknown method, wrong token count, non-HTTP version.
pub(crate) fn parse_request_line(line: &str) -> Option<(HttpMethod, String, String)> {
    if !line.is_ascii() {
        return None;
    }
    let mut tokens = line.split(' ').filter(|s| !s.is_empty());
    let (method, target, version) = (tokens.next()?, tokens.next()?, tokens.next()?);
    if tokens.next().is_some() || !version.starts_with("HTTP/1.") {
        return None;
    }
    let method = match method {
        "GET" => HttpMethod::Get,
        "POST" => HttpMethod::Post,
        _ => return None,
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return None;
    }
    Some((method, path.to_string(), query.to_string()))
}

/// Maps `(method, path)` onto the route table. `None` is a 404.
fn parse_route(method: HttpMethod, path: &str) -> Option<Route> {
    let (path, format) = split_format(path);
    let mut segs = path.strip_prefix('/')?.split('/');
    let route = match (method, segs.next()?, segs.next(), segs.next()) {
        (HttpMethod::Get, "metrics", None, None) if format.is_none() => Route::Metrics,
        // `/studies` and `/studies/:id` answer only in JSON
        (HttpMethod::Get, "studies", None, None) if format != Some(Format::Csv) => Route::Studies,
        (HttpMethod::Post, "studies", None, None) if format.is_none() => Route::Submit,
        (HttpMethod::Get, "studies", Some(id), None) if format != Some(Format::Csv) => {
            Route::Status(parse_id(id)?)
        }
        (HttpMethod::Get, "studies", Some(id), Some(table)) => {
            if segs.next().is_some() {
                return None;
            }
            let relation = match table {
                "r1" => Relation::R1,
                "r2" => Relation::R2,
                "r3" => Relation::R3,
                _ => return None,
            };
            // Bare rows default to CSV: the canonical CleanML form.
            Route::Rows(parse_id(id)?, relation, format.unwrap_or(Format::Csv))
        }
        _ => return None,
    };
    Some(route)
}

/// Splits a trailing `.csv`/`.json` off the last path segment.
fn split_format(path: &str) -> (&str, Option<Format>) {
    if let Some(p) = path.strip_suffix(".csv") {
        (p, Some(Format::Csv))
    } else if let Some(p) = path.strip_suffix(".json") {
        (p, Some(Format::Json))
    } else {
        (path, None)
    }
}

/// Study ids are plain decimal, bounded to keep parsing trivial.
fn parse_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 12 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Constant-time-ish bearer comparison: always scans the full supplied
/// token.
fn token_matches(expected: &str, got: Option<&str>) -> bool {
    let Some(got) = got else { return false };
    if got.len() != expected.len() {
        return false;
    }
    got.bytes().zip(expected.bytes()).fold(0u8, |acc, (a, b)| acc | (a ^ b)) == 0
}

// ---- query-string parser --------------------------------------------

/// Parses an `application/x-www-form-urlencoded` query string into
/// ordered key/value pairs, fail-closed: bounded pair/key/value sizes,
/// strict percent-decoding, empty segments and bare `&` rejected, raw
/// control or non-ASCII bytes rejected (they must be percent-encoded),
/// decoded bytes must form UTF-8. `None` means the request dies.
pub fn parse_query(raw: &str) -> Option<Vec<(String, String)>> {
    if raw.is_empty() {
        return Some(Vec::new());
    }
    if raw.len() > MAX_REQUEST_BYTES {
        return None;
    }
    let mut pairs = Vec::new();
    for segment in raw.split('&') {
        if segment.is_empty() {
            return None; // "a=1&&b=2", "&a=1", trailing "&"
        }
        let (k, v) = match segment.split_once('=') {
            Some((k, v)) => (k, v),
            None => (segment, ""),
        };
        let k = percent_decode(k)?;
        let v = percent_decode(v)?;
        if k.is_empty() || k.len() > MAX_QUERY_KEY_BYTES || v.len() > MAX_QUERY_VALUE_BYTES {
            return None;
        }
        pairs.push((k, v));
        if pairs.len() > MAX_QUERY_PAIRS {
            return None;
        }
    }
    Some(pairs)
}

/// Strict percent-decoding of one key or value: `%XX` escapes, `+` as
/// space; raw separators, spaces, control bytes and non-ASCII must have
/// been encoded, and the decoded bytes must be valid UTF-8.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_value(*bytes.get(i + 1)?)?;
                let lo = hex_value(*bytes.get(i + 2)?)?;
                out.push(hi << 4 | lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'&' | b'=' | b'#' | b' ' => return None,
            c if !(0x20..0x7f).contains(&c) => return None,
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Lossy name normalization shared by filters and the spec parser:
/// `logistic_regression`, `Logistic Regression` and `logisticregression`
/// all mean the same model.
pub fn normalize(s: &str) -> String {
    s.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
}

// ---- typed select ---------------------------------------------------

/// A typed, bounded query over one relation's canonical row renderings:
/// equality filters (normalized for string columns, numeric for value
/// columns), a single order key, and limit/offset paging. Built from
/// parsed query pairs by [`Select::from_pairs`]; unknown columns and
/// out-of-bound limits are errors, not clamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub relation: Relation,
    /// `(column index, wanted value)` — all must match.
    pub filters: Vec<(usize, String)>,
    /// `(column index, descending)`.
    pub order: Option<(usize, bool)>,
    pub limit: usize,
    pub offset: usize,
}

impl Select {
    pub fn from_pairs(relation: Relation, pairs: &[(String, String)]) -> Result<Select, String> {
        let (columns, _) = relation_columns(relation);
        let mut select = Select {
            relation,
            filters: Vec::new(),
            order: None,
            limit: DEFAULT_PAGE_LIMIT,
            offset: 0,
        };
        for (key, value) in pairs {
            match key.as_str() {
                "limit" => {
                    let n: usize =
                        value.parse().map_err(|_| format!("limit: not a number: {value:?}"))?;
                    if n > MAX_PAGE_LIMIT {
                        return Err(format!("limit: {n} exceeds the {MAX_PAGE_LIMIT} cap"));
                    }
                    select.limit = n;
                }
                "offset" => {
                    select.offset =
                        value.parse().map_err(|_| format!("offset: not a number: {value:?}"))?;
                }
                "order" => {
                    if select.order.is_some() {
                        return Err("order: given twice".to_string());
                    }
                    let (name, desc) = match value.strip_suffix(".desc") {
                        Some(name) => (name, true),
                        None => (value.strip_suffix(".asc").unwrap_or(value), false),
                    };
                    let idx = column_index(columns, name)
                        .ok_or_else(|| format!("order: unknown column {name:?}"))?;
                    select.order = Some((idx, desc));
                }
                name => {
                    // Every other key is an equality filter on a column;
                    // `error` is accepted as shorthand for `error_type`.
                    let column = if name == "error" { "error_type" } else { name };
                    let idx = column_index(columns, column)
                        .ok_or_else(|| format!("unknown filter column {name:?}"))?;
                    select.filters.push((idx, value.clone()));
                }
            }
        }
        Ok(select)
    }

    /// Filters, orders and pages `rows` (each a canonical per-column
    /// rendering). Returns the page and the filtered total.
    pub fn apply<'r>(&self, rows: &'r [Vec<String>]) -> (Vec<&'r Vec<String>>, usize) {
        let (_, numeric_from) = relation_columns(self.relation);
        let mut hits: Vec<&Vec<String>> = rows
            .iter()
            .filter(|row| {
                self.filters.iter().all(|(i, want)| {
                    if *i >= numeric_from {
                        numbers_equal(&row[*i], want)
                    } else {
                        normalize(&row[*i]) == normalize(want)
                    }
                })
            })
            .collect();
        if let Some((i, desc)) = self.order {
            // Stable sort in both directions keeps canonical order for
            // ties; `.desc` flips the comparator rather than the result.
            if i >= numeric_from {
                hits.sort_by(|a, b| {
                    let (x, y) = (parse_num(&a[i]), parse_num(&b[i]));
                    if desc {
                        y.total_cmp(&x)
                    } else {
                        x.total_cmp(&y)
                    }
                });
            } else {
                hits.sort_by(|a, b| if desc { b[i].cmp(&a[i]) } else { a[i].cmp(&b[i]) });
            }
        }
        let total = hits.len();
        let page = hits.into_iter().skip(self.offset).take(self.limit).collect();
        (page, total)
    }
}

fn column_index(columns: &[&str], name: &str) -> Option<usize> {
    columns.iter().position(|c| *c == name)
}

fn parse_num(s: &str) -> f64 {
    s.parse::<f64>().unwrap_or(f64::NAN)
}

fn numbers_equal(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x == y,
        _ => a == b,
    }
}

// ---- submit-spec parser ---------------------------------------------

/// Parses the form-encoded `POST /studies` body pairs into a spec:
/// `errors` (comma-separated error types, required), `profile`
/// (`quick`/`standard`/`paper`, default standard), `splits`, `seed`, and
/// `cell` (`DATASET/DETECTION/REPAIR/MODEL`, exactly one error type).
pub fn parse_submit(pairs: &[(String, String)]) -> Result<SubmitSpec, String> {
    let mut spec = SubmitSpec {
        error_types: Vec::new(),
        profile: Profile::Standard,
        splits: None,
        seed: None,
        cell: None,
    };
    let mut cell = None;
    for (key, value) in pairs {
        match key.as_str() {
            "errors" => {
                for part in value.split(',') {
                    let et = ErrorType::parse(part)
                        .ok_or_else(|| format!("errors: unknown error type {part:?}"))?;
                    if !spec.error_types.contains(&et) {
                        spec.error_types.push(et);
                    }
                }
            }
            "profile" => {
                spec.profile = match normalize(value).as_str() {
                    "quick" => Profile::Quick,
                    "standard" => Profile::Standard,
                    "paper" => Profile::Paper,
                    _ => return Err(format!("profile: unknown profile {value:?}")),
                };
            }
            "splits" => {
                let n: usize =
                    value.parse().map_err(|_| format!("splits: not a number: {value:?}"))?;
                if !(2..=MAX_SPLITS).contains(&n) {
                    return Err(format!("splits: {n} outside 2..={MAX_SPLITS}"));
                }
                spec.splits = Some(n);
            }
            "seed" => {
                spec.seed =
                    Some(value.parse().map_err(|_| format!("seed: not a number: {value:?}"))?);
            }
            "cell" => {
                let parts: Vec<String> = value.split('/').map(|p| p.trim().to_string()).collect();
                let Ok(names) = <[String; 4]>::try_from(parts) else {
                    return Err(format!(
                        "cell: expected DATASET/DETECTION/REPAIR/MODEL, got {value:?}"
                    ));
                };
                cell = Some(names);
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if spec.error_types.is_empty() {
        return Err("errors: at least one error type required".to_string());
    }
    if let Some([dataset, detection, repair, model]) = cell {
        let [error_type] = spec.error_types[..] else {
            return Err("cell: needs exactly one error type".to_string());
        };
        spec.cell = Some(CellQuery { error_type, dataset, detection, repair, model });
    }
    Ok(spec)
}

// ---- JSON rendering -------------------------------------------------

fn status_json(s: &StudyStatus) -> String {
    let mut out = format!("{{\"id\":{},\"errors\":[", s.id);
    for (i, e) in s.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(e));
    }
    let state = match &s.state {
        StudyState::Running => "running",
        StudyState::Done => "done",
        StudyState::Failed(_) => "failed",
    };
    out.push_str(&format!("],\"state\":\"{state}\",\"done\":{},\"to_run\":{}", s.done, s.to_run));
    if let StudyState::Failed(e) = &s.state {
        out.push_str(&format!(",\"error\":{}", json_string(e)));
    }
    if let Some(report) = &s.report {
        let fields: Vec<String> = report.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        out.push_str(&format!(",\"report\":{{{}}}", fields.join(",")));
    }
    out.push('}');
    out
}

/// One result row as a JSON object, reusing the canonical per-column
/// renderings: value columns emit as raw JSON numbers (so `1e-8` stays
/// `1e-8`, byte-for-byte the CSV form), everything else as strings.
fn row_json(relation: Relation, row: &[String]) -> String {
    let (columns, numeric_from) = relation_columns(relation);
    let mut out = String::with_capacity(row.iter().map(|v| v.len() + 16).sum());
    out.push('{');
    for (i, (col, value)) in columns.iter().zip(row).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(col));
        out.push(':');
        if i >= numeric_from && is_json_number(value) {
            out.push_str(value);
        } else {
            out.push_str(&json_string(value));
        }
    }
    out.push('}');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    crate::telemetry::json_escape(s, &mut out);
    out.push('"');
    out
}

/// Whether `s` is a valid JSON number literal (so non-finite renderings
/// like `inf`/`NaN` fall back to strings instead of corrupting output).
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if i < b.len() && b[i] == b'-' {
        i += 1;
    }
    // integer part: "0" or nonzero-led digits
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
        _ => return false,
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return false;
        }
    }
    i == b.len()
}

// ---- responses ------------------------------------------------------

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    respond_with_headers(stream, status, &[], content_type, body);
}

fn respond_with_headers(
    stream: &mut TcpStream,
    status: &str,
    extra: &[(&str, &str)],
    content_type: &str,
    body: &str,
) {
    let mut head = format!("HTTP/1.1 {status}\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    ));
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn json_error(stream: &mut TcpStream, status: &str, message: &str) {
    let body = format!("{{\"error\":{}}}\n", json_string(message));
    respond(stream, status, "application/json", &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_core::database::{r1_values, R1_COLUMNS};
    use cleanml_core::schema::{Detection, Evidence, Model, Repair, Row1, Scenario};
    use cleanml_stats::Flag;

    #[test]
    fn head_end_finds_crlf_and_bare_lf() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"), Some(23));
        assert_eq!(find_head_end(b"GET / HTTP/1.0\n\n"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
    }

    #[test]
    fn head_cap_applies_even_when_the_terminator_has_arrived() {
        // Regression: the old loop only checked MAX_REQUEST_BYTES when
        // the terminator had NOT been found, so an oversized head whose
        // \r\n\r\n finally arrived was happily parsed and served.
        let mut oversized = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        oversized.extend(std::iter::repeat_n(b'a', MAX_REQUEST_BYTES));
        oversized.extend_from_slice(b"\r\n\r\n");
        assert!(find_head_end(&oversized).is_some(), "terminator is present");
        assert_eq!(scan_head(&oversized), HeadScan::Oversized);

        // Still-growing oversized heads are rejected too.
        let unterminated = vec![b'a'; MAX_REQUEST_BYTES + 1];
        assert_eq!(scan_head(&unterminated), HeadScan::Oversized);

        // A small, complete head passes and locates the body.
        let ok = b"POST /studies HTTP/1.1\r\nContent-Length: 2\r\n\r\nab";
        assert_eq!(scan_head(ok), HeadScan::Complete { head: 41, body: 45 });
        assert_eq!(&ok[45..], b"ab");
        assert_eq!(scan_head(b"GET / HT"), HeadScan::Partial);
    }

    #[test]
    fn request_line_splits_path_from_query() {
        // Regression: "GET /metrics?foo=1" used to 404 because the query
        // string was treated as part of the path.
        assert_eq!(
            parse_request_line("GET /metrics?foo=1 HTTP/1.1"),
            Some((HttpMethod::Get, "/metrics".into(), "foo=1".into()))
        );
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1"),
            Some((HttpMethod::Get, "/metrics".into(), String::new()))
        );
        assert_eq!(
            parse_request_line("POST /studies HTTP/1.1"),
            Some((HttpMethod::Post, "/studies".into(), String::new()))
        );
        assert_eq!(
            parse_request_line("GET /studies/7/r1.json?limit=10&offset=10 HTTP/1.0"),
            Some((HttpMethod::Get, "/studies/7/r1.json".into(), "limit=10&offset=10".into()))
        );
        assert_eq!(parse_request_line("GET /metrics"), None);
        assert_eq!(parse_request_line("GET /metrics HTTP/2"), None);
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1 extra"), None);
        assert_eq!(parse_request_line("PUT /metrics HTTP/1.1"), None);
        assert_eq!(parse_request_line("GET metrics HTTP/1.1"), None);
        assert_eq!(parse_request_line(""), None);
    }

    #[test]
    fn routes_parse_and_reject() {
        assert_eq!(parse_route(HttpMethod::Get, "/metrics"), Some(Route::Metrics));
        assert_eq!(parse_route(HttpMethod::Get, "/studies"), Some(Route::Studies));
        assert_eq!(parse_route(HttpMethod::Get, "/studies.json"), Some(Route::Studies));
        assert_eq!(parse_route(HttpMethod::Post, "/studies"), Some(Route::Submit));
        assert_eq!(parse_route(HttpMethod::Get, "/studies/7"), Some(Route::Status(7)));
        assert_eq!(parse_route(HttpMethod::Get, "/studies/7.json"), Some(Route::Status(7)));
        assert_eq!(
            parse_route(HttpMethod::Get, "/studies/7/r1"),
            Some(Route::Rows(7, Relation::R1, Format::Csv))
        );
        assert_eq!(
            parse_route(HttpMethod::Get, "/studies/7/r2.csv"),
            Some(Route::Rows(7, Relation::R2, Format::Csv))
        );
        assert_eq!(
            parse_route(HttpMethod::Get, "/studies/7/r3.json"),
            Some(Route::Rows(7, Relation::R3, Format::Json))
        );
        assert_eq!(parse_route(HttpMethod::Post, "/metrics"), None);
        assert_eq!(parse_route(HttpMethod::Post, "/studies/7"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/studies/7/r4"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/studies/x/r1"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/studies/7/r1/extra"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/metrics.json"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/studies.csv"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/studies/7.csv"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/"), None);
        assert_eq!(parse_route(HttpMethod::Get, "/studies/99999999999999999/r1"), None);
    }

    #[test]
    fn query_parser_is_strict_and_bounded() {
        assert_eq!(parse_query(""), Some(vec![]));
        assert_eq!(
            parse_query("model=logistic_regression&limit=10"),
            Some(vec![
                ("model".into(), "logistic_regression".into()),
                ("limit".into(), "10".into())
            ])
        );
        // percent-decoding and '+' as space
        assert_eq!(
            parse_query("dataset=US%20Census&model=Logistic+Regression"),
            Some(vec![
                ("dataset".into(), "US Census".into()),
                ("model".into(), "Logistic Regression".into())
            ])
        );
        // bare key is an empty value
        assert_eq!(parse_query("flag"), Some(vec![("flag".into(), String::new())]));
        // malformed: empty segments, empty keys, broken escapes
        assert_eq!(parse_query("a=1&&b=2"), None);
        assert_eq!(parse_query("&a=1"), None);
        assert_eq!(parse_query("a=1&"), None);
        assert_eq!(parse_query("=x"), None);
        assert_eq!(parse_query("a=%zz"), None);
        assert_eq!(parse_query("a=%2"), None);
        // bounds
        let many = (0..MAX_QUERY_PAIRS + 1).map(|i| format!("k{i}=v")).collect::<Vec<_>>();
        assert_eq!(parse_query(&many.join("&")), None);
        assert_eq!(parse_query(&format!("{}=v", "k".repeat(MAX_QUERY_KEY_BYTES + 1))), None);
        assert_eq!(parse_query(&format!("k={}", "v".repeat(MAX_QUERY_VALUE_BYTES + 1))), None);
        // raw bytes that must be encoded
        assert_eq!(percent_decode("a b"), None);
        assert_eq!(percent_decode("a\tb"), None);
        assert_eq!(percent_decode("a#b"), None);
        assert_eq!(percent_decode("%e9"), None); // lone 0xE9 is not UTF-8
        assert_eq!(percent_decode("%C3%A9"), Some("é".into()));
    }

    fn sample_rows() -> Vec<Vec<String>> {
        fn row(dataset: &str, model: Model, p: f64) -> Row1 {
            Row1 {
                dataset: dataset.into(),
                error_type: ErrorType::Outliers,
                detection: Detection::Iqr,
                repair: Repair::ImputeMean,
                model,
                scenario: Scenario::BD,
                flag: Flag::Positive,
                evidence: Evidence {
                    p_two: p,
                    p_upper: p / 2.0,
                    p_lower: 1.0 - p / 2.0,
                    mean_before: 0.8,
                    mean_after: 0.85,
                    n_splits: 6,
                },
            }
        }
        [
            row("EEG", Model::LogisticRegression, 0.5),
            row("Sensor", Model::LogisticRegression, 1e-8),
            row("EEG", Model::Knn, 0.03),
            row("Sensor", Model::Knn, 1e-6),
        ]
        .iter()
        .map(|r| r1_values(r).to_vec())
        .collect()
    }

    #[test]
    fn select_filters_orders_and_pages() {
        let rows = sample_rows();
        let pairs = parse_query("model=logistic_regression").unwrap();
        let select = Select::from_pairs(Relation::R1, &pairs).unwrap();
        let (page, total) = select.apply(&rows);
        assert_eq!(total, 2);
        assert_eq!(page.len(), 2);
        assert!(page.iter().all(|r| r[4] == "Logistic Regression"));

        // `error` is shorthand for `error_type`, normalized matching
        let pairs = parse_query("error=outliers&dataset=eeg").unwrap();
        let (page, total) = Select::from_pairs(Relation::R1, &pairs).unwrap().apply(&rows);
        assert_eq!((page.len(), total), (2, 2));

        // numeric ordering on p_two, descending
        let pairs = parse_query("order=p_two.desc").unwrap();
        let (page, _) = Select::from_pairs(Relation::R1, &pairs).unwrap().apply(&rows);
        let ps: Vec<&str> = page.iter().map(|r| r[7].as_str()).collect();
        assert_eq!(ps, ["5e-1", "3e-2", "1e-6", "1e-8"]);

        // paging slices the filtered set
        let pairs = parse_query("order=p_two&limit=2&offset=1").unwrap();
        let (page, total) = Select::from_pairs(Relation::R1, &pairs).unwrap().apply(&rows);
        assert_eq!(total, 4);
        let ps: Vec<&str> = page.iter().map(|r| r[7].as_str()).collect();
        assert_eq!(ps, ["1e-6", "3e-2"]);

        // numeric filter matches by value, not by spelling
        let pairs = parse_query("p_two=0.5").unwrap();
        let (page, _) = Select::from_pairs(Relation::R1, &pairs).unwrap().apply(&rows);
        assert_eq!(page.len(), 1);

        // errors, not clamps
        assert!(Select::from_pairs(Relation::R1, &parse_query("limit=10001").unwrap()).is_err());
        assert!(Select::from_pairs(Relation::R1, &parse_query("bogus=1").unwrap()).is_err());
        assert!(Select::from_pairs(Relation::R2, &parse_query("model=knn").unwrap()).is_err());
        assert!(Select::from_pairs(Relation::R1, &parse_query("order=bogus").unwrap()).is_err());
        assert!(Select::from_pairs(Relation::R1, &parse_query("order=flag&order=flag").unwrap())
            .is_err());
    }

    #[test]
    fn submit_spec_parses_and_fails_closed() {
        let pairs = parse_query("errors=outliers,missing_values&profile=quick&splits=6").unwrap();
        let spec = parse_submit(&pairs).unwrap();
        assert_eq!(spec.error_types, vec![ErrorType::Outliers, ErrorType::MissingValues]);
        assert_eq!(spec.profile, Profile::Quick);
        let cfg = spec.config();
        assert_eq!(cfg.n_splits, 6);

        assert!(parse_submit(&parse_query("profile=quick").unwrap()).is_err()); // no errors
        assert!(parse_submit(&parse_query("errors=bogus").unwrap()).is_err());
        assert!(parse_submit(&parse_query("errors=outliers&splits=1").unwrap()).is_err());
        assert!(parse_submit(&parse_query("errors=outliers&profile=bogus").unwrap()).is_err());
        assert!(parse_submit(&parse_query("errors=outliers&extra=1").unwrap()).is_err());
        assert_eq!(spec.cell, None);

        // a cell names dataset/detection/repair/model of one error type
        let pairs = parse_query(
            "cell=University/OpenRefine/Merge/Logistic%20Regression&errors=inconsistencies",
        )
        .unwrap();
        let cell = parse_submit(&pairs).unwrap().cell.expect("cell parsed");
        assert_eq!(cell.error_type, ErrorType::Inconsistencies);
        assert_eq!(
            [cell.dataset, cell.detection, cell.repair, cell.model],
            ["University", "OpenRefine", "Merge", "Logistic Regression"]
        );
        let bad = |body: &str| parse_submit(&parse_query(body).unwrap()).unwrap_err();
        assert!(bad("errors=outliers,duplicates&cell=a/b/c/d").contains("exactly one error type"));
        assert!(bad("errors=outliers&cell=a/b/c").contains("DATASET/DETECTION/REPAIR/MODEL"));
        assert!(bad("errors=outliers&cell=a/b/c/d/e").contains("DATASET/DETECTION/REPAIR/MODEL"));
    }

    #[test]
    fn json_rows_reuse_canonical_renderings() {
        let rows = sample_rows();
        let json = row_json(Relation::R1, &rows[1]);
        assert!(json.contains("\"dataset\":\"Sensor\""));
        assert!(json.contains("\"p_two\":1e-8"), "{json}");
        assert!(json.contains("\"n_splits\":6"));
        // column count matches the schema
        assert!(json.matches(':').count() >= R1_COLUMNS.len());

        assert!(is_json_number("1e-8"));
        assert!(is_json_number("9.99999995e-1"));
        assert!(is_json_number("-0.5"));
        assert!(is_json_number("20"));
        assert!(!is_json_number("inf"));
        assert!(!is_json_number("NaN"));
        assert!(!is_json_number("01"));
        assert!(!is_json_number("1."));
        assert!(!is_json_number("1e"));
        assert!(!is_json_number(""));
    }

    #[test]
    fn bearer_tokens_compare_strictly() {
        assert!(token_matches("secret", Some("secret")));
        assert!(!token_matches("secret", Some("Secret")));
        assert!(!token_matches("secret", Some("secret2")));
        assert!(!token_matches("secret", Some("")));
        assert!(!token_matches("secret", None));
    }
}
