//! The three workloads and the phases every run goes through: set-up, the
//! cold study, a warm serving phase (HTTP gateway plus in-process cell
//! queries), fresh-engine resumes, and — when traced — a cold run at one
//! worker plus the serial replay that breaks the time down by layer.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cleanml_cleaning::{CleaningMethod, ErrorType};
use cleanml_core::database::{csv_line, r1_values, relation_columns};
use cleanml_core::{dataset_plan, CleanMlDb, ExperimentConfig, Relation};
use cleanml_engine::{
    build_study_graph, parse_query, telemetry, CellQuery, Engine, EngineConfig, RunReport, Select,
    TaskKind,
};
use cleanml_ml::cv::{cv_fits_total, fold_reuse_total, SearchBudget};
use cleanml_ml::PAPER_MODELS;

use crate::client::{self, Exchange};
use crate::metrics::{all_methods, family_key, method_key, ROUTES};
use crate::procfs;
use crate::replay::{self, Layers};
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuickCold,
    PaperCv,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::QuickCold, Workload::PaperCv, Workload::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickCold => "quick_cold",
            Workload::PaperCv => "paper_cv",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::QuickCold => "the headline cold quick study (5 error types, 2 splits) on a fresh store, then fresh-engine resumes: kernels, cleaners and store writes and reads",
            Workload::PaperCv => "paper search budget (8 candidates x 5 folds) on Inconsistencies, pinned data: the CV loop does nearly all the work, the only profile where fold reuse can fire",
            Workload::ServeWarm => "resident engine serving a finished study: clients replay the CI smoke and README gateway sessions, then in-process cell queries; listener, render and memo paths do all the work",
        }
    }

    pub fn error_types(self) -> Vec<ErrorType> {
        match self {
            Workload::QuickCold => ErrorType::all().to_vec(),
            Workload::PaperCv => vec![ErrorType::Inconsistencies],
            Workload::ServeWarm => vec![ErrorType::Inconsistencies, ErrorType::Duplicates],
        }
    }

    /// The study configuration. The benchmark seed is the base seed,
    /// except on `paper_cv`: there the seeded hyper-parameter draws alone
    /// move the cold study's cost by about ±17% between seeds (4 datasets
    /// are too few to average them out), so its data stay at the pinned
    /// seed and the benchmark seed drives only the request mix and cell
    /// picks. Every `paper_cv` run thereby also checks the pinned digests.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let mut cfg =
            ExperimentConfig { n_splits: 2, base_seed: seed, ..ExperimentConfig::quick() };
        if self == Workload::PaperCv {
            cfg.search = SearchBudget::paper();
            cfg.base_seed = PINNED_SEED;
        }
        cfg
    }

    fn profile(self) -> &'static str {
        match self {
            Workload::PaperCv => "paper",
            _ => "quick",
        }
    }
}

/// How much work one run does. [`Scale::full`] is what the benchmark
/// measures; [`Scale::tiny`] is the smoke-test profile.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Replaces the workload's error types (smoke tests).
    pub error_types: Option<Vec<ErrorType>>,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Fresh-engine resumes after the serving phase.
    pub resumes: usize,
    /// Closed-loop HTTP clients in the serving phase.
    pub clients: usize,
    /// How long the HTTP clients run.
    pub serve_for: Duration,
    /// Warm in-process cell queries after the HTTP clients stop.
    pub cell_queries: usize,
}

impl Scale {
    pub fn full(workload: Workload, seconds: u64) -> Scale {
        Scale {
            error_types: None,
            // serve_warm's set-up is a cold study; the others' is an engine
            // start, cheap enough to repeat for a steady median.
            setup_repeats: if workload == Workload::ServeWarm { 1 } else { 31 },
            resumes: 11,
            // Every connection makes the gateway's service loop spawn a
            // handler thread, which shifts that loop's phase against the
            // accept loop's; eight clients move it fast enough for one run
            // to average over the phases (see the client loop in `run`).
            clients: 8,
            serve_for: Duration::from_secs(seconds),
            cell_queries: 1000,
        }
    }

    /// One error type, a second of serving: every phase runs, in seconds.
    pub fn tiny(workload: Workload) -> Scale {
        Scale {
            error_types: Some(vec![ErrorType::Inconsistencies]),
            setup_repeats: 2,
            resumes: 2,
            cell_queries: 20,
            ..Scale::full(workload, 1)
        }
    }
}

/// The outcome of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts, reconciliation lines and failures, for stderr and the
    /// run record.
    pub notes: Vec<String>,
}

/// Counts attempted operations and failed or incorrect ones.
#[derive(Default)]
struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Checks {
    fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut f = self.failures.lock().expect("failure log poisoned by a panicking client");
            if f.len() < 20 {
                f.push(what());
            }
        }
        ok
    }
}

/// SplitMix64: the benchmark's own seeded generator for the request mix.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// FNV-1a 64 of a rendered relation.
pub fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

pub fn digests(db: &CleanMlDb) -> [String; 3] {
    [digest(&db.r1_csv()), digest(&db.r2_csv()), digest(&db.r3_csv())]
}

/// R1–R3 digests of the default seed (1), checked against the serial
/// `cleanml_core::run_study` oracle by the `pinned_digests_match_the_serial_oracle`
/// test. A deliberate change in results must update them.
pub const PINNED_SEED: u64 = 1;
pub const PINNED: [(Workload, [&str; 3]); 2] = [
    (Workload::QuickCold, ["6b079699c3af9a7e", "ada99875c64380cb", "65135da75fb6f991"]),
    (Workload::PaperCv, ["aa47adfd04a03819", "ba5efba5846ca235", "1da77f3251b3efe1"]),
];

/// Idle gap before each paced operation (registration polls, resumes).
const PACE: Duration = Duration::from_millis(1);

/// One step of a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `GET /studies`.
    List,
    /// `GET /metrics`.
    Metrics,
    /// `POST /studies`, then `GET /studies/:id` until the study is done.
    Submit,
    /// The first half of a relation as CSV: `?limit=<half>`.
    CsvHead,
    /// The rest of it as CSV: `?limit=10000&offset=<half>`.
    CsvTail,
    /// The whole relation as JSON: `?limit=10000`.
    JsonAll,
    /// A filtered, ordered JSON slice: `?model=<m>&order=p_two&limit=10&offset=10`.
    JsonSlice,
}

impl Step {
    fn route(self) -> &'static str {
        match self {
            Step::List => "list",
            Step::Metrics => "metrics",
            Step::Submit => "submit",
            Step::CsvHead | Step::CsvTail => "rows_csv",
            Step::JsonAll | Step::JsonSlice => "rows_json",
        }
    }
}

/// The client session every serving client replays in a loop: the gateway
/// traffic the repository itself records, in its order. No production
/// traffic log exists, so the route mix is not weighted any other way.
/// - CI's serving smoke (`.github/workflows/ci.yml`) lists the studies
///   twice (its two auth probes; this gateway runs without a token),
///   scrapes `/metrics`, submits a study and polls it until done, pages
///   R1 out as two CSV chunks and pulls it whole as JSON.
/// - CI's telemetry smoke scrapes `/metrics` twice more.
/// - The README's HTTP API example submits, polls and fetches a filtered,
///   ordered JSON slice.
///
/// The smokes page only R1; each session here pages the next relation
/// (R1, R2, R3, R1, ...) so that every relation's pages are served.
const SESSION: [Step; 11] = [
    Step::List,
    Step::List,
    Step::Metrics,
    Step::Submit,
    Step::CsvHead,
    Step::CsvTail,
    Step::JsonAll,
    Step::Metrics,
    Step::Metrics,
    Step::Submit,
    Step::JsonSlice,
];

/// Where a client is in its replay of [`SESSION`].
struct Cursor {
    step: usize,
    relation: usize,
}

impl Cursor {
    /// A seeded start, so that the clients do not move in lockstep.
    fn new(rng: &mut Rng) -> Cursor {
        Cursor { step: rng.below(SESSION.len()), relation: rng.below(3) }
    }

    /// The next step and the relation a rows step pages.
    fn advance(&mut self) -> (Step, Relation) {
        let out = (SESSION[self.step], [Relation::R1, Relation::R2, Relation::R3][self.relation]);
        self.step += 1;
        if self.step == SESSION.len() {
            self.step = 0;
            self.relation = (self.relation + 1) % 3;
        }
        out
    }
}

fn engine(workers: usize, dir: &Path, listen: bool) -> Engine {
    Engine::new(EngineConfig {
        workers,
        cache_dir: Some(dir.to_path_buf()),
        listen: listen.then(|| "127.0.0.1:0".to_string()),
        ..EngineConfig::default()
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The gateway form body that submits the workload's study.
fn submit_body(workload: Workload, error_types: &[ErrorType], seed: u64) -> String {
    let errors: Vec<String> =
        error_types.iter().map(|e| e.name().to_lowercase().replace(' ', "_")).collect();
    format!("errors={}&profile={}&splits=2&seed={seed}", errors.join(","), workload.profile())
}

/// The serving engine, the gateway id of its newest finished study, and
/// the answers it must give; shared by the client threads.
struct Served<'a> {
    addr: SocketAddr,
    engine: &'a Engine,
    current: AtomicU64,
    submitting: AtomicBool,
    cfg: ExperimentConfig,
    /// Canonical rows of R1, R2 and R3.
    values: [Vec<Vec<String>>; 3],
    submit_body: String,
    /// R1 values (flag excluded — BY correction depends on the whole
    /// relation) keyed by the cell's descriptive columns.
    r1_index: HashMap<String, Vec<String>>,
    cells: Vec<CellQuery>,
    checks: &'a Checks,
    tracer: &'a Tracer,
}

/// What a rows page held, kept so the page can be checked after the
/// serving phase.
enum Got {
    /// A CSV page's digest.
    Csv(String),
    /// A JSON page's `total` and row count.
    Json(Option<u64>, usize),
}

/// A rows page a client received.
struct Page {
    /// Its exchange's index in the client's `Samples::http`.
    at: usize,
    rel: Relation,
    qs: String,
    target: String,
    status: u16,
    got: Got,
    track: usize,
}

#[derive(Default)]
struct Samples {
    /// `(route index, exchange, in-process render time of a rows page)`;
    /// exchanges are kept without their bodies.
    http: Vec<(usize, Exchange, Option<Duration>)>,
    /// Rows pages not yet checked.
    pages: Vec<Page>,
    cells: Vec<Duration>,
    cell_submits: Vec<Duration>,
    polls: u64,
}

impl Samples {
    /// Appends another client's samples; both have their pages checked.
    fn merge(&mut self, other: Samples) {
        debug_assert!(self.pages.is_empty() && other.pages.is_empty());
        self.http.extend(other.http);
        self.cells.extend(other.cells);
        self.cell_submits.extend(other.cell_submits);
        self.polls += other.polls;
    }
}

fn rel_index(rel: Relation) -> usize {
    match rel {
        Relation::R1 => 0,
        Relation::R2 => 1,
        Relation::R3 => 2,
    }
}

fn r1_key(values: &[String]) -> String {
    values[..6].join("\u{1f}")
}

/// Every `(dataset, method, model)` cell of the study, as queries.
fn all_cells(error_types: &[ErrorType], seed: u64) -> Vec<CellQuery> {
    let mut out = Vec::new();
    for &et in error_types {
        for plan in dataset_plan(et, seed) {
            for m in CleaningMethod::catalogue(et) {
                for k in PAPER_MODELS {
                    out.push(CellQuery {
                        error_type: et,
                        dataset: plan.name.clone(),
                        detection: m.detection.name().to_string(),
                        repair: m.repair.name().to_string(),
                        model: k.name().to_string(),
                    });
                }
            }
        }
    }
    out
}

/// Polls `GET /studies/:id` until the study is done; returns the polls made.
fn poll_done(
    addr: SocketAddr,
    id: u64,
    pause: Duration,
    samples: Option<&mut Samples>,
) -> (bool, u64) {
    let mut polls = 0;
    let mut kept = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(150);
    let done = loop {
        polls += 1;
        match client::get(addr, &format!("/studies/{id}")) {
            Ok(x) if x.status == 200 => {
                let done = x.body.contains("\"state\":\"done\"");
                let failed = x.body.contains("\"state\":\"failed\"");
                kept.push(x);
                if done || failed {
                    break done;
                }
            }
            _ => break false,
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(pause);
    };
    if let Some(s) = samples {
        let status = ROUTES.iter().position(|r| *r == "status").expect("status route");
        s.http.extend(kept.into_iter().map(|x| (status, x, None)));
    }
    (done, polls)
}

/// Submits the study through the gateway and polls until it is done;
/// returns its id and the polls made.
fn register(addr: SocketAddr, body: &str, pause: Duration) -> Result<(u64, u64), String> {
    let x = client::post_form(addr, "/studies", body).map_err(|e| e.to_string())?;
    let id = client::json_u64(&x.body, "id")
        .filter(|_| x.status == 201)
        .ok_or_else(|| format!("gateway refused the study: {} {}", x.status, x.body))?;
    match poll_done(addr, id, pause, None) {
        (true, polls) => Ok((id, polls)),
        _ => Err(format!("gateway study {id} did not finish")),
    }
}

impl Served<'_> {
    fn id(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// The client's next session step, checked and recorded into `samples`.
    fn request(&self, rng: &mut Rng, cursor: &mut Cursor, track: usize, samples: &mut Samples) {
        let (step, rel) = cursor.advance();
        let mut route = ROUTES.iter().position(|r| *r == step.route()).expect("step route");
        // One resubmission at a time: a client whose turn to submit comes
        // while another one's study is still running lists the studies.
        if ROUTES[route] == "submit"
            && self
                .submitting
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            route = ROUTES.iter().position(|r| *r == "list").expect("list route");
        }
        let id = self.id();
        let (result, page) = match ROUTES[route] {
            "rows_csv" | "rows_json" => {
                let csv = ROUTES[route] == "rows_csv";
                let pairs = self.rows_query(step, rel, rng);
                let qs = client::query_string(&pairs);
                let table = match rel {
                    Relation::R1 => "r1",
                    Relation::R2 => "r2",
                    Relation::R3 => "r3",
                };
                let ext = if csv { "csv" } else { "json" };
                let target = if qs.is_empty() {
                    format!("/studies/{id}/{table}.{ext}")
                } else {
                    format!("/studies/{id}/{table}.{ext}?{qs}")
                };
                let result = client::get(self.addr, &target);
                if let Ok(x) = &result {
                    let got = if csv {
                        Got::Csv(digest(&x.body))
                    } else {
                        Got::Json(
                            client::json_u64(&x.body, "total"),
                            x.body.matches("{\"dataset\":").count(),
                        )
                    };
                    let at = samples.http.len();
                    samples.pages.push(Page { at, rel, qs, target, status: x.status, got, track });
                }
                (result, true)
            }
            "status" => {
                let r = client::get(self.addr, &format!("/studies/{id}"));
                if let Ok(x) = &r {
                    self.checks
                        .check(x.status == 200 && x.body.contains("\"state\":\"done\""), || {
                            format!("status {id}: {} {}", x.status, x.body.trim())
                        });
                }
                (r, false)
            }
            "list" => {
                let r = client::get(self.addr, "/studies");
                if let Ok(x) = &r {
                    self.checks.check(
                        x.status == 200 && x.body.contains(&format!("\"id\":{id},")),
                        || format!("list: {} lacks study {id}", x.status),
                    );
                }
                (r, false)
            }
            "metrics" => {
                let r = client::get(self.addr, "/metrics");
                if let Ok(x) = &r {
                    self.checks.check(
                        x.status == 200 && x.body.contains("cleanml_http_requests_total"),
                        || format!("metrics: {}", x.status),
                    );
                }
                (r, false)
            }
            _ => {
                let r = client::post_form(self.addr, "/studies", &self.submit_body);
                if let Ok(x) = &r {
                    let new_id = client::json_u64(&x.body, "id").filter(|_| x.status == 201);
                    if self.checks.check(new_id.is_some(), || {
                        format!("submit: {} {}", x.status, x.body.trim())
                    }) {
                        let new_id = new_id.expect("checked above");
                        let (done, polls) =
                            poll_done(self.addr, new_id, Duration::ZERO, Some(samples));
                        samples.polls += polls;
                        if self
                            .checks
                            .check(done, || format!("resubmitted study {new_id} never finished"))
                        {
                            self.current.fetch_max(new_id, Ordering::AcqRel);
                        }
                    }
                }
                self.submitting.store(false, Ordering::Release);
                (r, false)
            }
        };
        match result {
            Ok(mut x) => {
                // A rows page is traced once it is checked.
                if !page {
                    self.trace_request(ROUTES[route], &x, None, track);
                }
                x.body = String::new();
                samples.http.push((route, x, None));
            }
            Err(e) => {
                self.checks.check(false, || format!("{}: {e}", ROUTES[route]));
            }
        }
    }

    /// Checks a client's rows pages against the gateway's render path run
    /// in process on the same rows, timing that path (`http.render_ms`).
    /// It runs after the serving phase, so that the clients' own rendering
    /// does not compete with the gateway for the cores while latencies are
    /// measured.
    fn check_pages(&self, samples: &mut Samples) {
        for p in std::mem::take(&mut samples.pages) {
            let started = Instant::now();
            let rows = &self.values[rel_index(p.rel)];
            let select = parse_query(&p.qs).and_then(|q| Select::from_pairs(p.rel, &q).ok());
            let expected = select.map(|s| {
                let (page, total) = s.apply(rows);
                let mut body = relation_columns(p.rel).0.join(",");
                body.push('\n');
                for row in &page {
                    body.push_str(&csv_line(row));
                }
                (body, page.len(), total)
            });
            let render = started.elapsed();
            let ok = p.status == 200
                && match (&expected, &p.got) {
                    (Some((body, ..)), Got::Csv(d)) => digest(body) == *d,
                    (Some((_, n, total)), Got::Json(t, count)) => {
                        *t == Some(*total as u64) && count == n
                    }
                    (None, _) => false,
                };
            self.checks.check(ok, || format!("{}: {} page differs", p.target, p.status));
            let (route, x, r) = &mut samples.http[p.at];
            *r = Some(render);
            self.trace_request(ROUTES[*route], x, Some(render), p.track);
        }
    }

    /// The query string of a rows step on `rel`, as the recorded sessions
    /// send it; the slice filters on a value the seed draws from the rows.
    fn rows_query(&self, step: Step, rel: Relation, rng: &mut Rng) -> Vec<(String, String)> {
        let rows = &self.values[rel_index(rel)];
        let half = (rows.len() / 2).to_string();
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
        match step {
            Step::CsvHead => vec![pair("limit", &half)],
            Step::CsvTail => vec![pair("limit", "10000"), pair("offset", &half)],
            Step::JsonAll => vec![pair("limit", "10000")],
            _ => {
                // R1 filters on the model, as the README's example does;
                // R2 and R3 have no model column and filter on the dataset.
                let (columns, _) = relation_columns(rel);
                let column = if rel == Relation::R1 { "model" } else { "dataset" };
                let at = columns.iter().position(|c| *c == column).expect("filter column");
                let mut pairs = Vec::new();
                if !rows.is_empty() {
                    pairs.push(pair(column, &rng.pick(rows)[at]));
                }
                pairs.extend([pair("order", "p_two"), pair("limit", "10"), pair("offset", "10")]);
                pairs
            }
        }
    }

    /// Splits a request into connect, wait, render and transfer spans.
    fn trace_request(&self, route: &str, x: &Exchange, render: Option<Duration>, track: usize) {
        if !self.tracer.enabled() {
            return;
        }
        let t = self.tracer;
        let name = format!("http.{route}");
        let parent = t.record(&name, "serve", x.started, x.total, None, track);
        t.record("http.connect", "serve", x.started, x.connect, parent, track);
        let first_byte = x.started + x.total - x.transfer;
        let render = render.unwrap_or_default().min(x.ttfb);
        let wait_start = first_byte - x.ttfb;
        t.record("http.wait", "serve", wait_start, x.ttfb - render, parent, track);
        t.record("http.render", "serve", first_byte - render, render, parent, track);
        t.record("http.transfer", "serve", first_byte, x.transfer, parent, track);
    }

    /// One warm in-process cell query, checked against the study.
    fn cell_query(&self, rng: &mut Rng, samples: &mut Samples) {
        let q = rng.pick(&self.cells);
        let started = Instant::now();
        let sub = self.engine.submit_query(q, &self.cfg);
        let submitted = started.elapsed();
        let result = sub.and_then(|s| s.wait());
        let total = started.elapsed();
        let ok = match &result {
            Ok((db, report)) => {
                report.executed(TaskKind::Train) == 0
                    && !db.r1.is_empty()
                    && db.r1.iter().all(|r| {
                        let v = r1_values(r);
                        self.r1_index.get(&r1_key(&v)).is_some_and(|want| want[..] == v[7..])
                    })
            }
            Err(_) => false,
        };
        self.checks.check(ok, || format!("cell query {q:?} differs from the study"));
        self.tracer.record("engine.cell_query", "serve", started, total, None, 0);
        samples.cells.push(total);
        samples.cell_submits.push(submitted);
    }
}

/// Timings of one cold study.
struct Cold {
    db: CleanMlDb,
    wall: Duration,
    cpu_s: f64,
    submit: Duration,
    /// Σ task time the engine's registry recorded during the study.
    task_ms: f64,
    report: Option<RunReport>,
}

/// Σ task time the engine's own registry has recorded so far, in ms.
fn engine_task_ms() -> f64 {
    let t = telemetry::global();
    TaskKind::ALL.iter().map(|&k| t.task_latency(k).sum_micros as f64 / 1e3).sum()
}

/// `(requests, Σ service seconds)` in the gateway's per-route histograms,
/// read from the engine's Prometheus exposition.
fn gateway_served() -> (u64, f64) {
    let mut out = (0, 0.0);
    for line in telemetry::global().render().lines() {
        let Some((name, value)) = line.rsplit_once(' ') else { continue };
        if name.starts_with("cleanml_http_route_seconds_count{") {
            out.0 += value.parse::<u64>().unwrap_or(0);
        } else if name.starts_with("cleanml_http_route_seconds_sum{") {
            out.1 += value.parse::<f64>().unwrap_or(0.0);
        }
    }
    out
}

fn cold_in_process(
    engine: &Engine,
    ets: &[ErrorType],
    cfg: &ExperimentConfig,
) -> Result<Cold, String> {
    let cpu0 = procfs::cpu_seconds();
    let tasks0 = engine_task_ms();
    let started = Instant::now();
    let sub = engine.submit_study(ets, cfg);
    let submit = started.elapsed();
    let (db, report) = sub.wait().map_err(|e| format!("cold study: {e}"))?;
    Ok(Cold {
        db,
        wall: started.elapsed(),
        cpu_s: procfs::cpu_seconds() - cpu0,
        submit,
        task_ms: engine_task_ms() - tasks0,
        report: Some(report),
    })
}

/// Runs one workload end to end and returns its metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    traced: bool,
    run_dir: &Path,
    trace_out: Option<&Path>,
) -> Result<Report, String> {
    let ets = scale.error_types.clone().unwrap_or_else(|| workload.error_types());
    let cfg = workload.config(seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checks = Checks::default();
    let tracer = Tracer::new(traced);
    let mut notes = Vec::new();
    let body = submit_body(workload, &ets, cfg.base_seed);
    let io = |e: std::io::Error| e.to_string();

    // ---- set-up (and, for serve_warm, the cold study through the gateway)
    let mut setups = Vec::with_capacity(scale.setup_repeats);
    let mut polls = 0;
    let mut kept: Option<(Engine, PathBuf)> = None;
    let mut gateway_cold: Option<(Duration, f64, u64, [String; 3])> = None;
    let cv0 = (cv_fits_total(), fold_reuse_total());
    let setup_span = tracer.open("bench.setup", workload.name(), None);
    for i in 0..scale.setup_repeats.max(1) {
        let dir = run_dir.join(format!("store{i}"));
        let started = Instant::now();
        std::fs::create_dir_all(&dir).map_err(io)?;
        let e = engine(nproc, &dir, true);
        if workload == Workload::ServeWarm {
            let addr = e.remote_addr().expect("engine listens");
            let cpu0 = procfs::cpu_seconds();
            let posted = Instant::now();
            let (id, n) = register(addr, &body, Duration::from_millis(50))?;
            polls += n;
            setups.push(started.elapsed());
            let mut csvs: [String; 3] = Default::default();
            for (k, table) in ["r1", "r2", "r3"].iter().enumerate() {
                let x = client::get(addr, &format!("/studies/{id}/{table}.csv?limit=10000"))
                    .map_err(io)?;
                checks.check(x.status == 200, || format!("GET {table}: {}", x.status));
                csvs[k] = x.body;
            }
            gateway_cold = Some((posted.elapsed(), procfs::cpu_seconds() - cpu0, id, csvs));
        } else {
            // The workload can start once the engine is up and its study
            // graph is built.
            std::hint::black_box(build_study_graph(&ets, &cfg));
            setups.push(started.elapsed());
        }
        if i + 1 == scale.setup_repeats.max(1) {
            kept = Some((e, dir));
        } else {
            drop(e);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    tracer.close(setup_span);
    let (engine_n, store) = kept.expect("at least one set-up");
    let addr = engine_n.remote_addr().expect("engine listens");

    // ---- the cold study
    let cold_span = tracer.open("bench.cold", workload.name(), None);
    let (cold, gateway_id) = match gateway_cold {
        Some((wall, cpu_s, id, csvs)) => {
            // The served relations, in process: a warm resubmission.
            let (db, report) =
                engine_n.submit_study(&ets, &cfg).wait().map_err(|e| e.to_string())?;
            checks.check(report.executed(TaskKind::Train) == 0, || {
                "warm in-process study retrained".into()
            });
            let same = csvs == [db.r1_csv(), db.r2_csv(), db.r3_csv()];
            checks.check(same, || "gateway R1-R3 differ from the in-process study".into());
            (Cold { db, wall, cpu_s, submit: Duration::ZERO, task_ms: 0.0, report: None }, id)
        }
        None => {
            let cold = cold_in_process(&engine_n, &ets, &cfg)?;
            // Register the finished study with the gateway (a warm
            // submission) so the serving phase can page it.
            let (id, n) = register(addr, &body, PACE)?;
            polls += n;
            (cold, id)
        }
    };
    let cv = (cv_fits_total() - cv0.0, fold_reuse_total() - cv0.1);
    tracer.close(cold_span);
    let cold_digests = digests(&cold.db);
    if cfg.base_seed == PINNED_SEED && scale.error_types.is_none() {
        if let Some((_, want)) = PINNED.iter().find(|(w, _)| *w == workload) {
            checks.check(cold_digests == want.map(String::from), || {
                format!("R1-R3 digests {cold_digests:?} differ from the pinned {want:?}")
            });
        }
    }
    let (store_files, store_bytes) = procfs::dir_usage(&store);

    // ---- warm serving: HTTP gateway and in-process cell queries
    let serve_span = tracer.open("bench.serve", workload.name(), None);
    let mut r1_index = HashMap::new();
    for row in &cold.db.r1 {
        let v = r1_values(row);
        r1_index.insert(r1_key(&v), v[7..].to_vec());
    }
    let served = Served {
        addr,
        engine: &engine_n,
        current: AtomicU64::new(gateway_id),
        submitting: AtomicBool::new(false),
        cfg,
        values: [Relation::R1, Relation::R2, Relation::R3].map(|r| cold.db.relation_values(r)),
        submit_body: body,
        r1_index,
        cells: all_cells(&ets, cfg.base_seed),
        checks: &checks,
        tracer: &tracer,
    };
    let mut samples = Samples { polls, ..Samples::default() };
    let gateway0 = gateway_served();
    let deadline = Instant::now() + scale.serve_for;
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..scale.clients)
            .map(|c| {
                let served = &served;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xC1E4_0000 + c as u64));
                    let mut cursor = Cursor::new(&mut rng);
                    let mut s = Samples::default();
                    // Closed loop: the next request goes out as soon as the
                    // previous response is read (pages are checked after
                    // the phase). The gateway's accept and service loops
                    // each poll every 20 ms and their phases drift against
                    // each other for seconds at a time; a client that
                    // waits between requests lands in a one- or a two-poll
                    // wait depending on where that drift stands, which
                    // moved the median from run to run by up to 2x. Sent
                    // at once, nearly every request waits one poll, and a
                    // second only while the phases nearly coincide.
                    while Instant::now() < deadline {
                        served.request(&mut rng, &mut cursor, c + 1, &mut s);
                    }
                    s
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serving client panicked")).collect::<Vec<_>>()
    });
    // The gateway's own route histograms against what the clients saw: it
    // must have served every request they completed, each inside the
    // client's connect-to-last-byte window.
    let exchanges = || per_client.iter().flat_map(|s| s.http.iter().map(|(_, x, _)| x));
    let completed = exchanges().count() as u64;
    let client_s: f64 = exchanges().map(|x| x.total.as_secs_f64()).sum();
    let mut gateway1 = gateway_served();
    for _ in 0..100 {
        if gateway1.0 - gateway0.0 >= completed {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        gateway1 = gateway_served();
    }
    let (served_n, service_s) = (gateway1.0 - gateway0.0, gateway1.1 - gateway0.1);
    checks.check(served_n == completed, || {
        format!("the gateway served {served_n} requests, the clients completed {completed}")
    });
    checks.check(service_s <= client_s, || {
        format!("gateway service {service_s:.3} s exceeds the clients' {client_s:.3} s")
    });
    notes.push(format!(
        "gateway accounting: {served_n} requests served = {completed} completed; in-gateway \
         service {:.3} ms/request of the clients' {:.3} ms, so {:.3} ms/request is spent outside \
         the routes (accept poll, connect, transfer)",
        1e3 * service_s / served_n.max(1) as f64,
        1e3 * client_s / completed.max(1) as f64,
        1e3 * (client_s - service_s) / completed.max(1) as f64,
    ));
    for mut s in per_client {
        served.check_pages(&mut s);
        samples.merge(s);
    }
    let mut rng = Rng::new(seed ^ 0xCE11);
    for _ in 0..scale.cell_queries {
        served.cell_query(&mut rng, &mut samples);
    }
    drop(served);
    drop(engine_n);
    tracer.close(serve_span);

    // ---- fresh-engine resumes on the written store
    let resume_span = tracer.open("bench.resume", workload.name(), None);
    let mut resumes = Vec::new();
    let mut resume_submits = Vec::new();
    let mut cache_hits = 0;
    for _ in 0..scale.resumes {
        std::thread::sleep(PACE);
        let started = Instant::now();
        let e = engine(nproc, &store, false);
        let sub = e.submit_study(&ets, &cfg);
        resume_submits.push(started.elapsed());
        cache_hits = sub.cache_hits();
        let result = sub.wait();
        resumes.push(started.elapsed());
        let ok = match &result {
            Ok((db, report)) => {
                report.executed(TaskKind::Train) == 0 && digests(db) == cold_digests
            }
            Err(_) => false,
        };
        checks.check(ok, || "resume retrained or changed R1-R3".into());
    }
    tracer.close(resume_span);

    let http_ms: Vec<f64> = samples.http.iter().map(|(_, x, _)| ms(x.total)).collect();
    let cell_ms: Vec<f64> = samples.cells.iter().map(|d| ms(*d)).collect();
    for (what, v) in [("http requests", &http_ms), ("cell queries", &cell_ms)] {
        notes.push(format!(
            "{what}: n={} p50={:.3}ms p90={:.3}ms p99={:.3}ms max={:.3}ms ({} samples beyond p99)",
            v.len(),
            median(v),
            percentile(v, 0.9),
            percentile(v, 0.99),
            percentile(v, 1.0),
            beyond(v.len(), 0.99)
        ));
    }
    let wall_s = cold.wall.as_secs_f64();
    let setup_s: Vec<f64> = setups.iter().map(|d| d.as_secs_f64()).collect();

    if !traced {
        let metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", wall_s, "s"),
            ("cpu_s", cold.cpu_s, "s"),
            ("peak_rss_mb", procfs::peak_rss_mb(), "MiB"),
            ("store_mb", store_bytes as f64 / (1u64 << 20) as f64, "MiB"),
            ("http_p50_ms", median(&http_ms), "ms"),
            ("http_p99_ms", percentile(&http_ms, 0.99), "ms"),
        ];
        return Ok(finish(
            &checks,
            metrics.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect(),
            notes,
        ));
    }

    // ---- traced extras: graph build, cold at one worker, serial replay
    let mut graph = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        std::hint::black_box(build_study_graph(&ets, &cfg));
        graph.push(ms(started.elapsed()));
    }
    let w1_dir = run_dir.join("w1");
    std::fs::create_dir_all(&w1_dir).map_err(io)?;
    // The one-worker engine and the serial replay each occupy one core and
    // run side by side, so both see the same host conditions and the
    // reconciliation between them is not skewed by drift between passes.
    let mut layers = Layers::default();
    let (w1, replayed) = std::thread::scope(|scope| {
        let w1 = scope.spawn(|| {
            let span = tracer.open("bench.cold_w1", workload.name(), None);
            let w1 = cold_in_process(&engine(1, &w1_dir, false), &ets, &cfg);
            tracer.close(span);
            w1
        });
        let span = tracer.open("bench.replay", workload.name(), None);
        let replayed = replay::replay(&ets, &cfg, &tracer, &mut layers).map_err(|e| e.to_string());
        tracer.close(span);
        (w1.join().expect("workers=1 study panicked"), replayed)
    });
    let (w1, replayed) = (w1?, replayed?);
    checks.check(digests(&w1.db) == cold_digests, || {
        "workers=1 study differs from the cold study".into()
    });
    checks.check(digests(&replayed) == cold_digests, || {
        "serial replay differs from the engine".into()
    });
    replay::sweep(&ets, &cfg, &tracer, &mut layers).map_err(|e| e.to_string())?;

    let wall_w1 = ms(w1.wall);
    let units = layers.units_ms();
    // wall_w1 = units + overhead holds by definition of the overhead, so
    // the accounting is checked against what the engine recorded itself.
    // At one worker its tasks run one at a time: their registry time cannot
    // exceed wall_w1. And it ran the grid the replay ran: its task counts
    // equal the replay's calls (generate and context are left out, as the
    // engine generates a dataset shared by error types once).
    checks.check(w1.task_ms <= wall_w1, || {
        format!("registry task time {:.1} ms exceeds wall_w1 {wall_w1:.1} ms", w1.task_ms)
    });
    let w1_report = w1.report.unwrap_or_default();
    let calls = |prefix: &str, suffix: &str| -> u64 {
        let of = |k: &String| k.starts_with(prefix) && k.ends_with(suffix);
        layers.totals.iter().filter(|(k, _)| of(k)).map(|(_, (_, n))| n).sum()
    };
    let cleans = calls("cleaning.", "");
    for (kind, replayed) in [
        (TaskKind::Split, layers.calls("dataset.split")),
        (TaskKind::Clean, cleans),
        (TaskKind::Train, calls("ml.", ".fit")),
        (TaskKind::Evaluate, cleans),
        (TaskKind::Reduce, layers.calls("core.reduce")),
    ] {
        checks.check(w1_report.executed(kind) as u64 == replayed, || {
            format!(
                "the engine executed {} {} tasks, the replay made {replayed} calls",
                w1_report.executed(kind),
                kind.name()
            )
        });
    }
    let overhead = wall_w1 - units;
    let remainder = overhead - ms(w1.submit);
    notes.push(format!(
        "reconcile {}: wall_w1 {wall_w1:.1} ms = units {units:.1} ms + engine overhead {overhead:.1} ms \
         (submit/resolve {:.1} ms + unexplained {remainder:.1} ms, {:.2}% of wall_w1); the engine's \
         registry saw {:.1} ms of task time, so {:.1} ms of the overhead is outside tasks (scheduling, \
         persist, collection) and {:.1} ms is the same units taking longer inside the engine than in \
         the replay",
        workload.name(),
        ms(w1.submit),
        100.0 * remainder / wall_w1,
        w1.task_ms,
        wall_w1 - w1.task_ms,
        w1.task_ms - units,
    ));

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: String, v: f64, unit: &'static str| m.push((name, v, unit));
    put("datagen.generate_ms".into(), layers.ms("datagen.generate"), "ms");
    put("datagen.generate_calls".into(), layers.calls("datagen.generate") as f64, "count");
    put("dataset.split_ms".into(), layers.ms("dataset.split"), "ms");
    put("dataset.split_calls".into(), layers.calls("dataset.split") as f64, "count");
    for method in all_methods() {
        let stem = format!("cleaning.{}", method_key(&method));
        let sweep = format!("sweep.{stem}");
        put(format!("{stem}.ms"), layers.ms(&stem) + layers.ms(&sweep), "ms");
        put(format!("{stem}.calls"), (layers.calls(&stem) + layers.calls(&sweep)) as f64, "count");
    }
    for k in PAPER_MODELS {
        let f = family_key(k);
        put(format!("ml.{f}.fit_ms"), layers.ms(&format!("ml.{f}.fit")), "ms");
        put(format!("ml.{f}.fit_calls"), layers.calls(&format!("ml.{f}.fit")) as f64, "count");
        put(format!("ml.{f}.predict_ms"), layers.ms(&format!("ml.{f}.predict")), "ms");
    }
    put("ml.cv.fits".into(), cv.0 as f64, "count");
    put("ml.cv.fold_reuse".into(), cv.1 as f64, "count");
    put("ml.cv.reuse_ratio".into(), cv.1 as f64 / cv.0.max(1) as f64, "ratio");
    for stem in ["core.context", "core.evaluate", "core.reduce", "stats.by", "core.render"] {
        put(format!("{stem}_ms"), layers.ms(stem), "ms");
    }
    put("engine.graph_ms".into(), median(&graph), "ms");
    put("engine.submit_ms".into(), ms(w1.submit), "ms");
    put(
        "engine.resume_submit_ms".into(),
        median(&resume_submits.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
        "ms",
    );
    put(
        "engine.resume_ms".into(),
        median(&resumes.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
        "ms",
    );
    put("engine.cell_p50_ms".into(), median(&cell_ms), "ms");
    put("engine.cell_p99_ms".into(), percentile(&cell_ms, 0.99), "ms");
    put(
        "engine.cell_submit_ms".into(),
        median(&samples.cell_submits.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
        "ms",
    );
    for kind in TaskKind::ALL {
        put(format!("engine.executed.{}", kind.name()), w1_report.executed(kind) as f64, "count");
    }
    put("engine.cache_hits".into(), cache_hits as f64, "count");
    put("engine.store_files".into(), store_files as f64, "count");
    put("engine.wall_w1_ms".into(), wall_w1, "ms");
    put("engine.units_ms".into(), units, "ms");
    put("engine.overhead_ms".into(), overhead, "ms");
    put("parallel.speedup".into(), wall_w1 / ms(cold.wall), "ratio");
    put("parallel.cpu_util".into(), cold.cpu_s / (wall_s * nproc as f64), "ratio");
    for (ri, route) in ROUTES.iter().enumerate() {
        let v: Vec<f64> =
            samples.http.iter().filter(|(r, ..)| *r == ri).map(|(_, x, _)| ms(x.total)).collect();
        if beyond(v.len(), 0.9) < 10 {
            notes.push(format!(
                "http.{route}: only {} samples, p90 has fewer than 10 beyond it",
                v.len()
            ));
        }
        put(format!("http.{route}.p50_ms"), median(&v), "ms");
        put(format!("http.{route}.p90_ms"), percentile(&v, 0.9), "ms");
    }
    let all = |f: &dyn Fn(&Exchange) -> Duration| -> Vec<f64> {
        samples.http.iter().map(|(_, x, _)| ms(f(x))).collect()
    };
    let rows: Vec<(&Exchange, Duration)> =
        samples.http.iter().filter_map(|(_, x, r)| r.map(|r| (x, r))).collect();
    let render: Vec<f64> = rows.iter().map(|(_, r)| ms(*r)).collect();
    let wait: Vec<f64> = rows.iter().map(|(x, r)| ms(x.ttfb.saturating_sub(*r))).collect();
    put("http.requests".into(), samples.http.len() as f64, "count");
    put("http.connect_ms".into(), median(&all(&|x| x.connect)), "ms");
    put("http.ttfb_ms".into(), median(&all(&|x| x.ttfb)), "ms");
    put("http.render_ms".into(), median(&render), "ms");
    put("http.wait_ms".into(), median(&wait), "ms");
    put("http.transfer_ms".into(), median(&all(&|x| x.transfer)), "ms");
    put("http.status_polls".into(), samples.polls as f64, "count");
    if !rows.is_empty() {
        let mean = |f: &dyn Fn(&(&Exchange, Duration)) -> f64| {
            rows.iter().map(f).sum::<f64>() / rows.len() as f64
        };
        let total = mean(&|(x, _)| ms(x.total));
        let (connect, render, transfer) =
            (mean(&|(x, _)| ms(x.connect)), mean(&|(_, r)| ms(*r)), mean(&|(x, _)| ms(x.transfer)));
        let wait = mean(&|(x, r)| ms(x.ttfb.saturating_sub(*r)));
        notes.push(format!(
            "reconcile http (rows pages, means): total {total:.3} ms = connect {connect:.3} + wait {wait:.3} \
             + render {render:.3} + transfer {transfer:.3} + request write {:.3} ms; http_p50 {:.3} ms",
            total - connect - wait - render - transfer,
            median(&http_ms)
        ));
    }
    if let Some(path) = trace_out {
        let n = tracer.write_chrome(path).map_err(io)?;
        notes.push(format!("trace: {n} spans written to {}", path.display()));
    }
    Ok(finish(&checks, m, notes))
}

fn finish(
    checks: &Checks,
    metrics: Vec<(String, f64, &'static str)>,
    mut notes: Vec<String>,
) -> Report {
    for (name, v, _) in &metrics {
        checks.check(v.is_finite(), || format!("metric {name} is not a number"));
    }
    notes.extend(
        checks.failures.lock().expect("failure log").iter().map(|f| format!("FAILED: {f}")),
    );
    Report {
        attempted: checks.attempted.load(Ordering::Relaxed),
        failed: checks.failed.load(Ordering::Relaxed),
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!((0..100).all(|_| a.below(3) < 3));
    }

    #[test]
    fn clients_replay_the_recorded_session() {
        let mut c = Cursor { step: 0, relation: 0 };
        let first: Vec<(Step, Relation)> = (0..SESSION.len()).map(|_| c.advance()).collect();
        assert!(first.iter().all(|(_, r)| *r == Relation::R1));
        assert_eq!(c.advance(), (Step::List, Relation::R2));
        let count = |route| SESSION.iter().filter(|s| s.route() == route).count();
        let routes = ["list", "metrics", "submit", "rows_csv", "rows_json"];
        assert_eq!(routes.map(count), [2, 3, 2, 2, 2]);
        assert!(ROUTES.iter().all(|r| *r == "status" || routes.contains(r)));
    }

    #[test]
    fn submit_body_names_every_error_type() {
        let body = submit_body(Workload::QuickCold, &ErrorType::all(), 3);
        assert_eq!(
            body,
            "errors=missing_values,outliers,duplicates,inconsistencies,mislabels&profile=quick&splits=2&seed=3"
        );
        let cfg = Workload::PaperCv.config(5);
        assert_eq!(
            (cfg.n_splits, cfg.base_seed, cfg.search),
            (2, PINNED_SEED, SearchBudget::paper())
        );
        assert_eq!(Workload::QuickCold.config(5).base_seed, 5);
    }
}
