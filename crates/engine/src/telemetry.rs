//! Process-wide telemetry: atomic counters, gauges, fixed-bucket latency
//! histograms, and an optional Chrome trace-event span buffer.
//!
//! Everything here is zero-dependency and cheap enough for the hot path:
//! a counter bump is one relaxed `fetch_add`, a histogram observation is
//! a linear scan over the bucket bounds plus three `fetch_add`s. The
//! registry is always on; what it costs is part of every run the
//! benchmark times.
//!
//! Two outputs hang off the same registry:
//!
//! * [`Telemetry::render`] — Prometheus text exposition format
//!   (version 0.0.4), served by the hub's bounded `GET /metrics`
//!   responder;
//! * [`Telemetry::write_trace`] — Chrome trace-event JSON
//!   (`chrome://tracing`-loadable), fed by per-task spans recorded in
//!   the worker pool and the remote lease loop, enabled with
//!   `--trace-out FILE`.
//!
//! The registry is a process singleton ([`global`]): instrumentation in
//! generic code (`DiskStore`, `ArtifactCache`, the pool) reaches it without
//! threading a handle through every constructor. It holds only
//! process-wide counters, gauges, histograms and trace spans, cumulative
//! since the process started (Prometheus semantics), and keeps nothing per
//! run. A submission's own figures — the `--cache-stats` line, its slowest
//! tasks and the `report` of `GET /studies/:id` — are not read from here:
//! the engine credits them to the submission where they happen, in its
//! [`crate::RunReport`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::event::TaskKind;

/// Number of task kinds; every per-kind array in the registry and the
/// pool has this length, indexed by [`TaskKind::index`].
pub const NKINDS: usize = TaskKind::ALL.len();

/// The HTTP gateway's route set, in array-index order. Per-route request
/// counters and latency histograms are indexed by position; `remote/http.rs`
/// maps its `Route` enum onto these slots. The accounting invariant is
///   http_requests = http_rejected + http_not_found + http_unauthorized
///                 + Σ http_route_requests
/// — every request that reaches the HTTP plane lands in exactly one bucket.
pub const HTTP_ROUTES: [&str; 5] = ["metrics", "studies", "submit", "status", "rows"];
pub const NROUTES: usize = HTTP_ROUTES.len();

/// Histogram bucket upper bounds, in seconds. Fixed at compile time so
/// observation is a branch-free-ish scan; chosen to straddle the repo's
/// task-cost spread — the 100 µs / 250 µs / 500 µs buckets separate the
/// sub-millisecond kinds (Evaluate, Reduce) that a 1 ms floor would put
/// in one bucket, and the 150 ms – 750 ms ladder separates the
/// Clean/Train tail that a bare 0.1 → 0.5 → 1.0 jump would lump together.
pub const BUCKET_BOUNDS_SECS: [f64; 17] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.15, 0.25, 0.35, 0.5, 0.75, 1.0, 5.0,
    10.0, 60.0,
];

const BOUNDS_US: [u64; 17] = [
    100, 250, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 150_000, 250_000, 350_000, 500_000,
    750_000, 1_000_000, 5_000_000, 10_000_000, 60_000_000,
];

const NBUCKETS: usize = BUCKET_BOUNDS_SECS.len();

/// Cap on buffered trace events so a pathological run cannot eat the
/// heap; overflow is counted, not silently dropped.
const MAX_TRACE_EVENTS: usize = 1 << 20;

/// Monotonic counter. Relaxed ordering: telemetry tolerates torn
/// cross-counter reads, it never tolerates lost increments.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (active leases, connected workers, ...).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket latency histogram. Buckets store per-bucket (not
/// cumulative) counts; cumulative sums are computed at render time, so
/// the hot path touches exactly one bucket per observation.
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Observation count and total of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum_micros: u64,
}

impl Histogram {
    pub fn observe(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        for (i, &bound) in BOUNDS_US.iter().enumerate() {
            if us <= bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        // Observations above the last bound land only in the implicit
        // +Inf bucket, i.e. in `count`.
        self.sum_micros.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Cumulative per-bound counts, Prometheus `le` semantics. The +Inf
    /// bucket is [`Histogram::count`].
    pub fn cumulative(&self) -> [u64; NBUCKETS] {
        let mut cum = [0u64; NBUCKETS];
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            cum[i] = acc;
        }
        cum
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary { count: self.count(), sum_micros: self.sum_micros() }
    }
}

/// One buffered Chrome trace event (`ph:"X"` complete spans only).
struct TraceEvent {
    name: String,
    cat: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    args: Vec<(&'static str, String)>,
}

/// The registry. One instance per process ([`global`]); tests that need
/// isolation construct their own.
pub struct Telemetry {
    // Task plane (pool.rs).
    pub(crate) tasks_local: [Counter; NKINDS],
    pub(crate) tasks_remote: [Counter; NKINDS],
    pub(crate) tasks_failed: Counter,
    pub(crate) task_seconds: [Histogram; NKINDS],
    pub(crate) queue_seconds: [Histogram; NKINDS],
    pub(crate) persist_seconds: Histogram,

    // Cache plane (cache.rs).
    pub(crate) cache_memory_hits: Counter,
    pub(crate) cache_disk_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) memo_evictions: Counter,
    pub(crate) store_writes: Counter,
    pub(crate) store_written_bytes: Counter,
    pub(crate) store_evictions: Counter,
    pub(crate) store_evicted_bytes: Counter,
    pub(crate) store_gc: Counter,
    pub(crate) store_gc_bytes: Counter,
    pub(crate) store_bytes: Gauge,
    pub(crate) store_entries: Gauge,

    // Remote plane (remote/coordinator.rs).
    pub(crate) leases_issued: Counter,
    pub(crate) leases_renewed: Counter,
    pub(crate) leases_reinjected: Counter,
    pub(crate) leases_active: Gauge,
    pub(crate) lease_seconds: Histogram,
    pub(crate) heartbeats: Counter,
    pub(crate) fetch_bytes_in: Counter,
    pub(crate) fetch_bytes_out: Counter,
    pub(crate) workers_joined: Counter,
    pub(crate) workers_connected: Gauge,

    // Serving plane: the results gateway (study.rs, remote/http.rs).
    pub(crate) submissions_study: Counter,
    pub(crate) submissions_cell: Counter,
    pub(crate) submissions_active: Gauge,
    pub(crate) warm_answers: Counter,
    pub(crate) events_dropped: Counter,
    pub(crate) http_requests: Counter,
    pub(crate) http_rejected: Counter,
    pub(crate) http_not_found: Counter,
    pub(crate) http_unauthorized: Counter,
    pub(crate) http_route_requests: [Counter; NROUTES],
    pub(crate) http_route_seconds: [Histogram; NROUTES],

    // Zero-copy artifact plane (cache.rs).
    pub(crate) handle_shares: Counter,

    // Trace-span buffer.
    epoch: Instant,
    tracing: AtomicBool,
    trace: Mutex<Vec<TraceEvent>>,
    trace_overflow: Counter,
    trace_tid_seq: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry {
            tasks_local: std::array::from_fn(|_| Counter::default()),
            tasks_remote: std::array::from_fn(|_| Counter::default()),
            tasks_failed: Counter::default(),
            task_seconds: std::array::from_fn(|_| Histogram::default()),
            queue_seconds: std::array::from_fn(|_| Histogram::default()),
            persist_seconds: Histogram::default(),
            cache_memory_hits: Counter::default(),
            cache_disk_hits: Counter::default(),
            cache_misses: Counter::default(),
            memo_evictions: Counter::default(),
            store_writes: Counter::default(),
            store_written_bytes: Counter::default(),
            store_evictions: Counter::default(),
            store_evicted_bytes: Counter::default(),
            store_gc: Counter::default(),
            store_gc_bytes: Counter::default(),
            store_bytes: Gauge::default(),
            store_entries: Gauge::default(),
            leases_issued: Counter::default(),
            leases_renewed: Counter::default(),
            leases_reinjected: Counter::default(),
            leases_active: Gauge::default(),
            lease_seconds: Histogram::default(),
            heartbeats: Counter::default(),
            fetch_bytes_in: Counter::default(),
            fetch_bytes_out: Counter::default(),
            workers_joined: Counter::default(),
            workers_connected: Gauge::default(),
            submissions_study: Counter::default(),
            submissions_cell: Counter::default(),
            submissions_active: Gauge::default(),
            warm_answers: Counter::default(),
            events_dropped: Counter::default(),
            http_requests: Counter::default(),
            http_rejected: Counter::default(),
            http_not_found: Counter::default(),
            http_unauthorized: Counter::default(),
            http_route_requests: std::array::from_fn(|_| Counter::default()),
            http_route_seconds: std::array::from_fn(|_| Histogram::default()),
            handle_shares: Counter::default(),
            epoch: Instant::now(),
            tracing: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            trace_overflow: Counter::default(),
            trace_tid_seq: AtomicU64::new(0),
        }
    }

    /// Per-kind execute-latency summary (local executions only).
    pub fn task_latency(&self, kind: TaskKind) -> HistogramSummary {
        self.task_seconds[kind.index()].summary()
    }

    // ---- trace spans ------------------------------------------------

    /// Start buffering spans. There is deliberately no `stop`: tracing
    /// is a per-process run mode chosen at startup (`--trace-out`).
    pub fn start_tracing(&self) {
        self.tracing.store(true, Ordering::Relaxed);
    }

    pub fn tracing_on(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// A fresh synthetic thread id for labelling remote-lease spans.
    pub(crate) fn next_remote_tid(&self) -> u64 {
        1000 + self.trace_tid_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one complete (`ph:"X"`) span. No-op unless tracing is on.
    pub(crate) fn span(
        &self,
        name: &str,
        cat: &'static str,
        start: Instant,
        dur: Duration,
        tid: u64,
        args: Vec<(&'static str, String)>,
    ) {
        if !self.tracing_on() {
            return;
        }
        let ts_us = u64::try_from(
            start.checked_duration_since(self.epoch).unwrap_or(Duration::ZERO).as_micros(),
        )
        .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let mut buf = self.trace.lock().expect("trace lock");
        if buf.len() >= MAX_TRACE_EVENTS {
            self.trace_overflow.inc();
            return;
        }
        buf.push(TraceEvent { name: name.to_string(), cat, ts_us, dur_us, tid, args });
    }

    /// Serialise the span buffer as Chrome trace-event JSON. Returns the
    /// number of events written.
    pub fn write_trace(&self, path: &Path) -> io::Result<usize> {
        let events = self.trace.lock().expect("trace lock");
        let mut out = String::with_capacity(64 + events.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape(&e.name, &mut out);
            out.push_str("\",\"cat\":\"");
            json_escape(e.cat, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
                e.ts_us, e.dur_us, e.tid
            );
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(k, &mut out);
                out.push_str("\":\"");
                json_escape(v, &mut out);
                out.push('"');
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        std::fs::write(path, out)?;
        Ok(events.len())
    }

    // ---- Prometheus text exposition ---------------------------------

    /// Render every metric in Prometheus text exposition format 0.0.4.
    /// Per-kind families render all kinds (zeros included) so scrapers
    /// see stable series from the first scrape.
    pub fn render(&self) -> String {
        let mut o = String::with_capacity(8 * 1024);

        o.push_str("# TYPE cleanml_tasks_executed_total counter\n");
        for (i, kind) in TaskKind::ALL.iter().enumerate() {
            sample(
                &mut o,
                "cleanml_tasks_executed_total",
                &[("kind", kind.name()), ("site", "local")],
                Value::U64(self.tasks_local[i].get()),
            );
            sample(
                &mut o,
                "cleanml_tasks_executed_total",
                &[("kind", kind.name()), ("site", "remote")],
                Value::U64(self.tasks_remote[i].get()),
            );
        }
        counter(&mut o, "cleanml_tasks_failed_total", &self.tasks_failed);

        histogram_family(&mut o, "cleanml_task_seconds", "kind", &self.task_seconds);
        histogram_family(&mut o, "cleanml_task_queue_seconds", "kind", &self.queue_seconds);
        plain_histogram(&mut o, "cleanml_task_persist_seconds", &self.persist_seconds);

        o.push_str("# TYPE cleanml_cache_hits_total counter\n");
        sample(
            &mut o,
            "cleanml_cache_hits_total",
            &[("layer", "memory")],
            Value::U64(self.cache_memory_hits.get()),
        );
        sample(
            &mut o,
            "cleanml_cache_hits_total",
            &[("layer", "disk")],
            Value::U64(self.cache_disk_hits.get()),
        );
        counter(&mut o, "cleanml_cache_misses_total", &self.cache_misses);
        counter(&mut o, "cleanml_memo_evictions_total", &self.memo_evictions);
        counter(&mut o, "cleanml_store_writes_total", &self.store_writes);
        counter(&mut o, "cleanml_store_written_bytes_total", &self.store_written_bytes);
        counter(&mut o, "cleanml_store_evictions_total", &self.store_evictions);
        counter(&mut o, "cleanml_store_evicted_bytes_total", &self.store_evicted_bytes);
        counter(&mut o, "cleanml_store_gc_total", &self.store_gc);
        counter(&mut o, "cleanml_store_gc_bytes_total", &self.store_gc_bytes);
        gauge(&mut o, "cleanml_store_bytes", &self.store_bytes);
        gauge(&mut o, "cleanml_store_entries", &self.store_entries);

        counter(&mut o, "cleanml_leases_issued_total", &self.leases_issued);
        counter(&mut o, "cleanml_leases_renewed_total", &self.leases_renewed);
        counter(&mut o, "cleanml_leases_reinjected_total", &self.leases_reinjected);
        gauge(&mut o, "cleanml_leases_active", &self.leases_active);
        plain_histogram(&mut o, "cleanml_lease_seconds", &self.lease_seconds);
        counter(&mut o, "cleanml_heartbeats_total", &self.heartbeats);

        o.push_str("# TYPE cleanml_fetch_bytes_total counter\n");
        sample(
            &mut o,
            "cleanml_fetch_bytes_total",
            &[("direction", "in")],
            Value::U64(self.fetch_bytes_in.get()),
        );
        sample(
            &mut o,
            "cleanml_fetch_bytes_total",
            &[("direction", "out")],
            Value::U64(self.fetch_bytes_out.get()),
        );
        counter(&mut o, "cleanml_remote_workers_joined_total", &self.workers_joined);
        gauge(&mut o, "cleanml_remote_workers_connected", &self.workers_connected);

        o.push_str("# TYPE cleanml_submissions_total counter\n");
        sample(
            &mut o,
            "cleanml_submissions_total",
            &[("kind", "study")],
            Value::U64(self.submissions_study.get()),
        );
        sample(
            &mut o,
            "cleanml_submissions_total",
            &[("kind", "cell")],
            Value::U64(self.submissions_cell.get()),
        );
        gauge(&mut o, "cleanml_submissions_active", &self.submissions_active);
        counter(&mut o, "cleanml_warm_answers_total", &self.warm_answers);
        counter(&mut o, "cleanml_events_dropped_total", &self.events_dropped);
        counter(&mut o, "cleanml_http_requests_total", &self.http_requests);
        counter(&mut o, "cleanml_http_rejected_total", &self.http_rejected);
        counter(&mut o, "cleanml_http_not_found_total", &self.http_not_found);
        counter(&mut o, "cleanml_http_unauthorized_total", &self.http_unauthorized);
        o.push_str("# TYPE cleanml_http_route_requests_total counter\n");
        for (i, route) in HTTP_ROUTES.iter().enumerate() {
            sample(
                &mut o,
                "cleanml_http_route_requests_total",
                &[("route", route)],
                Value::U64(self.http_route_requests[i].get()),
            );
        }
        o.push_str("# TYPE cleanml_http_route_seconds histogram\n");
        for (i, route) in HTTP_ROUTES.iter().enumerate() {
            histogram_samples(
                &mut o,
                "cleanml_http_route_seconds",
                Some(("route", route)),
                &self.http_route_seconds[i],
            );
        }
        counter(&mut o, "cleanml_trace_events_dropped_total", &self.trace_overflow);

        counter(&mut o, "cleanml_handle_shares_total", &self.handle_shares);

        // CV fold plane (bridged from the process-wide `cleanml-ml`
        // counters: the ml crate cannot depend on the engine registry).
        o.push_str("# TYPE cleanml_cv_fits_total counter\n");
        sample(&mut o, "cleanml_cv_fits_total", &[], Value::U64(cleanml_ml::cv::cv_fits_total()));
        o.push_str("# TYPE cleanml_fold_reuse_total counter\n");
        sample(
            &mut o,
            "cleanml_fold_reuse_total",
            &[],
            Value::U64(cleanml_ml::cv::fold_reuse_total()),
        );

        o
    }
}

/// The process-wide registry.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

// ---- rendering helpers ---------------------------------------------

enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
}

/// Escape a label value per the Prometheus text format: backslash,
/// double-quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends `s` to `out` escaped for a JSON string body (no quotes).
pub(crate) fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: Value) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    match value {
        Value::U64(v) => {
            let _ = writeln!(out, " {v}");
        }
        Value::I64(v) => {
            let _ = writeln!(out, " {v}");
        }
        Value::F64(v) => {
            let _ = writeln!(out, " {v:.6}");
        }
    }
}

fn counter(out: &mut String, name: &str, c: &Counter) {
    let _ = writeln!(out, "# TYPE {name} counter");
    sample(out, name, &[], Value::U64(c.get()));
}

fn gauge(out: &mut String, name: &str, g: &Gauge) {
    let _ = writeln!(out, "# TYPE {name} gauge");
    sample(out, name, &[], Value::I64(g.get()));
}

/// Render one histogram's `_bucket`/`_sum`/`_count` samples with an
/// optional extra label (e.g. `kind="train"`).
fn histogram_samples(out: &mut String, name: &str, label: Option<(&str, &str)>, h: &Histogram) {
    let cum = h.cumulative();
    let bucket_name = format!("{name}_bucket");
    for (i, &c) in cum.iter().enumerate() {
        let le = format_bound(BUCKET_BOUNDS_SECS[i]);
        match label {
            Some((k, v)) => {
                sample(out, &bucket_name, &[(k, v), ("le", &le)], Value::U64(c));
            }
            None => sample(out, &bucket_name, &[("le", &le)], Value::U64(c)),
        }
    }
    let labels: Vec<(&str, &str)> = label.into_iter().collect();
    let mut inf = labels.clone();
    inf.push(("le", "+Inf"));
    sample(out, &bucket_name, &inf, Value::U64(h.count()));
    sample(out, &format!("{name}_sum"), &labels, Value::F64(h.sum_micros() as f64 / 1e6));
    sample(out, &format!("{name}_count"), &labels, Value::U64(h.count()));
}

fn histogram_family(out: &mut String, name: &str, label_key: &str, hs: &[Histogram; NKINDS]) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (i, kind) in TaskKind::ALL.iter().enumerate() {
        histogram_samples(out, name, Some((label_key, kind.name())), &hs[i]);
    }
}

fn plain_histogram(out: &mut String, name: &str, h: &Histogram) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    histogram_samples(out, name, None, h);
}

/// Bucket bounds print without trailing zeros ("0.001", "5"), matching
/// conventional Prometheus client output.
fn format_bound(b: f64) -> String {
    if b == b.trunc() {
        format!("{}", b as u64)
    } else {
        format!("{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn counters_and_gauges_move_as_told() {
        let t = Telemetry::new();
        t.cache_misses.inc();
        t.cache_misses.add(4);
        assert_eq!(t.cache_misses.get(), 5);
        t.leases_active.inc();
        t.leases_active.inc();
        t.leases_active.dec();
        assert_eq!(t.leases_active.get(), 1);
        t.store_bytes.set(1234);
        assert_eq!(t.store_bytes.get(), 1234);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let h = Histogram::default();
        // one per bucket boundary, one past the last bound
        for &b in &BUCKET_BOUNDS_SECS {
            h.observe(Duration::from_secs_f64(b));
        }
        h.observe(Duration::from_secs(120));
        let cum = h.cumulative();
        for w in cum.windows(2) {
            assert!(w[0] <= w[1], "cumulative counts must be nondecreasing");
        }
        assert_eq!(cum[NBUCKETS - 1], BUCKET_BOUNDS_SECS.len() as u64);
        assert_eq!(h.count(), BUCKET_BOUNDS_SECS.len() as u64 + 1);

        // rendered form repeats the invariant, with +Inf == count
        let mut out = String::new();
        histogram_samples(&mut out, "x_seconds", None, &h);
        let mut last = 0u64;
        let mut saw_inf = false;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("x_seconds_bucket{le=\"") {
                let (le, v) = rest.split_once("\"} ").expect("bucket line shape");
                let v: u64 = v.parse().expect("bucket count parses");
                assert!(v >= last, "bucket {le} went backwards");
                last = v;
                if le == "+Inf" {
                    saw_inf = true;
                    assert_eq!(v, h.count());
                }
            }
        }
        assert!(saw_inf, "+Inf bucket rendered");
    }

    #[test]
    fn bucket_ladder_resolves_the_100ms_to_1s_tail() {
        // A bare 0.1 -> 0.5 -> 1.0 ladder would put 120-400 ms in one
        // bucket and 600-900 ms in another; the 150/250/350/500/750 ms
        // bounds give each of these observations its own bucket.
        for (obs_ms, le_secs) in
            [(120, 0.15), (180, 0.25), (300, 0.35), (400, 0.5), (600, 0.75), (900, 1.0)]
        {
            let h = Histogram::default();
            h.observe(ms(obs_ms));
            let bucket = h.cumulative().iter().position(|&c| c == 1).expect("observation bucketed");
            assert_eq!(BUCKET_BOUNDS_SECS[bucket], le_secs, "{obs_ms} ms observation");
        }
    }

    #[test]
    fn cv_fold_plane_counters_render() {
        let t = Telemetry::new();
        let text = t.render();
        assert!(text.contains("# TYPE cleanml_cv_fits_total counter"), "{text}");
        assert!(text.contains("# TYPE cleanml_fold_reuse_total counter"), "{text}");
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("x\ny"), "x\\ny");
        let mut out = String::new();
        sample(&mut out, "m_total", &[("label", "we\"ird\\\n")], Value::U64(1));
        assert_eq!(out, "m_total{label=\"we\\\"ird\\\\\\n\"} 1\n");
    }

    #[test]
    fn render_emits_type_lines_and_well_formed_samples() {
        let t = Telemetry::new();
        t.tasks_local[TaskKind::Train.index()].inc();
        t.task_seconds[TaskKind::Train.index()].observe(ms(42));
        t.cache_memory_hits.add(3);
        let text = t.render();

        for family in [
            "# TYPE cleanml_tasks_executed_total counter",
            "# TYPE cleanml_task_seconds histogram",
            "# TYPE cleanml_task_queue_seconds histogram",
            "# TYPE cleanml_cache_hits_total counter",
            "# TYPE cleanml_cache_misses_total counter",
            "# TYPE cleanml_leases_active gauge",
            "# TYPE cleanml_submissions_total counter",
            "# TYPE cleanml_events_dropped_total counter",
        ] {
            assert!(text.contains(family), "missing {family}");
        }
        assert!(text.contains("cleanml_tasks_executed_total{kind=\"train\",site=\"local\"} 1\n"));
        assert!(text.contains("cleanml_tasks_executed_total{kind=\"clean\",site=\"remote\"} 0\n"));
        assert!(text.contains("cleanml_task_seconds_bucket{kind=\"train\",le=\"0.05\"} 1\n"));
        assert!(text.contains("cleanml_task_seconds_count{kind=\"train\"} 1\n"));
        assert!(text.contains("cleanml_cache_hits_total{layer=\"memory\"} 3\n"));

        // every line is a comment or a cleanml_-prefixed sample ending in a value
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE cleanml_") || line.starts_with("cleanml_"),
                "stray line: {line}"
            );
            if !line.starts_with('#') {
                let value = line.rsplit(' ').next().expect("value field");
                assert!(value.parse::<f64>().is_ok(), "unparseable value in: {line}");
            }
        }

        // each family declares its type exactly once
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut seen = std::collections::HashSet::new();
        for l in &type_lines {
            assert!(seen.insert(*l), "duplicate TYPE line: {l}");
        }
    }

    #[test]
    fn trace_buffer_writes_chrome_loadable_json() {
        let t = Telemetry::new();
        let start = Instant::now();
        // spans recorded before tracing starts are dropped
        t.span("early", "train", start, ms(1), 0, Vec::new());
        t.start_tracing();
        t.span(
            "clean outliers \"q\"",
            "clean",
            start,
            ms(7),
            3,
            vec![("sub", "1".to_string()), ("queue_ms", "0.2".to_string())],
        );
        t.span("train s0", "train", start, ms(20), 4, Vec::new());

        let path =
            std::env::temp_dir().join(format!("cleanml-trace-test-{}.json", std::process::id()));
        let n = t.write_trace(&path).expect("trace writes");
        assert_eq!(n, 2);
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);

        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"));
        assert!(text.ends_with("}]}"));
        assert!(text.contains("\"name\":\"clean outliers \\\"q\\\"\""));
        assert!(text.contains("\"cat\":\"clean\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"tid\":3"));
        assert!(text.contains("\"queue_ms\":\"0.2\""));
        assert!(!text.contains("early"));
        // crude structural check: braces balance
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn bound_formatting_drops_trailing_zeros() {
        assert_eq!(format_bound(0.001), "0.001");
        assert_eq!(format_bound(0.05), "0.05");
        assert_eq!(format_bound(1.0), "1");
        assert_eq!(format_bound(60.0), "60");
    }
}
