//! Decomposing a CleanML study into the typed task DAG and running it.
//!
//! For every `(error type, dataset)` of the study the builder emits
//!
//! ```text
//! GenerateDataset ─► Context ─┬─► Split(s) ─┬─► Train(dirty, k)
//!                             │             └─► Clean(m) ─► Train(clean, m, k)
//!                             │                     │             │
//!                             │                     └──────┬──────┘
//!                             │                            ▼
//!                             └─────────────────────► Evaluate(s, m, k)
//!                                                          │
//!                                  Reduce(grid) ◄──────────┘  (all cells)
//! ```
//!
//! and the scheduler executes every node across *all* datasets and error
//! types concurrently — the outer sequential loop of
//! [`cleanml_core::run_study`] becomes graph width. Task bodies are the
//! pure units of [`cleanml_core::tasks`], so any worker count reproduces
//! the serial path bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use cleanml_cleaning::{CleaningMethod, ErrorType};
use cleanml_core::runner::CellEval;
use cleanml_core::runner::Result;
use cleanml_core::study::{dataset_plan, DatasetPlan};
use cleanml_core::tasks::{self, CleanArtifact, DatasetContext, SplitArtifact, TrainedModel};
use cleanml_core::{CleanMlDb, CoreError, EvalGrid, ExperimentConfig};
use cleanml_datagen::{generate, inject_mislabel_variant, spec_by_name, GeneratedDataset};
use cleanml_ml::{Metric, ModelKind, PAPER_MODELS};

use cleanml_dataset::codec as dcodec;
use cleanml_dataset::codec::Reader;
use cleanml_dataset::{Encoder, FeatureMatrix};

use crate::cache::{ArtifactCache, CacheKey, DiskCodec, DiskStore};
use crate::event::{emit, EngineEvent, EventSink, TaskKind};
use crate::graph::{NodeState, TaskGraph, TaskId};
use crate::pool::{LeasableHold, Pool, RunReport, SubmissionHandle};
use crate::remote::http::{GatewayError, StudyState, StudyStatus, SubmitSpec};
use crate::remote::{RemoteHub, StudySpec};
use crate::telemetry;

/// One batched Evaluate result: every `(dirty model, clean model)` cell of a
/// `(dataset, split, cleaning method)` group, evaluated in model order by a
/// single task instead of a swarm of sub-millisecond singletons. Each member
/// keeps the content address its singleton `cell/…` task would have had, so
/// the submission can fan the results back into the cache and query-granular
/// [`CellQuery`] semantics are unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBatch {
    pub members: Vec<(CacheKey, CellEval)>,
}

/// Everything that flows along DAG edges. Heavy payloads sit behind `Arc`,
/// so cloning an artifact into a consumer is pointer-cheap.
#[derive(Debug, Clone)]
pub enum Artifact {
    Dataset(Arc<GeneratedDataset>),
    Context(Arc<DatasetContext>),
    Split(Arc<SplitArtifact>),
    Clean(Arc<CleanArtifact>),
    Trained(Arc<TrainedModel>),
    Cell(CellEval),
    Cells(Arc<CellBatch>),
    Grid(Arc<EvalGrid>),
}

impl Artifact {
    fn dataset(&self) -> &GeneratedDataset {
        match self {
            Artifact::Dataset(d) => d,
            other => panic!("expected dataset artifact, got {other:?}"),
        }
    }
    fn context(&self) -> &DatasetContext {
        match self {
            Artifact::Context(c) => c,
            other => panic!("expected context artifact, got {other:?}"),
        }
    }
    fn split(&self) -> &SplitArtifact {
        match self {
            Artifact::Split(s) => s,
            other => panic!("expected split artifact, got {other:?}"),
        }
    }
    fn clean(&self) -> &CleanArtifact {
        match self {
            Artifact::Clean(c) => c,
            other => panic!("expected clean artifact, got {other:?}"),
        }
    }
    fn trained(&self) -> &TrainedModel {
        match self {
            Artifact::Trained(t) => t,
            other => panic!("expected trained artifact, got {other:?}"),
        }
    }
    fn cell(&self) -> CellEval {
        match self {
            Artifact::Cell(c) => *c,
            other => panic!("expected cell artifact, got {other:?}"),
        }
    }
    fn cells(&self) -> &CellBatch {
        match self {
            Artifact::Cells(b) => b,
            other => panic!("expected cell-batch artifact, got {other:?}"),
        }
    }
    fn grid(&self) -> &Arc<EvalGrid> {
        match self {
            Artifact::Grid(g) => g,
            other => panic!("expected grid artifact, got {other:?}"),
        }
    }
}

fn encode_metric(out: &mut Vec<u8>, m: Metric) {
    match m {
        Metric::Accuracy => dcodec::push_tag(out, b'A'),
        Metric::F1 { positive } => {
            dcodec::push_tag(out, b'F');
            dcodec::push_usize(out, positive);
        }
    }
}

fn decode_metric(r: &mut Reader<'_>) -> Option<Metric> {
    match dcodec::take_tag(r)? {
        b'A' => Some(Metric::Accuracy),
        b'F' => Some(Metric::F1 { positive: dcodec::take_usize(r)? }),
        _ => None,
    }
}

/// Leading payload byte of each persisted [`Artifact`] variant — the
/// dispatch tag inside the (already version-checked) artifact frame.
mod tag {
    pub const CELL: u8 = b'C';
    pub const CELLS: u8 = b'B';
    pub const CONTEXT: u8 = b'X';
    pub const SPLIT: u8 = b'S';
    pub const CLEAN: u8 = b'K';
    pub const TRAINED: u8 = b'T';
}

fn encode_cell(out: &mut Vec<u8>, c: &CellEval) {
    dcodec::push_f64(out, c.val_dirty);
    dcodec::push_f64(out, c.val_clean);
    dcodec::push_f64(out, c.acc_b);
    match c.acc_c {
        Some(x) => {
            dcodec::push_tag(out, 1);
            dcodec::push_f64(out, x);
        }
        None => dcodec::push_tag(out, 0),
    }
    dcodec::push_f64(out, c.acc_d);
}

fn decode_cell(r: &mut Reader<'_>) -> Option<CellEval> {
    let val_dirty = dcodec::take_f64(r)?;
    let val_clean = dcodec::take_f64(r)?;
    let acc_b = dcodec::take_f64(r)?;
    let acc_c = match dcodec::take_tag(r)? {
        0 => None,
        1 => Some(dcodec::take_f64(r)?),
        _ => return None,
    };
    let acc_d = dcodec::take_f64(r)?;
    Some(CellEval { val_dirty, val_clean, acc_b, acc_c, acc_d })
}

impl DiskCodec for Artifact {
    /// Everything with a stable serial form persists: grid cells, dataset
    /// contexts, splits (the partition tables plus the dirty-side encoder
    /// and matrix), cleaned matrices and trained models. Only generated
    /// datasets (cheap, deterministic) and reduced grids (reassembled from
    /// cells) stay in memory. The payload carries no version of its own —
    /// the artifact frame the store wraps around it does.
    fn encode(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Artifact::Cell(c) => {
                dcodec::push_tag(&mut out, tag::CELL);
                encode_cell(&mut out, c);
            }
            Artifact::Cells(b) => {
                dcodec::push_tag(&mut out, tag::CELLS);
                dcodec::push_usize(&mut out, b.members.len());
                for (key, c) in &b.members {
                    dcodec::push_u64(&mut out, key.0);
                    dcodec::push_u64(&mut out, key.1);
                    encode_cell(&mut out, c);
                }
            }
            Artifact::Context(ctx) => {
                dcodec::push_tag(&mut out, tag::CONTEXT);
                encode_metric(&mut out, ctx.metric);
                dcodec::push_usize(&mut out, ctx.classes.len());
                for class in &ctx.classes {
                    dcodec::push_str(&mut out, class);
                }
            }
            Artifact::Split(s) => {
                dcodec::push_tag(&mut out, tag::SPLIT);
                dcodec::encode_table_into(&mut out, &s.train0);
                dcodec::encode_table_into(&mut out, &s.test0);
                dcodec::encode_table_into(&mut out, &s.dirty_train);
                s.enc_dirty.encode_into(&mut out);
                s.dirty_matrix.encode_into(&mut out);
            }
            Artifact::Clean(c) => {
                dcodec::push_tag(&mut out, tag::CLEAN);
                c.clean_train_m.encode_into(&mut out);
                c.clean_test_m.encode_into(&mut out);
                match &c.dirty_test_m {
                    Some(m) => {
                        dcodec::push_tag(&mut out, 1);
                        m.encode_into(&mut out);
                    }
                    None => dcodec::push_tag(&mut out, 0),
                }
                c.clean_test_for_dirty.encode_into(&mut out);
            }
            Artifact::Trained(t) => {
                dcodec::push_tag(&mut out, tag::TRAINED);
                dcodec::push_f64(&mut out, t.val);
                cleanml_ml::codec::encode_model_into(&mut out, &t.model);
            }
            _ => return None,
        }
        Some(out)
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let artifact = match dcodec::take_tag(&mut r)? {
            tag::CELL => Artifact::Cell(decode_cell(&mut r)?),
            tag::CELLS => {
                let n = dcodec::take_usize(&mut r)?;
                let mut members = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let k0 = dcodec::take_u64(&mut r)?;
                    let k1 = dcodec::take_u64(&mut r)?;
                    members.push((CacheKey(k0, k1), decode_cell(&mut r)?));
                }
                Artifact::Cells(Arc::new(CellBatch { members }))
            }
            tag::CONTEXT => {
                let metric = decode_metric(&mut r)?;
                let n = dcodec::take_usize(&mut r)?;
                let mut classes = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    classes.push(dcodec::take_str(&mut r)?);
                }
                Artifact::Context(Arc::new(DatasetContext { metric, classes }))
            }
            tag::SPLIT => {
                let train0 = dcodec::decode_table_from(&mut r)?;
                let test0 = dcodec::decode_table_from(&mut r)?;
                let dirty_train = dcodec::decode_table_from(&mut r)?;
                let enc_dirty = Encoder::decode_from(&mut r)?;
                let dirty_matrix = FeatureMatrix::decode_from(&mut r)?;
                Artifact::Split(Arc::new(SplitArtifact {
                    train0,
                    test0,
                    dirty_train,
                    enc_dirty,
                    dirty_matrix,
                }))
            }
            tag::CLEAN => {
                let clean_train_m = FeatureMatrix::decode_from(&mut r)?;
                let clean_test_m = FeatureMatrix::decode_from(&mut r)?;
                let dirty_test_m = match dcodec::take_tag(&mut r)? {
                    0 => None,
                    1 => Some(FeatureMatrix::decode_from(&mut r)?),
                    _ => return None,
                };
                let clean_test_for_dirty = FeatureMatrix::decode_from(&mut r)?;
                Artifact::Clean(Arc::new(CleanArtifact {
                    clean_train_m,
                    clean_test_m,
                    dirty_test_m,
                    clean_test_for_dirty,
                }))
            }
            tag::TRAINED => {
                let val = dcodec::take_f64(&mut r)?;
                let model = cleanml_ml::codec::decode_model_from(&mut r)?;
                Artifact::Trained(Arc::new(TrainedModel { model, val }))
            }
            _ => return None,
        };
        // trailing bytes mean the entry was not produced by this encoder
        r.is_empty().then_some(artifact)
    }

    /// Only the small artifacts enter the memo (an LRU capped at
    /// [`crate::cache::DEFAULT_MEMO_ENTRIES`] entries); splits, cleaned
    /// matrices and trained models are prefilled into their demanding
    /// nodes and dropped after their last consumer instead.
    fn promote_to_memory(&self) -> bool {
        matches!(self, Artifact::Cell(_) | Artifact::Cells(_) | Artifact::Context(_))
    }
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (`0` = all available cores).
    pub workers: usize,
    /// Run directory for the persistent cache layer; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the run directory (`--cache-max-bytes`): the disk
    /// store evicts least-recently-used artifacts to stay under it. `None`
    /// leaves the store unbounded.
    pub cache_max_bytes: Option<u64>,
    /// `--listen ADDR`: accept remote `cleanml-worker` connections on this
    /// address (`127.0.0.1:0` binds an ephemeral port, reported by
    /// [`Engine::remote_addr`]). `None` keeps execution purely local.
    pub listen: Option<String>,
    /// `--lease-timeout`: how long a leased worker may go silent (no
    /// `Done`, `Fetch` or `Heartbeat`) before its task is re-queued.
    pub lease_timeout: Duration,
    /// `--http-token`: bearer token required by the HTTP results
    /// gateway's `/studies` routes (`/metrics` stays open). `None`
    /// leaves the gateway unauthenticated — loopback deployments only.
    pub http_token: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            cache_dir: None,
            cache_max_bytes: None,
            listen: None,
            lease_timeout: crate::remote::DEFAULT_LEASE_TIMEOUT,
            http_token: None,
        }
    }
}

impl EngineConfig {
    /// Resolved worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// The resident study-execution engine: a long-lived worker pool, a warm
/// in-memory memo and the persistent artifact store, owned for the
/// engine's whole lifetime and shared by every submission.
///
/// One-shot use is unchanged — [`Engine::run_study`] builds, resolves,
/// executes and collects. But the engine also accepts many *concurrent*
/// submissions ([`Engine::submit_study`], [`Engine::submit_query`]):
/// overlapping submissions dedupe into the same in-flight tasks by
/// content address, a repeated submission answers from the warm memo
/// without executing anything, and with `listen` configured the same
/// listener serves lease-based remote workers *and* HTTP clients of the
/// results gateway, `cleanml-query` among them (see `cleanml-serve`).
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// Engine state shared with the results gateway (HTTP connection threads
/// hold a [`Weak`] to it, so a dropped engine refuses new clients instead
/// of leaking).
pub(crate) struct EngineInner {
    cache: Mutex<ArtifactCache<Artifact>>,
    store: Option<Arc<DiskStore>>,
    hub: Option<Arc<RemoteHub>>,
    pool: Pool<Artifact>,
    events: Mutex<Option<EventSink>>,
    gateway: GatewayRegistry,
}

impl Engine {
    /// Creates an engine: the worker pool spawns immediately and lives
    /// until the engine drops. A `cache_dir` that cannot be created or
    /// written to panics, naming the path: a run that looks resumable must
    /// not silently persist nothing. With `listen` set, the remote hub
    /// binds immediately (panicking on an unusable address — a
    /// misconfigured coordinator must fail loudly, not run silently
    /// local-only) and its service loop classifies connections into
    /// workers and HTTP clients for the engine's lifetime.
    pub fn new(cfg: EngineConfig) -> Self {
        let store = cfg.cache_dir.as_ref().map(|dir| {
            DiskStore::open(dir.clone(), cfg.cache_max_bytes)
                .unwrap_or_else(|e| panic!("cannot use cache directory {}: {e}", dir.display()))
        });
        let hub = cfg.listen.as_deref().map(|addr| {
            RemoteHub::bind(addr, cfg.lease_timeout)
                .unwrap_or_else(|e| panic!("cannot listen on {addr}: {e}"))
        });
        let workers = cfg.effective_workers();
        let inner = Arc::new_cyclic(|weak: &Weak<EngineInner>| {
            let mut pool: Pool<Artifact> = Pool::new(workers, store.clone());
            if let Some(hub) = &hub {
                let gateway =
                    Arc::new(EngineGateway { engine: weak.clone(), token: cfg.http_token.clone() });
                pool.serve_hub(Arc::clone(hub), gateway);
            }
            EngineInner {
                cache: Mutex::new(ArtifactCache::with_store(store.clone())),
                store: store.clone(),
                hub: hub.clone(),
                pool,
                events: Mutex::new(None),
                gateway: GatewayRegistry::default(),
            }
        });
        Engine { inner }
    }

    /// Holds leasable tasks back from the local workers until the guard
    /// drops ([`Pool::hold_leasable`]).
    pub fn hold_leasable(&self) -> LeasableHold<Artifact> {
        self.inner.pool.hold_leasable()
    }

    /// Attaches a progress-event sink (the default for submissions made
    /// through this handle).
    pub fn with_events(self, sink: EventSink) -> Self {
        *self.inner.events.lock().expect("events lock") = Some(sink);
        self
    }

    pub fn workers(&self) -> usize {
        self.inner.pool.workers()
    }

    /// The persistent artifact store, if a cache directory is configured.
    pub fn disk_store(&self) -> Option<&Arc<DiskStore>> {
        self.inner.store.as_ref()
    }

    /// The address remote workers and HTTP clients connect to, if
    /// `listen` is configured.
    pub fn remote_addr(&self) -> Option<SocketAddr> {
        self.inner.hub.as_ref().map(|h| h.local_addr())
    }

    /// Runs the full study for `error_types` through the scheduler and
    /// returns the populated, BY-corrected database — the parallel
    /// equivalent of [`cleanml_core::run_study`].
    pub fn run_study(
        &mut self,
        error_types: &[ErrorType],
        cfg: &ExperimentConfig,
    ) -> Result<CleanMlDb> {
        self.run_study_with_report(error_types, cfg).map(|(db, _)| db)
    }

    /// [`Engine::run_study`] plus the execution report (task counts, cache
    /// hits, prunes): submit, then block until collected.
    pub fn run_study_with_report(
        &mut self,
        error_types: &[ErrorType],
        cfg: &ExperimentConfig,
    ) -> Result<(CleanMlDb, RunReport)> {
        self.submit_study(error_types, cfg).wait()
    }

    /// Submits a whole study to the resident core and returns immediately
    /// with a handle. Concurrent submissions share in-flight tasks by
    /// content address.
    pub fn submit_study(
        &self,
        error_types: &[ErrorType],
        cfg: &ExperimentConfig,
    ) -> StudySubmission {
        let events = self.inner.events.lock().expect("events lock").clone();
        EngineInner::submit_study(&self.inner, error_types, cfg, events)
    }

    /// Submits a query-granular request — one `(dataset, error type,
    /// cleaning method, model)` cell instead of a whole study. Cell tasks
    /// share content addresses with the corresponding full-study tasks,
    /// so a warm engine answers from the memo.
    pub fn submit_query(
        &self,
        query: &CellQuery,
        cfg: &ExperimentConfig,
    ) -> Result<StudySubmission> {
        let events = self.inner.events.lock().expect("events lock").clone();
        EngineInner::submit_query(&self.inner, query, cfg, events)
    }
}

impl EngineInner {
    pub(crate) fn submit_study(
        self: &Arc<Self>,
        error_types: &[ErrorType],
        cfg: &ExperimentConfig,
        events: Option<EventSink>,
    ) -> StudySubmission {
        let (graph, grids) = build_study_graph(error_types, cfg);
        // Advertise the submission to remote workers only when a hub
        // exists; the spec is what a worker rebuilds its graph from.
        let spec = self
            .hub
            .as_ref()
            .map(|_| StudySpec { error_types: error_types.to_vec(), cfg: *cfg }.encode());
        self.submit_graph(graph, grids, spec, events, cfg.alpha)
    }

    pub(crate) fn submit_query(
        self: &Arc<Self>,
        query: &CellQuery,
        cfg: &ExperimentConfig,
        events: Option<EventSink>,
    ) -> Result<StudySubmission> {
        let (graph, grids) = build_query_graph(query, cfg)?;
        // Cell queries are not advertised to remote workers (their grids
        // are not study-shaped); their leasable tasks still dedupe with
        // any concurrently running study's.
        Ok(self.submit_graph(graph, grids, None, events, cfg.alpha))
    }

    fn submit_graph(
        self: &Arc<Self>,
        mut graph: TaskGraph<Artifact>,
        grids: Vec<TaskId>,
        spec: Option<Vec<u8>>,
        events: Option<EventSink>,
        alpha: f64,
    ) -> StudySubmission {
        let (cache_hits, disk_hits, pruned, to_run) =
            graph.resolve(&mut self.cache.lock().expect("cache lock"), &grids);
        let total = graph.len();
        emit(&events, EngineEvent::GraphReady { total, cache_hits, pruned, to_run });

        // Snapshot addressing info before the graph is consumed.
        let index: Vec<(CacheKey, NodeState)> =
            graph.nodes.iter().map(|n| (n.key, n.state)).collect();
        let retain: Vec<bool> = graph
            .nodes
            .iter()
            .map(|n| {
                matches!(
                    n.kind,
                    TaskKind::GenerateDataset
                        | TaskKind::Context
                        | TaskKind::Evaluate
                        | TaskKind::Reduce
                )
            })
            .collect();

        let handle = self.pool.submit(graph, retain, events, spec);
        StudySubmission {
            inner: Arc::clone(self),
            handle,
            index,
            grids,
            resolved: RunReport { cache_hits, disk_hits, pruned, total, ..RunReport::default() },
            alpha,
        }
    }
}

// ---- HTTP results gateway (submission registry) ---------------------

/// Bounds on the gateway registry: at most this many unfinished
/// submissions in flight, at most this many entries retained (finished
/// entries are evicted oldest-first when the table is full).
const MAX_GATEWAY_RUNNING: usize = 8;
const MAX_GATEWAY_ENTRIES: usize = 64;

/// How often a gateway waiter thread samples submission progress.
const GATEWAY_POLL: Duration = Duration::from_millis(50);

enum GatewayResult {
    Running,
    /// The relations and the `--cache-stats` fields of the account.
    Done(Arc<CleanMlDb>, Vec<(&'static str, u64)>),
    Failed(String),
}

/// One `POST /studies` submission (a study or one cell): progress
/// counters updated by its waiter thread, terminal state holding the
/// finished relations and the submission's account.
struct GatewayEntry {
    id: u64,
    errors: Vec<ErrorType>,
    done: AtomicU64,
    to_run: AtomicU64,
    state: Mutex<GatewayResult>,
}

impl GatewayEntry {
    fn status(&self) -> StudyStatus {
        let (state, report) = match &*self.state.lock().expect("gateway entry lock") {
            GatewayResult::Running => (StudyState::Running, None),
            GatewayResult::Done(_, stats) => (StudyState::Done, Some(stats.clone())),
            GatewayResult::Failed(e) => (StudyState::Failed(e.clone()), None),
        };
        StudyStatus {
            id: self.id,
            errors: self.errors.iter().map(|e| e.name().to_string()).collect(),
            state,
            done: self.done.load(Ordering::Relaxed),
            to_run: self.to_run.load(Ordering::Relaxed),
            report,
        }
    }

    fn running(&self) -> bool {
        matches!(*self.state.lock().expect("gateway entry lock"), GatewayResult::Running)
    }
}

/// The engine's table of HTTP-submitted studies, keyed by gateway id
/// (monotonic, starting at 1).
#[derive(Default)]
pub(crate) struct GatewayRegistry {
    table: Mutex<GatewayTable>,
}

#[derive(Default)]
struct GatewayTable {
    next_id: u64,
    entries: BTreeMap<u64, Arc<GatewayEntry>>,
}

/// What the HTTP gateway's routes talk to: a [`Weak`] engine handle (a
/// dropped engine answers 503, never a dangling pool) plus the configured
/// bearer token.
pub(crate) struct EngineGateway {
    engine: Weak<EngineInner>,
    token: Option<String>,
}

impl EngineGateway {
    /// The configured bearer token, if auth is on.
    pub(crate) fn token(&self) -> Option<String> {
        self.token.clone()
    }

    /// All retained submissions, oldest first, without their reports: the
    /// list stays one short line per study.
    pub(crate) fn list(&self) -> Vec<StudyStatus> {
        let Some(inner) = self.engine.upgrade() else { return Vec::new() };
        let table = inner.gateway.table.lock().expect("gateway lock");
        table.entries.values().map(|e| StudyStatus { report: None, ..e.status() }).collect()
    }

    /// One submission's status.
    pub(crate) fn status(&self, id: u64) -> Option<StudyStatus> {
        let inner = self.engine.upgrade()?;
        let table = inner.gateway.table.lock().expect("gateway lock");
        table.entries.get(&id).map(|e| e.status())
    }

    /// Submits a spec through the resident core; returns an id to poll.
    pub(crate) fn submit(&self, spec: SubmitSpec) -> std::result::Result<u64, GatewayError> {
        let Some(inner) = self.engine.upgrade() else { return Err(GatewayError::Unavailable) };
        let cfg = spec.config();
        let entry = {
            let mut table = inner.gateway.table.lock().expect("gateway lock");
            let running = table.entries.values().filter(|e| e.running()).count();
            if running >= MAX_GATEWAY_RUNNING {
                return Err(GatewayError::Busy);
            }
            if table.entries.len() >= MAX_GATEWAY_ENTRIES {
                // Evict the oldest finished entry; if everything retained
                // is somehow still running, refuse rather than grow.
                let oldest_done =
                    table.entries.iter().find(|(_, e)| !e.running()).map(|(id, _)| *id);
                match oldest_done {
                    Some(id) => {
                        table.entries.remove(&id);
                    }
                    None => return Err(GatewayError::Busy),
                }
            }
            table.next_id += 1;
            let entry = Arc::new(GatewayEntry {
                id: table.next_id,
                errors: spec.error_types.clone(),
                done: AtomicU64::new(0),
                to_run: AtomicU64::new(0),
                state: Mutex::new(GatewayResult::Running),
            });
            table.entries.insert(entry.id, Arc::clone(&entry));
            entry
        };
        let id = entry.id;
        let submission = match &spec.cell {
            None => inner.submit_study(&spec.error_types, &cfg, None),
            Some(query) => match inner.submit_query(query, &cfg, None) {
                Ok(submission) => submission,
                Err(e) => {
                    // The cell names something the study does not have:
                    // refused, and no entry is left behind.
                    inner.gateway.table.lock().expect("gateway lock").entries.remove(&id);
                    return Err(GatewayError::Invalid(e.to_string()));
                }
            },
        };
        let t = telemetry::global();
        if spec.cell.is_some() {
            t.submissions_cell.inc()
        } else {
            t.submissions_study.inc()
        }
        // Nothing to run: answered entirely from the warm memo and store.
        if submission.progress().1 == 0 {
            t.warm_answers.inc();
        }
        t.submissions_active.inc();
        // The waiter owns the submission (and through it a strong engine
        // handle): it samples progress until completion, then parks the
        // BY-corrected relations in the entry for `/studies/:id/r*` and
        // the account's fields for `/studies/:id`.
        let store = inner.store.clone();
        std::thread::spawn(move || {
            loop {
                let (done, to_run) = submission.progress();
                entry.done.store(done as u64, Ordering::Relaxed);
                entry.to_run.store(to_run as u64, Ordering::Relaxed);
                if submission.done() {
                    break;
                }
                std::thread::sleep(GATEWAY_POLL);
            }
            let (done, to_run) = submission.progress();
            entry.done.store(done as u64, Ordering::Relaxed);
            entry.to_run.store(to_run as u64, Ordering::Relaxed);
            let result = match submission.wait() {
                Ok((db, report)) => {
                    let totals = store.map(|s| (s.total_bytes(), s.len()));
                    GatewayResult::Done(Arc::new(db), report.stats(totals))
                }
                Err(e) => GatewayResult::Failed(e.to_string()),
            };
            *entry.state.lock().expect("gateway entry lock") = result;
            telemetry::global().submissions_active.dec();
        });
        Ok(id)
    }

    /// A finished submission's relations.
    pub(crate) fn results(&self, id: u64) -> std::result::Result<Arc<CleanMlDb>, GatewayError> {
        let Some(inner) = self.engine.upgrade() else { return Err(GatewayError::Unavailable) };
        let entry = {
            let table = inner.gateway.table.lock().expect("gateway lock");
            table.entries.get(&id).cloned()
        };
        let entry = entry.ok_or(GatewayError::NotFound)?;
        let state = entry.state.lock().expect("gateway entry lock");
        match &*state {
            GatewayResult::Running => Err(GatewayError::NotReady),
            GatewayResult::Done(db, _) => Ok(Arc::clone(db)),
            GatewayResult::Failed(e) => Err(GatewayError::Failed(e.clone())),
        }
    }
}

/// A live study (or cell-query) submission on a resident [`Engine`]:
/// progress, cancellation, and blocking collection into the BY-corrected
/// relational database.
pub struct StudySubmission {
    inner: Arc<EngineInner>,
    handle: SubmissionHandle<Artifact>,
    index: Vec<(CacheKey, NodeState)>,
    grids: Vec<TaskId>,
    /// What graph resolution counted: cache and disk hits, prunes, total.
    resolved: RunReport,
    alpha: f64,
}

impl StudySubmission {
    /// Whether the submission has completed, failed or been cancelled.
    pub fn done(&self) -> bool {
        self.handle.done()
    }

    /// `(finished, to_run)` task counts.
    pub fn progress(&self) -> (usize, usize) {
        self.handle.progress()
    }

    /// Cancels the submission: its exclusive subgraph is released; tasks
    /// shared with other live submissions keep running for them.
    pub fn cancel(&self) {
        self.handle.cancel()
    }

    pub fn cache_hits(&self) -> usize {
        self.resolved.cache_hits
    }

    /// Blocks until every task of the submission has finished, then
    /// assembles and BY-corrects the relational database; the report is
    /// the submission's whole account.
    pub fn wait(self) -> Result<(CleanMlDb, RunReport)> {
        let StudySubmission { inner, handle, index, grids, resolved, alpha } = self;
        let (artifacts, mut report) = handle.wait()?;

        // The memo keeps every freshly produced, retained artifact; the pool
        // persisted each one when its task finished. Cell batches
        // additionally fan their members out under the singleton `cell/…`
        // addresses (new store entries, credited to this submission),
        // keeping query-granular warm hits intact.
        {
            let mut cache = inner.cache.lock().expect("cache lock");
            for (id, artifact) in artifacts.iter().enumerate() {
                if index[id].1 == NodeState::Run {
                    if let Some(a) = artifact {
                        cache.remember(index[id].0, Arc::clone(a));
                        if let Artifact::Cells(batch) = &**a {
                            for &(key, cell) in &batch.members {
                                report.count_store(cache.put(key, &Arc::new(Artifact::Cell(cell))));
                            }
                        }
                    }
                }
            }
        }

        let mut db = CleanMlDb::default();
        for &gid in &grids {
            let grid = artifacts[gid]
                .as_ref()
                .ok_or_else(|| CoreError::Stats("grid artifact missing after run".into()))?
                .grid();
            db.r1.extend(grid.r1_rows()?);
            db.r2.extend(grid.r2_rows()?);
            db.r3.extend(grid.r3_rows()?);
        }
        db.apply_benjamini_yekutieli(alpha);

        report.cache_hits = resolved.cache_hits;
        report.disk_hits = resolved.disk_hits;
        report.pruned = resolved.pruned;
        report.total = resolved.total;
        Ok((db, report))
    }
}

/// Builds the complete study DAG for `error_types` under `cfg` and returns
/// it with the grid (reduce) sink of every dataset × error-type pair.
///
/// Every content address is flat: a task's canonical string holds its own
/// parameters and names each input task by that task's key, in the chain
/// `gen`/`var` → `ctx` and `split/{dataset}` → `traind/{split}` and
/// `clean/{split}` → `trainc/{clean}` → `cell/{traind}|{trainc}` →
/// `cells/{member cells}` → `grid/{dataset}`. So each description is
/// rendered and hashed once, and a key still changes whenever anything
/// upstream of it does.
///
/// This is deliberately a pure function of its arguments: the coordinator
/// and every remote worker call it with the same [`StudySpec`]-shipped
/// inputs and obtain graphs whose content addresses agree bit for bit —
/// a lease names its task only by content address, and the worker finds
/// the node by it.
pub fn build_study_graph(
    error_types: &[ErrorType],
    cfg: &ExperimentConfig,
) -> (TaskGraph<Artifact>, Vec<TaskId>) {
    let mut graph: TaskGraph<Artifact> = TaskGraph::new();
    let mut grids: Vec<TaskId> = Vec::new();
    for &et in error_types {
        for plan in dataset_plan(et, cfg.base_seed) {
            grids.push(build_grid_tasks(&mut graph, &plan, et, *cfg));
        }
    }
    (graph, grids)
}

/// One `(dataset, error type, cleaning method, model)` cell of the study
/// grid, addressable without running the rest of the study. Names match
/// the catalogue (`Detection::name` / `Repair::name` / `ModelKind::name`)
/// and the dataset plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CellQuery {
    pub error_type: ErrorType,
    pub dataset: String,
    pub detection: String,
    pub repair: String,
    pub model: String,
}

/// Builds the 1×1 grid DAG for one cell and returns it with its reduce
/// sink.
///
/// The cell keeps the *full-study* method and model indices in every seed
/// and content address, so its `Split`/`Clean`/`Train`/`Evaluate` tasks
/// are byte-for-byte the same tasks a whole study of this configuration
/// would run — a warm engine answers a cell query from the memo, and a
/// cold cell query pre-warms the study.
pub fn build_query_graph(
    q: &CellQuery,
    cfg: &ExperimentConfig,
) -> Result<(TaskGraph<Artifact>, Vec<TaskId>)> {
    let et = q.error_type;
    let plan = dataset_plan(et, cfg.base_seed)
        .into_iter()
        .find(|p| p.name == q.dataset)
        .ok_or_else(|| {
            CoreError::Unsupported(format!(
                "unknown dataset '{}' for error type {}",
                q.dataset,
                et.name()
            ))
        })?;
    let method = CleaningMethod::catalogue(et)
        .into_iter()
        .enumerate()
        .find(|(_, m)| m.detection.name() == q.detection && m.repair.name() == q.repair)
        .ok_or_else(|| {
            CoreError::Unsupported(format!(
                "unknown cleaning method '{}-{}' for error type {}",
                q.detection,
                q.repair,
                et.name()
            ))
        })?;
    let model = PAPER_MODELS
        .iter()
        .enumerate()
        .find(|(_, k)| k.name() == q.model)
        .map(|(ki, &k)| (ki, k))
        .ok_or_else(|| CoreError::Unsupported(format!("unknown model '{}'", q.model)))?;

    let mut graph: TaskGraph<Artifact> = TaskGraph::new();
    let scope = GridScope {
        methods: vec![method],
        models: vec![model],
        n_models_full: PAPER_MODELS.len(),
        subset: true,
    };
    let grid = build_grid_tasks_scoped(&mut graph, &plan, et, *cfg, scope);
    Ok((graph, vec![grid]))
}

/// Which slice of the method × model grid to emit. Indices are positions
/// in the *full* catalogue/model list — they parameterize seeds and
/// content addresses, so a subset cell is the same task as its full-study
/// counterpart.
struct GridScope {
    methods: Vec<(usize, CleaningMethod)>,
    models: Vec<(usize, ModelKind)>,
    n_models_full: usize,
    /// Subset grids get their own reduce content address (a 1×1 grid is
    /// not the full grid artifact).
    subset: bool,
}

impl GridScope {
    fn full(et: ErrorType) -> GridScope {
        GridScope {
            methods: CleaningMethod::catalogue(et).into_iter().enumerate().collect(),
            models: PAPER_MODELS.iter().copied().enumerate().collect(),
            n_models_full: PAPER_MODELS.len(),
            subset: false,
        }
    }
}

/// Emits all tasks of one dataset × error-type grid; returns the reduce
/// node.
fn build_grid_tasks(
    g: &mut TaskGraph<Artifact>,
    plan: &DatasetPlan,
    et: ErrorType,
    cfg: ExperimentConfig,
) -> TaskId {
    build_grid_tasks_scoped(g, plan, et, cfg, GridScope::full(et))
}

/// Renders a flat canonical description into `buf`, which one grid's
/// tasks share, and hashes it.
fn key_of(buf: &mut String, description: std::fmt::Arguments<'_>) -> CacheKey {
    buf.clear();
    let _ = buf.write_fmt(description);
    CacheKey::of(buf)
}

/// Emits the tasks of one dataset × error-type grid restricted to
/// `scope`'s methods × models; returns the reduce node.
///
/// Each content address hashes a flat canonical string: the task's own
/// parameters (seeds and float parameters as exact bit patterns, so a key
/// never aliases across configs) plus the 32-hex-digit keys of the tasks
/// it reads, never their descriptions. Labels name tasks for people and
/// traces and play no part in any address.
fn build_grid_tasks_scoped(
    g: &mut TaskGraph<Artifact>,
    plan: &DatasetPlan,
    et: ErrorType,
    cfg: ExperimentConfig,
    scope: GridScope,
) -> TaskId {
    let GridScope { methods, models, n_models_full, subset } = scope;
    let (n_methods, n_models) = (methods.len(), models.len());
    let mut buf = String::with_capacity(128);
    let budget = format!("bud{}x{}", cfg.search.n_candidates, cfg.search.cv_folds);
    let method_names: Vec<String> = methods
        .iter()
        .map(|(_, m)| format!("{}-{}", m.detection.name(), m.repair.name()))
        .collect();

    // GenerateDataset: the base spec, plus the injection step for mislabel
    // variants. Base generation is shared across variants and error types
    // through content-addressed dedup.
    let base_cname = format!("gen/{}/{:016x}", plan.spec_name, plan.seed);
    let base_key = CacheKey::of(&base_cname);
    let (spec_name, seed) = (plan.spec_name, plan.seed);
    let base_id =
        g.task(TaskKind::GenerateDataset, base_cname.clone(), base_key, vec![], move |_| {
            let spec = spec_by_name(spec_name).expect("known dataset spec");
            Ok(Artifact::Dataset(Arc::new(generate(spec, seed))))
        });
    let (data_id, data_key, dname) = match plan.variant {
        None => (base_id, base_key, base_cname),
        Some((strategy, vseed)) => {
            let suffix = strategy.suffix();
            let key = key_of(&mut buf, format_args!("var/{base_key}/{suffix}/{vseed:016x}"));
            let dname = format!("var/{base_cname}/{suffix}/{vseed:016x}");
            let id =
                g.task(TaskKind::GenerateDataset, dname.clone(), key, vec![base_id], move |d| {
                    Ok(Artifact::Dataset(Arc::new(inject_mislabel_variant(
                        d[0].dataset(),
                        strategy,
                        vseed,
                    ))))
                });
            (id, key, dname)
        }
    };

    let ctx_id = g.task(
        TaskKind::Context,
        format!("ctx/{dname}"),
        key_of(&mut buf, format_args!("ctx/{data_key}")),
        vec![data_id],
        |d| Ok(Artifact::Context(Arc::new(tasks::dataset_context(d[0].dataset())?))),
    );

    let mut cell_ids: Vec<TaskId> = Vec::with_capacity(cfg.n_splits * n_methods * n_models);
    for s in 0..cfg.n_splits {
        // every label of this split reads `{kind}/{at}…`
        let at = format!("{}/{}/s{s}", plan.name, et.name());
        let split_key = key_of(
            &mut buf,
            format_args!(
                "split/{data_key}/{}/s{s}/frac{:016x}/seed{:016x}",
                et.name(),
                cfg.test_fraction.to_bits(),
                cfg.split_seed(s),
            ),
        );
        let split_id = g.task(
            TaskKind::Split,
            format!("split/{at}"),
            split_key,
            vec![data_id, ctx_id],
            move |d| {
                Ok(Artifact::Split(Arc::new(tasks::make_split(
                    d[0].dataset(),
                    et,
                    d[1].context(),
                    &cfg,
                    s,
                )?)))
            },
        );
        let fit_seed = cfg.fit_seed(s);

        let dirty: Vec<(TaskId, CacheKey)> = models
            .iter()
            .map(|&(ki, kind)| {
                let key = key_of(
                    &mut buf,
                    format_args!(
                        "traind/{split_key}/{}/seed{:016x}/{budget}",
                        kind.name(),
                        fit_seed.wrapping_add(ki as u64),
                    ),
                );
                let id = g.task(
                    TaskKind::Train,
                    format!("train/{at}/dirty/{}", kind.name()),
                    key,
                    vec![split_id, ctx_id],
                    move |d| {
                        Ok(Artifact::Trained(Arc::new(tasks::train_dirty(
                            kind,
                            ki,
                            d[0].split(),
                            d[1].context(),
                            &cfg,
                            fit_seed,
                        )?)))
                    },
                );
                (id, key)
            })
            .collect();

        for (&(mi, method), mname) in methods.iter().zip(&method_names) {
            let clean_key = key_of(
                &mut buf,
                format_args!(
                    "clean/{split_key}/{mname}/seed{:016x}",
                    fit_seed.wrapping_add(1000 + mi as u64),
                ),
            );
            let clean_id = g.task(
                TaskKind::Clean,
                format!("clean/{at}/{mname}"),
                clean_key,
                vec![split_id, ctx_id],
                move |d| {
                    Ok(Artifact::Clean(Arc::new(tasks::make_clean(
                        &method,
                        mi,
                        et,
                        d[0].split(),
                        d[1].context(),
                        fit_seed,
                    )?)))
                },
            );

            // (dirty id, tclean id, singleton cell key) per model — full
            // grids fuse these into one batched Evaluate below.
            let mut members: Vec<(TaskId, TaskId, CacheKey)> = Vec::with_capacity(n_models);
            for (&(ki, kind), &(dirty_id, dirty_key)) in models.iter().zip(&dirty) {
                let tclean_key = key_of(
                    &mut buf,
                    format_args!(
                        "trainc/{clean_key}/{}/seed{:016x}/{budget}",
                        kind.name(),
                        fit_seed.wrapping_add(2000 + (mi * n_models_full + ki) as u64),
                    ),
                );
                let tclean_id = g.task(
                    TaskKind::Train,
                    format!("train/{at}/{mname}/{}", kind.name()),
                    tclean_key,
                    vec![clean_id, ctx_id],
                    move |d| {
                        Ok(Artifact::Trained(Arc::new(tasks::train_clean(
                            kind,
                            ki,
                            mi,
                            n_models_full,
                            d[0].clean(),
                            d[1].context(),
                            &cfg,
                            fit_seed,
                        )?)))
                    },
                );

                let cell_key = key_of(&mut buf, format_args!("cell/{dirty_key}|{tclean_key}"));
                if subset {
                    // Query-granular grids keep singleton Evaluate tasks at
                    // the same content addresses as always, so a warm memo
                    // (fanned out from a full study's batches) answers them.
                    let cell_id = g.task(
                        TaskKind::Evaluate,
                        format!("cell/{at}/m{mi}/{}", kind.name()),
                        cell_key,
                        vec![dirty_id, tclean_id, clean_id, ctx_id],
                        move |d| {
                            Ok(Artifact::Cell(tasks::evaluate_cell(
                                d[0].trained(),
                                d[1].trained(),
                                d[2].clean(),
                                d[3].context(),
                            )?))
                        },
                    );
                    cell_ids.push(cell_id);
                } else {
                    members.push((dirty_id, tclean_id, cell_key));
                }
            }

            if !subset {
                // One fused Evaluate per (dataset, split, cleaning method):
                // its content address names the member cells' keys, and the
                // artifact carries each member's singleton address so the
                // results fan back into the cache at collection time.
                buf.clear();
                buf.push_str("cells");
                let mut deps = Vec::with_capacity(2 + 2 * members.len());
                deps.extend([clean_id, ctx_id]);
                for &(dirty_id, tclean_id, key) in &members {
                    let _ = write!(buf, "/{key}");
                    deps.extend([dirty_id, tclean_id]);
                }
                let member_keys: Vec<CacheKey> = members.iter().map(|m| m.2).collect();
                let batch_id = g.task(
                    TaskKind::Evaluate,
                    format!("cells/{at}/m{mi}"),
                    CacheKey::of(&buf),
                    deps,
                    move |d| {
                        let mut out = Vec::with_capacity(member_keys.len());
                        for (k, &key) in member_keys.iter().enumerate() {
                            let cell = tasks::evaluate_cell(
                                d[2 + 2 * k].trained(),
                                d[3 + 2 * k].trained(),
                                d[0].clean(),
                                d[1].context(),
                            )?;
                            out.push((key, cell));
                        }
                        Ok(Artifact::Cells(Arc::new(CellBatch { members: out })))
                    },
                );
                cell_ids.push(batch_id);
            }
        }
    }

    let grid_cname = if subset {
        // a sliced grid is a different artifact from the full one — its
        // content address names the selected full-catalogue indices
        let mi_list: Vec<String> = methods.iter().map(|(mi, _)| mi.to_string()).collect();
        let ki_list: Vec<String> = models.iter().map(|(ki, _)| ki.to_string()).collect();
        format!(
            "gridsub/{data_key}/{}/splits{}/frac{:016x}/base{:016x}/{budget}/m{}/k{}",
            et.name(),
            cfg.n_splits,
            cfg.test_fraction.to_bits(),
            cfg.base_seed,
            mi_list.join("-"),
            ki_list.join("-"),
        )
    } else {
        format!(
            "grid/{data_key}/{}/splits{}/frac{:016x}/base{:016x}/{budget}/methods{}/models{}",
            et.name(),
            cfg.n_splits,
            cfg.test_fraction.to_bits(),
            cfg.base_seed,
            n_methods,
            n_models,
        )
    };
    let mut deps = vec![ctx_id];
    deps.extend(&cell_ids);
    let dataset_name = plan.name.clone();
    let methods_owned: Vec<CleaningMethod> = methods.iter().map(|&(_, m)| m).collect();
    let models_owned: Vec<ModelKind> = models.iter().map(|&(_, k)| k).collect();
    let n_splits = cfg.n_splits;
    g.task(
        TaskKind::Reduce,
        format!("grid/{}/{}", plan.name, et.name()),
        CacheKey::of(&grid_cname),
        deps,
        move |d| {
            let metric = d[0].context().metric;
            let mut cells: Vec<Vec<Vec<CellEval>>> = Vec::with_capacity(n_splits);
            let mut it = d[1..].iter();
            for _ in 0..n_splits {
                let mut per_split = Vec::with_capacity(methods_owned.len());
                for _ in 0..methods_owned.len() {
                    // Full grids deliver one batch per (split, method) with
                    // the models in order; subset grids deliver singleton
                    // cells in the same model order.
                    if subset {
                        let mut row = Vec::with_capacity(models_owned.len());
                        for _ in 0..models_owned.len() {
                            row.push(it.next().expect("cell count matches").cell());
                        }
                        per_split.push(row);
                    } else {
                        let batch = it.next().expect("batch count matches").cells();
                        per_split.push(batch.members.iter().map(|&(_, c)| c).collect());
                    }
                }
                cells.push(per_split);
            }
            Ok(Artifact::Grid(Arc::new(EvalGrid::from_parts(
                dataset_name,
                et,
                methods_owned,
                models_owned,
                metric,
                cells,
            )?)))
        },
    )
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn artifact_codec_round_trips() {
        let cell = Artifact::Cell(CellEval {
            val_dirty: 0.75,
            val_clean: 0.8,
            acc_b: 0.7,
            acc_c: None,
            acc_d: 0.9,
        });
        let decoded = Artifact::decode(&cell.encode().unwrap()).unwrap();
        assert_eq!(decoded.cell(), cell.cell());

        let cell_cd = Artifact::Cell(CellEval {
            val_dirty: 0.1,
            val_clean: 0.2,
            acc_b: 0.3,
            acc_c: Some(0.4),
            acc_d: 0.5,
        });
        let decoded = Artifact::decode(&cell_cd.encode().unwrap()).unwrap();
        assert_eq!(decoded.cell(), cell_cd.cell());

        let ctx = Artifact::Context(Arc::new(DatasetContext {
            metric: Metric::F1 { positive: 1 },
            classes: vec!["no".into(), "yes with space".into(), String::new()],
        }));
        let decoded = Artifact::decode(&ctx.encode().unwrap()).unwrap();
        assert_eq!(decoded.context(), ctx.context());

        assert!(Artifact::decode(b"nonsense").is_none());
        assert!(Artifact::decode(b"").is_none());
        // truncations and trailing bytes are misses, not panics
        let bytes = ctx.encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(Artifact::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(Artifact::decode(&long).is_none(), "trailing byte");
    }

    #[test]
    fn trained_model_codec_round_trips() {
        let trained = Artifact::Trained(Arc::new(TrainedModel {
            model: cleanml_ml::ModelSpec::default_for(ModelKind::NaiveBayes)
                .fit(
                    &cleanml_dataset::FeatureMatrix::from_parts(
                        vec![0.0, 1.0, 0.0, 1.0],
                        4,
                        1,
                        vec![0, 1, 0, 1],
                        2,
                    ),
                    1,
                )
                .unwrap(),
            val: 0.5,
        }));
        let bytes = trained.encode().expect("trained models persist");
        assert_eq!(bytes[0], b'T');
        let back = Artifact::decode(&bytes).expect("decode");
        assert_eq!(back.trained(), trained.trained());
        assert!(!trained.promote_to_memory(), "heavy artifacts stay out of the memory map");
        assert!(Artifact::decode(b"T\x01\x02").is_none());
    }

    #[test]
    fn split_and_clean_codecs_round_trip() {
        use cleanml_datagen::{generate, spec_by_name};
        let data = generate(spec_by_name("Sensor").unwrap(), 11);
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        let et = ErrorType::Outliers;
        let ctx = tasks::dataset_context(&data).unwrap();
        let split = tasks::make_split(&data, et, &ctx, &cfg, 0).unwrap();
        let method = CleaningMethod::catalogue(et)[0];
        let clean = tasks::make_clean(&method, 0, et, &split, &ctx, cfg.fit_seed(0)).unwrap();

        let split_art = Artifact::Split(Arc::new(split));
        let bytes = split_art.encode().expect("splits persist");
        assert_eq!(bytes[0], b'S');
        let back = Artifact::decode(&bytes).expect("decode split");
        assert_eq!(back.split(), split_art.split());
        assert!(!split_art.promote_to_memory());

        let clean_art = Artifact::Clean(Arc::new(clean));
        let bytes = clean_art.encode().expect("cleaned matrices persist");
        assert_eq!(bytes[0], b'K');
        let back = Artifact::decode(&bytes).expect("decode clean");
        assert_eq!(back.clean(), clean_art.clean());

        // missing-values cleans carry no dirty-test matrix: the absent arm
        let et = ErrorType::MissingValues;
        let split = tasks::make_split(&data, et, &ctx, &cfg, 1).unwrap();
        let method = CleaningMethod::catalogue(et)[0];
        let clean = tasks::make_clean(&method, 0, et, &split, &ctx, cfg.fit_seed(1)).unwrap();
        assert!(clean.dirty_test_m.is_none());
        let clean_art = Artifact::Clean(Arc::new(clean));
        let back = Artifact::decode(&clean_art.encode().unwrap()).expect("decode clean -");
        assert_eq!(back.clean(), clean_art.clean());

        // generated datasets still have no serial form
        assert!(Artifact::Dataset(Arc::new(data)).encode().is_none());
    }

    #[test]
    fn grid_graph_has_expected_shape() {
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        let mut g: TaskGraph<Artifact> = TaskGraph::new();
        let plans = dataset_plan(ErrorType::Inconsistencies, cfg.base_seed);
        let grid = build_grid_tasks(&mut g, &plans[0], ErrorType::Inconsistencies, cfg);
        // 1 generate + 1 ctx + per split (1 split + 7 dirty train + 1 method
        // × (1 clean + 7 train + 1 fused evaluate batch)) + 1 reduce
        let expected = 2 + 2 * (1 + 7 + 1 + 7 + 1) + 1;
        assert_eq!(g.len(), expected);
        assert_eq!(grid, g.len() - 1);
    }

    #[test]
    fn cell_batch_codec_round_trips() {
        let batch = Artifact::Cells(Arc::new(CellBatch {
            members: vec![
                (
                    CacheKey::of("cell/a"),
                    CellEval {
                        val_dirty: 0.1,
                        val_clean: 0.2,
                        acc_b: 0.3,
                        acc_c: None,
                        acc_d: 0.4,
                    },
                ),
                (
                    CacheKey::of("cell/b"),
                    CellEval {
                        val_dirty: 0.5,
                        val_clean: 0.6,
                        acc_b: 0.7,
                        acc_c: Some(0.8),
                        acc_d: 0.9,
                    },
                ),
            ],
        }));
        let bytes = batch.encode().expect("batches persist");
        assert_eq!(bytes[0], b'B');
        let back = Artifact::decode(&bytes).expect("decode");
        assert_eq!(back.cells(), batch.cells());
        assert!(batch.promote_to_memory(), "batches stay warm in the memo");
        // truncations are misses, not panics
        for cut in 0..bytes.len() {
            assert!(Artifact::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn shared_base_dataset_is_deduplicated() {
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        let mut g: TaskGraph<Artifact> = TaskGraph::new();
        let plans = dataset_plan(ErrorType::Mislabels, cfg.base_seed);
        // EEGuniform and EEGmajor share the EEG base generation task.
        let eeg_variants: Vec<&DatasetPlan> =
            plans.iter().filter(|p| p.spec_name == "EEG").collect();
        assert!(eeg_variants.len() >= 2);
        build_grid_tasks(&mut g, eeg_variants[0], ErrorType::Mislabels, cfg);
        let before = g.len();
        build_grid_tasks(&mut g, eeg_variants[1], ErrorType::Mislabels, cfg);
        let gen_nodes = g
            .nodes
            .iter()
            .filter(|n| n.kind == TaskKind::GenerateDataset && n.label.starts_with("gen/EEG"))
            .count();
        assert_eq!(gen_nodes, 1, "base generation emitted once");
        assert!(g.len() > before, "variant still adds its own tasks");
    }

    /// The quick profile's whole study (five error types, two splits), as
    /// CI and the benchmark run it.
    fn quick_study_graph() -> TaskGraph<Artifact> {
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        build_study_graph(&ErrorType::all(), &cfg).0
    }

    /// An order-independent digest: the items sorted, then hashed as one
    /// newline-separated string.
    fn digest(mut items: Vec<String>) -> CacheKey {
        items.sort_unstable();
        CacheKey::of(&items.join("\n"))
    }

    /// Every store is named by these keys. A change to any of them leaves
    /// every existing store cold and remote workers of other builds unable
    /// to find a leased task: it has to be declared, with a new
    /// `PROTOCOL_VERSION`, when this pin is updated.
    #[test]
    fn quick_study_keys_are_pinned() {
        let g = quick_study_graph();
        assert_eq!(g.len(), 2505);
        let keys = g.nodes.iter().map(|n| n.key.to_string()).collect();
        assert_eq!(digest(keys), CacheKey(0xf304_b9e5_66fd_d920, 0xdc3e_68fc_8acc_694e));
    }

    /// Labels name tasks in progress events, traces and the slowest-tasks
    /// table, independently of the keys.
    #[test]
    fn quick_study_labels_are_pinned() {
        let g = quick_study_graph();
        let labels = g.nodes.iter().map(|n| n.label.clone()).collect();
        assert_eq!(digest(labels), CacheKey(0x0434_cd5c_1057_84d5, 0x9683_eceb_159e_2266));
    }

    /// A cell query's tasks are the study's own: every input of its cell
    /// has a key in the study's graph, and the cell's key is a member of
    /// the study's fused batch, so a warm engine answers the query from the
    /// batch fanned out into the memo.
    #[test]
    fn every_cell_query_reuses_the_study_keys() {
        let cfg = ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() };
        let ets = [ErrorType::Inconsistencies, ErrorType::Duplicates];
        let (study, _) = build_study_graph(&ets, &cfg);
        // a batch's deps are its clean and context, then one (dirty,
        // trained-on-clean) pair per member, whose keys name the member
        let mut members = HashSet::new();
        for batch in study.nodes.iter().filter(|n| n.kind == TaskKind::Evaluate) {
            let mut cname = String::from("cells");
            for pair in batch.deps[2..].chunks(2) {
                let (dirty, tclean) = (study.nodes[pair[0]].key, study.nodes[pair[1]].key);
                let member = CacheKey::of(&format!("cell/{dirty}|{tclean}"));
                cname.push_str(&format!("/{member}"));
                members.insert(member);
            }
            assert_eq!(batch.key, CacheKey::of(&cname), "{} names its members", batch.label);
        }

        let (mut queries, mut cells) = (0, 0);
        for et in ets {
            for plan in dataset_plan(et, cfg.base_seed) {
                for method in CleaningMethod::catalogue(et) {
                    for kind in PAPER_MODELS {
                        let q = CellQuery {
                            error_type: et,
                            dataset: plan.name.clone(),
                            detection: method.detection.name().into(),
                            repair: method.repair.name().into(),
                            model: kind.name().into(),
                        };
                        let (g, _) = build_query_graph(&q, &cfg).expect("a study cell");
                        queries += 1;
                        for n in &g.nodes {
                            match n.kind {
                                TaskKind::Reduce => {}
                                TaskKind::Evaluate => {
                                    assert!(members.contains(&n.key), "{} is in no batch", n.label);
                                    cells += 1;
                                }
                                _ => assert!(
                                    study.by_key.contains_key(&n.key),
                                    "{} is not a study task",
                                    n.label
                                ),
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cells, queries * cfg.n_splits);
        assert_eq!(members.len(), cells, "each cell is one batch member");
    }
}
