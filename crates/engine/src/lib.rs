//! # cleanml-engine
//!
//! The parallel study-execution engine: the layer between the `study`
//! orchestration of `cleanml-core` and the substrates.
//!
//! The serial runner walks datasets and error types in a nested loop and
//! recomputes everything on every invocation. This crate instead
//!
//! 1. **decomposes** a study into a DAG of typed tasks —
//!    `GenerateDataset`, `Context`, `Split`, `Clean(method)`,
//!    `Train(model, variant)`, `Evaluate(cell)`, `Reduce(grid)` — built
//!    from the pure task units of [`cleanml_core::tasks`] ([`graph`]);
//! 2. **schedules** independent tasks across all datasets and error types
//!    on a worker pool that claims from one ready list ([`pool`]). The
//!    pool's workers are the engine's only compute threads: each task
//!    body runs to the end on the worker that claimed it;
//! 3. **remembers** finished work in a content-addressed artifact cache —
//!    an in-memory layer that deduplicates shared work inside a run, and an
//!    optional on-disk layer under a run directory that lets repeated or
//!    resumed studies skip every finished training task ([`cache`]);
//! 4. **reports** progress (tasks queued / running / done, cache hits) on
//!    an event channel the `study` binary renders ([`event`]);
//! 5. **distributes** — with `--listen`, remote `cleanml-worker` processes
//!    join over TCP, lease ready tasks and ship artifacts back as CMAF
//!    frames; a worker killed mid-lease costs only its in-flight task
//!    ([`remote`]);
//! 6. **serves** — the [`Engine`] is a resident core: the pool, the warm
//!    memo and the store live as long as the engine, concurrent
//!    submissions ([`Engine::submit_study`], [`Engine::submit_query`])
//!    dedupe into the same in-flight tasks, and the same listener answers
//!    HTTP clients (`cleanml-query`, curl) through a bounded results
//!    gateway — `POST /studies` to submit a study or one cell,
//!    `GET /studies/:id/r1|r2|r3` to filter/order/page rows
//!    ([`remote::http`]);
//! 7. **measures** — every plane feeds a zero-dependency telemetry
//!    registry (counters, gauges, fixed-bucket latency histograms) that
//!    the hub listener exposes as Prometheus text on `GET /metrics`, and
//!    an optional Chrome trace-event span buffer written by
//!    `--trace-out` ([`telemetry`]).
//!
//! Task bodies are deterministic in their explicit seeds, and the relations
//! are assembled in plan order, so a run with any worker count — including
//! the degenerate 1-worker case — produces byte-identical R1/R2/R3
//! relations to [`cleanml_core::run_study`].
//!
//! ```no_run
//! use cleanml_engine::{Engine, EngineConfig};
//! use cleanml_core::{schema::ErrorType, ExperimentConfig};
//!
//! let mut engine = Engine::new(EngineConfig { workers: 8, ..Default::default() });
//! let db = engine
//!     .run_study(&[ErrorType::Outliers], &ExperimentConfig::quick())
//!     .expect("study");
//! println!("{} R1 rows", db.r1.len());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod event;
pub mod graph;
pub mod pool;
pub mod remote;
pub mod study;
pub mod telemetry;

pub use cache::{ArtifactCache, CacheKey, DiskStore};
pub use event::{EngineEvent, EventSink, TaskKind};
pub use graph::{TaskGraph, TaskId};
pub use pool::{Pool, RunReport, SubmissionHandle};
pub use remote::{
    parse_query, percent_decode, FaultPlan, GatewayError, Profile, RemoteHub, Select, StudySpec,
    StudyState, StudyStatus, SubmitSpec, WorkerSummary, DEFAULT_LEASE_TIMEOUT,
};
pub use study::{
    build_query_graph, build_study_graph, Artifact, CellQuery, Engine, EngineConfig,
    StudySubmission,
};
pub use telemetry::{HistogramSummary, SlowTask, StatsSnapshot, Telemetry};
