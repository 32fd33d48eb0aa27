//! Progress and telemetry events emitted while a study executes.

use std::sync::mpsc::Sender;

/// The typed task categories of the study DAG (paper protocol steps plus
/// the engine's own bookkeeping nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Generate a synthetic dataset (or inject a mislabel variant).
    GenerateDataset,
    /// Derive the per-dataset metric / label-class context.
    Context,
    /// Seeded 70/30 split plus the dirty-side baseline.
    Split,
    /// Fit one cleaning method and encode its evaluation matrices.
    Clean,
    /// Train one model family (dirty- or clean-side) with its search budget.
    Train,
    /// Score one (split, method, model) cell on cases B/C/D.
    Evaluate,
    /// Assemble an [`cleanml_core::EvalGrid`] from its cells.
    Reduce,
}

impl TaskKind {
    pub const ALL: [TaskKind; 7] = [
        TaskKind::GenerateDataset,
        TaskKind::Context,
        TaskKind::Split,
        TaskKind::Clean,
        TaskKind::Train,
        TaskKind::Evaluate,
        TaskKind::Reduce,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TaskKind::GenerateDataset => "generate",
            TaskKind::Context => "context",
            TaskKind::Split => "split",
            TaskKind::Clean => "clean",
            TaskKind::Train => "train",
            TaskKind::Evaluate => "evaluate",
            TaskKind::Reduce => "reduce",
        }
    }

    /// Dispatch weight of one task of this kind: seeded tasks, released
    /// dependents and remote lease claims all go heaviest-first. The order
    /// (Train ≫ Clean ≫ Split ≫ the bookkeeping kinds) is a policy, not a
    /// runtime estimate — a quick-study Clean task takes longer on average
    /// than a Train task. On the cold quick study (2 vCPU) it held peak RSS
    /// about 7 MiB below an order learned from observed runtimes, at the
    /// same wall time.
    pub fn cost_weight(self) -> u32 {
        match self {
            TaskKind::Train => 1000,
            TaskKind::Clean => 100,
            TaskKind::Split => 40,
            TaskKind::GenerateDataset => 20,
            TaskKind::Context => 4,
            TaskKind::Evaluate => 2,
            TaskKind::Reduce => 1,
        }
    }
}

/// One progress event. Sent best-effort: a dropped receiver never fails the
/// run.
#[derive(Debug, Clone)]
pub enum EngineEvent {
    /// The DAG is built and resolved against the cache.
    GraphReady {
        /// Total tasks in the DAG.
        total: usize,
        /// Tasks satisfied directly from the cache.
        cache_hits: usize,
        /// Tasks skipped because nothing downstream demands them (their
        /// consumers were cache hits).
        pruned: usize,
        /// Tasks that will execute.
        to_run: usize,
    },
    /// A worker picked the task up.
    TaskStarted { id: usize, kind: TaskKind, label: String },
    /// The task finished (`ok == false` means it errored and the run is
    /// aborting).
    TaskFinished { id: usize, kind: TaskKind, ok: bool },
    /// A remote worker completed the protocol handshake and joined the
    /// run's ready frontier.
    WorkerJoined { worker: String },
    /// A lease died — deadline missed or connection dropped — and its task
    /// re-entered the ready frontier for someone else to claim.
    LeaseExpired { worker: String, id: usize, kind: TaskKind },
    /// A remote worker's session ended (orderly or not) after completing
    /// `completed` leased tasks.
    WorkerLeft { worker: String, completed: usize },
    /// The whole run completed.
    RunFinished,
}

/// Where events go.
pub type EventSink = Sender<EngineEvent>;

/// Best-effort send. A failed send (receiver dropped or never drained)
/// is counted in the telemetry registry instead of vanishing, and the
/// count is surfaced as `cleanml_events_dropped_total` on `/metrics`.
pub fn emit(sink: &Option<EventSink>, event: EngineEvent) {
    if let Some(s) = sink {
        if s.send(event).is_err() {
            crate::telemetry::global().events_dropped.inc();
        }
    }
}
