//! The resident execution core: a long-lived worker pool serving many
//! concurrent, content-address-deduplicated submissions.
//!
//! A [`Pool`] owns its worker threads and its ready frontier for its
//! whole lifetime, and accepts any number of overlapping [`Pool::submit`]
//! calls:
//!
//! * every submission's graph is **merged** into one resident task table
//!   keyed by content address — two concurrent submissions demanding the
//!   same `Train` task share a single in-flight entry rather than
//!   computing it twice, and a later submission reuses a finished entry's
//!   artifact straight from memory;
//! * scheduling state is **per task**, completion bookkeeping is **per
//!   submission**: each submission tracks its own remaining count, event
//!   sink and execution counters, so progress, results, failures and
//!   cancellation are isolated — a task body error fails exactly the
//!   submissions demanding that task, and a [`SubmissionHandle::cancel`]
//!   releases its subgraph without disturbing anything shared;
//! * artifact lifetimes are refcounted across submissions: an entry holds
//!   its artifact while a runnable consumer or an uncollected retaining
//!   submission still needs it, then drops it. A later submission that
//!   demands it again finds it in the memo or on disk, or re-runs it.
//!
//! Ready tasks wait in one list under the one scheduler lock. A local
//! worker pops the newest; a remote lease thread
//! ([`crate::remote::coordinator`]) takes the heaviest leasable task of
//! its spec. Seeds and released dependents are pushed so that the heaviest
//! by their kind's static [`TaskKind::cost_weight`] pops first.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cleanml_core::CoreError;
use cleanml_dataset::codec::fnv1a64;

use crate::cache::{CacheKey, DiskCodec, DiskStore};
use crate::event::{emit, EngineEvent, EventSink, TaskKind};
use crate::graph::{NodeState, TaskFn, TaskGraph};
use crate::remote::coordinator::spawn_hub_service;
use crate::remote::RemoteHub;
use crate::study::EngineGateway;
use crate::telemetry::NKINDS;

/// Index of a task in the resident table (distinct from a submission
/// graph's [`crate::graph::TaskId`]: entries persist across submissions).
/// It is the `id` of every [`EngineEvent`] about the task.
pub(crate) type Gid = usize;

/// Submission identifier, unique per pool.
pub type SubId = u64;

/// One submission's account: what ran for it, where, and what the cache
/// and the store did for it. Each figure is counted where it happens and
/// credited to the submission a task ran for, so concurrent submissions
/// on one engine each get their own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Tasks executed on the local pool, by kind.
    pub executed: Vec<(TaskKind, usize)>,
    /// Tasks executed by remote workers, by kind.
    pub remote_executed: Vec<(TaskKind, usize)>,
    /// Tasks satisfied directly from the cache.
    pub cache_hits: usize,
    /// The cache hits the disk store answered (the rest came from memory).
    pub disk_hits: usize,
    /// Tasks never run because no consumer demanded them.
    pub pruned: usize,
    /// Total nodes in the DAG.
    pub total: usize,
    /// Local worker threads used.
    pub workers: usize,
    /// Remote workers that completed a handshake during the run.
    pub remote_workers: usize,
    /// Leases orphaned by a worker death or deadline expiry whose tasks
    /// re-entered the ready frontier (and were then executed by someone
    /// else — the run does not finish otherwise).
    pub releases: usize,
    /// Entries newly written to the disk store.
    pub store_writes: usize,
    /// Entries the store's byte cap evicted to make room for them.
    pub store_evictions: usize,
    /// Candidate×fold model fits of the local tasks' CV searches.
    pub cv_fits: u64,
    /// Fold views those searches took from an already-built `FoldPlan`
    /// slot.
    pub fold_reuse: u64,
    /// The run's eight slowest executed tasks, slowest first.
    pub slowest: Vec<SlowTask>,
}

/// Entries kept in a run's slowest-tasks table.
const SLOWEST_LEN: usize = 8;

/// One row of a run's slowest-tasks table. The label names the task's
/// dataset (`train/EEGuniform/…`); `dur_us` is the body's time for a local
/// task and the lease's for a remote one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowTask {
    pub label: String,
    pub kind: TaskKind,
    pub dur_us: u64,
}

impl RunReport {
    /// The `--cache-stats` fields, `name` and value in the line's order:
    /// the cache layers, the store (`store_totals` is its `(bytes,
    /// entries)` after the run), the provenance of executed tasks and the
    /// CV fold plane. `misses` are the demanded tasks the cache could not
    /// answer, `total - cache_hits - pruned`.
    pub fn stats(&self, store_totals: Option<(u64, usize)>) -> Vec<(&'static str, u64)> {
        let (store_bytes, store_entries) = store_totals.unwrap_or((0, 0));
        let n = |v: usize| v as u64;
        vec![
            ("memory_hits", n(self.cache_hits.saturating_sub(self.disk_hits))),
            ("disk_hits", n(self.disk_hits)),
            ("misses", n(self.total.saturating_sub(self.cache_hits + self.pruned))),
            ("disk_writes", n(self.store_writes)),
            ("disk_evictions", n(self.store_evictions)),
            ("store_entries", n(store_entries)),
            ("store_bytes", store_bytes),
            ("executed_local", n(self.local_total())),
            ("executed_remote", n(self.remote_total())),
            ("executed_train", n(self.executed(TaskKind::Train) + self.remote(TaskKind::Train))),
            ("remote_workers", n(self.remote_workers)),
            ("releases", n(self.releases)),
            ("cv_fits", self.cv_fits),
            ("fold_reuse", self.fold_reuse),
        ]
    }

    /// Counts one [`DiskStore::store`] answer: a write, and the entries
    /// evicted to make room for it.
    pub(crate) fn count_store(&mut self, stored: Option<usize>) {
        if let Some(evicted) = stored {
            self.store_writes += 1;
            self.store_evictions += evicted;
        }
    }

    /// Offers an executed task to the slowest-tasks table; a task no
    /// slower than a full table's fastest entry is dropped without an
    /// allocation.
    fn count_slow(&mut self, label: &str, kind: TaskKind, dur: Duration) {
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let slowest = &mut self.slowest;
        if slowest.len() == SLOWEST_LEN && slowest.last().is_some_and(|t| t.dur_us >= dur_us) {
            return;
        }
        let at = slowest.partition_point(|t| t.dur_us >= dur_us);
        slowest.insert(at, SlowTask { label: label.to_string(), kind, dur_us });
        slowest.truncate(SLOWEST_LEN);
    }

    /// Locally executed task count for one kind.
    pub fn executed(&self, kind: TaskKind) -> usize {
        self.executed.iter().find(|(k, _)| *k == kind).map_or(0, |(_, n)| *n)
    }

    /// Remotely executed task count for one kind.
    pub fn remote(&self, kind: TaskKind) -> usize {
        self.remote_executed.iter().find(|(k, _)| *k == kind).map_or(0, |(_, n)| *n)
    }

    /// Tasks executed on the local pool.
    pub fn local_total(&self) -> usize {
        self.executed.iter().map(|(_, n)| n).sum()
    }

    /// Tasks executed by remote workers.
    pub fn remote_total(&self) -> usize {
        self.remote_executed.iter().map(|(_, n)| n).sum()
    }

    /// Total executed tasks, local and remote: every to-run task is
    /// executed exactly once, wherever it lands.
    pub fn executed_total(&self) -> usize {
        self.local_total() + self.remote_total()
    }
}

/// Per-node artifact handles (`None` for pruned or retired nodes) plus
/// the submission's [`RunReport`]. Handles are shared, not copied:
/// collecting a submission bumps refcounts on the resident artifacts.
pub type ExecutionOutcome<A> = (Vec<Option<Arc<A>>>, RunReport);

// ---------------------------------------------------------------------------
// Resident scheduler state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Unfinished dependencies remain.
    Waiting,
    /// In the ready list, claimable by local workers and lease threads.
    Queued,
    /// Claimed (locally or by a remote lease).
    Running,
    /// Finished; `artifact` holds the result until retirement.
    Done,
    /// The task body errored; demanding submissions were failed.
    Failed,
    /// No live submission demands it any more (cancelled out from under).
    Orphaned,
}

pub(crate) struct TaskEntry<A> {
    pub(crate) key: CacheKey,
    pub(crate) kind: TaskKind,
    pub(crate) label: String,
    deps: Vec<Gid>,
    dependents: Vec<Gid>,
    pending: usize,
    pub(crate) phase: Phase,
    run: Option<TaskFn<A>>,
    pub(crate) artifact: Option<Arc<A>>,
    /// Runnable, not-yet-finished consumer entries across *all* live
    /// submissions. At zero (with no retains) the artifact is dropped.
    consumers_left: usize,
    /// Live submissions that need the artifact to survive until they
    /// collect (their sinks).
    retain_refs: usize,
    /// Live submissions whose subgraph includes this entry.
    subs: Vec<SubId>,
    /// Submission that first demanded the entry's current execution;
    /// execution counters are attributed here.
    origin: SubId,
    /// Keys of the study specs whose submissions contain this task: a
    /// remote worker bound to one of them may lease it.
    specs: Vec<u64>,
    /// When the entry last entered the ready list; taken when a local
    /// worker or a remote lease claims it, to feed the queue-wait
    /// histogram. `None` while the entry is not queued.
    queued_at: Option<Instant>,
}

struct SubEntry {
    /// Every resident entry in this submission's subgraph.
    tasks: Vec<Gid>,
    /// Submission graph index → resident entry (None for pruned nodes).
    node_of: Vec<Option<Gid>>,
    /// Entries whose artifact must survive until collection.
    retained: Vec<Gid>,
    /// The study spec advertised to remote workers, `(key, encoded
    /// bytes)`; cleared when the submission is abandoned.
    spec: Option<(u64, Vec<u8>)>,
    /// Entries not yet `Done` when merged; reaches zero at completion.
    remaining: usize,
    /// Initial `remaining` (for progress reporting).
    to_run: usize,
    executed: [usize; NKINDS],
    remote_executed: [usize; NKINDS],
    /// Everything else credited to the submission as it happens (its
    /// `executed` fields stay empty until collection).
    account: RunReport,
    events: Option<EventSink>,
    error: Option<CoreError>,
    done: bool,
    /// Refs on tasks already released (cancel or failure path).
    abandoned: bool,
}

pub(crate) struct State<A> {
    pub(crate) tasks: Vec<TaskEntry<A>>,
    pub(crate) by_key: HashMap<CacheKey, Gid>,
    /// Ids of `Queued` entries, newest last. An id whose entry was
    /// orphaned while listed goes stale and is dropped when popped.
    ready: Vec<Gid>,
    subs: HashMap<SubId, SubEntry>,
    next_sub: SubId,
}

pub(crate) struct PoolInner<A> {
    pub(crate) state: Mutex<State<A>>,
    /// Wakes workers and lease threads when the frontier grows.
    pub(crate) work: Condvar,
    /// Wakes submission waiters on completion/cancellation/failure.
    pub(crate) client: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) persist: Option<Arc<DiskStore>>,
    n_workers: usize,
    /// Live [`LeasableHold`]s: while any is held, local workers leave
    /// leasable tasks to remote workers.
    leasable_holds: AtomicUsize,
}

fn spec_key_of(bytes: &[u8]) -> u64 {
    fnv1a64(bytes) ^ bytes.len() as u64
}

fn counts_vec(counts: &[usize; NKINDS]) -> Vec<(TaskKind, usize)> {
    TaskKind::ALL.iter().map(|&k| (k, counts[k.index()])).filter(|&(_, n)| n > 0).collect()
}

impl SubEntry {
    fn spec_key(&self) -> Option<u64> {
        self.spec.as_ref().map(|&(key, _)| key)
    }
}

const CANCELLED: &str = "submission cancelled";

impl<A> PoolInner<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    // -- frontier ----------------------------------------------------------

    /// Queues `Waiting` entries so that the heaviest kind pops first, the
    /// lowest id first among equals (callers notify).
    fn enqueue(&self, st: &mut State<A>, mut gids: Vec<Gid>) {
        gids.sort_by_key(|&g| (st.tasks[g].kind.cost_weight(), Reverse(g)));
        for gid in gids {
            debug_assert_eq!(st.tasks[gid].phase, Phase::Waiting);
            st.tasks[gid].phase = Phase::Queued;
            st.tasks[gid].queued_at = Some(Instant::now());
            st.ready.push(gid);
        }
    }

    /// Pops the newest claimable task for a local worker, dropping stale
    /// ids on the way. Under a [`LeasableHold`], takes the newest task of
    /// a kind that never leaves the coordinator instead; stale ids stay
    /// for a later pop to drop.
    fn pop_ready(&self, st: &mut State<A>) -> Option<Gid> {
        if self.leasable_holds.load(Ordering::Acquire) > 0 {
            let tasks = &st.tasks;
            let pos = st.ready.iter().rposition(|&g| {
                tasks[g].phase == Phase::Queued && !crate::remote::leasable(tasks[g].kind)
            })?;
            return Some(st.ready.remove(pos));
        }
        while let Some(gid) = st.ready.pop() {
            if st.tasks[gid].phase == Phase::Queued {
                return Some(gid);
            }
        }
        None
    }

    /// Claims the heaviest leasable ready task of spec `spec_key`, for a
    /// remote lease thread; the newest among equal weights, as a local pop
    /// would. Stale ids are skipped and stay for the local pops to drop.
    pub(crate) fn claim_leasable(&self, st: &mut State<A>, spec_key: u64) -> Option<Gid> {
        let tasks = &st.tasks;
        let (_, pos) = st
            .ready
            .iter()
            .enumerate()
            .filter(|&(_, &gid)| {
                let t = &tasks[gid];
                t.phase == Phase::Queued
                    && crate::remote::leasable(t.kind)
                    && t.specs.contains(&spec_key)
            })
            .map(|(pos, &gid)| (tasks[gid].kind.cost_weight(), pos))
            .max()?;
        let gid = st.ready.remove(pos);
        st.tasks[gid].phase = Phase::Running;
        if let Some(queued) = st.tasks[gid].queued_at.take() {
            crate::telemetry::global().queue_seconds[st.tasks[gid].kind.index()]
                .observe(queued.elapsed());
        }
        Some(gid)
    }

    /// Returns the task of a lease lost by `worker` (dead, silent or in
    /// breach of protocol) to the frontier: emits `LeaseExpired` to the
    /// submissions demanding it, counts one release, and wakes claimants.
    /// The release lands on the task's origin submission (or the first
    /// live one still demanding it).
    pub(crate) fn reinject(&self, st: &mut State<A>, gid: Gid, worker: &str) {
        debug_assert_eq!(st.tasks[gid].phase, Phase::Running);
        let kind = st.tasks[gid].kind;
        let expired = EngineEvent::LeaseExpired { worker: worker.to_string(), id: gid, kind };
        self.emit_to_subs(st, gid, expired);
        st.tasks[gid].phase = Phase::Waiting;
        self.enqueue(st, vec![gid]);
        crate::telemetry::global().leases_reinjected.inc();
        if let Some(sid) = self.attribution(st, gid) {
            if let Some(sub) = st.subs.get_mut(&sid) {
                sub.account.releases += 1;
            }
        }
        self.work.notify_all();
    }

    // -- completion bookkeeping -------------------------------------------

    fn attribution(&self, st: &State<A>, gid: Gid) -> Option<SubId> {
        let entry = &st.tasks[gid];
        entry
            .subs
            .iter()
            .copied()
            .find(|&s| s == entry.origin)
            .or_else(|| entry.subs.first().copied())
    }

    pub(crate) fn emit_to_subs(&self, st: &State<A>, gid: Gid, event: EngineEvent) {
        for sid in &st.tasks[gid].subs {
            if let Some(sub) = st.subs.get(sid) {
                emit(&sub.events, event.clone());
            }
        }
    }

    /// Marks `gid` started and prepares its execution: takes the body,
    /// shares handles to the input artifacts (a refcount bump each, never
    /// a deep copy) and emits `TaskStarted` to every demanding submission.
    /// Returns `None` if the body was already consumed (defensive; should
    /// not happen).
    fn prepare(&self, st: &mut State<A>, gid: Gid) -> Option<Job<A>> {
        st.tasks[gid].phase = Phase::Running;
        let kind = st.tasks[gid].kind;
        let label = st.tasks[gid].label.clone();
        let queued_at = st.tasks[gid].queued_at.take().expect("a claimed task was queued");
        let sub = self.attribution(st, gid);
        // the body first: TaskStarted is only emitted for tasks that will
        // also emit TaskFinished
        let run = st.tasks[gid].run.take()?;
        let started = EngineEvent::TaskStarted { id: gid, kind, label: label.clone() };
        self.emit_to_subs(st, gid, started);
        let inputs: Vec<Arc<A>> = st.tasks[gid]
            .deps
            .clone()
            .iter()
            .map(|&d| {
                Arc::clone(
                    st.tasks[d].artifact.as_ref().expect("dependency finished before consumer"),
                )
            })
            .collect();
        crate::telemetry::global().handle_shares.add(inputs.len() as u64);
        Some(Job { gid, kind, key: st.tasks[gid].key, label, run, inputs, queued_at, sub })
    }

    fn dec_consumer(&self, st: &mut State<A>, gid: Gid) {
        st.tasks[gid].consumers_left -= 1;
        self.maybe_retire(st, gid);
    }

    /// Drops the pool's handle once nothing live references the artifact.
    fn maybe_retire(&self, st: &mut State<A>, gid: Gid) {
        let entry = &mut st.tasks[gid];
        if entry.phase == Phase::Done && entry.consumers_left == 0 && entry.retain_refs == 0 {
            entry.artifact = None;
        }
    }

    /// Completion bookkeeping shared by local workers and remote lease
    /// threads (the artifact has already been persisted by the caller,
    /// outside the scheduler lock — durability before progress): publish
    /// the artifact, credit the execution to the submission it is
    /// attributed to (its site, the store's answer, the CV tally and the
    /// duration), notify each demanding submission, retire inputs whose
    /// last consumer this was, and queue newly-ready dependents.
    pub(crate) fn complete_ok(&self, st: &mut State<A>, gid: Gid, done: Finished<A>) {
        let Finished { artifact, remote, stored, cv, dur } = done;
        let kind = st.tasks[gid].kind;
        st.tasks[gid].artifact = Some(artifact);
        st.tasks[gid].phase = Phase::Done;
        st.tasks[gid].run = None;

        if let Some(sid) = self.attribution(st, gid) {
            if let Some(sub) = st.subs.get_mut(&sid) {
                let counters = if remote { &mut sub.remote_executed } else { &mut sub.executed };
                counters[kind.index()] += 1;
                sub.account.count_store(stored);
                sub.account.cv_fits += cv.0;
                sub.account.fold_reuse += cv.1;
                sub.account.count_slow(&st.tasks[gid].label, kind, dur);
            }
        }
        let t = crate::telemetry::global();
        let site = if remote { &t.tasks_remote } else { &t.tasks_local };
        site[kind.index()].inc();
        let demanding = st.tasks[gid].subs.clone();
        for sid in demanding {
            if let Some(sub) = st.subs.get_mut(&sid) {
                emit(&sub.events, EngineEvent::TaskFinished { id: gid, kind, ok: true });
                sub.remaining -= 1;
                if sub.remaining == 0 && !sub.done {
                    sub.done = true;
                    emit(&sub.events, EngineEvent::RunFinished);
                }
            }
        }

        for d in st.tasks[gid].deps.clone() {
            self.dec_consumer(st, d);
        }

        let mut released: Vec<Gid> = Vec::new();
        for dep in st.tasks[gid].dependents.clone() {
            if st.tasks[dep].phase == Phase::Waiting {
                st.tasks[dep].pending -= 1;
                if st.tasks[dep].pending == 0 {
                    released.push(dep);
                }
            }
        }
        let notify = !released.is_empty();
        self.enqueue(st, released);

        self.maybe_retire(st, gid);
        if notify {
            self.work.notify_all();
        }
        self.client.notify_all();
    }

    /// Records a task failure: the entry is poisoned and every submission
    /// demanding it fails (and releases the rest of its subgraph); other
    /// submissions are untouched.
    pub(crate) fn complete_err(&self, st: &mut State<A>, gid: Gid, err: CoreError) {
        let kind = st.tasks[gid].kind;
        st.tasks[gid].phase = Phase::Failed;
        st.tasks[gid].run = None;
        crate::telemetry::global().tasks_failed.inc();
        self.emit_to_subs(st, gid, EngineEvent::TaskFinished { id: gid, kind, ok: false });
        for d in st.tasks[gid].deps.clone() {
            self.dec_consumer(st, d);
        }
        for sid in st.tasks[gid].subs.clone() {
            self.abandon_sub(st, sid, Some(err.clone()));
        }
        self.client.notify_all();
    }

    /// Fails or cancels a submission: releases its holds on every task
    /// and orphans the parts of its subgraph nothing else demands.
    fn abandon_sub(&self, st: &mut State<A>, sid: SubId, err: Option<CoreError>) {
        let Some(sub) = st.subs.get_mut(&sid) else { return };
        if sub.done {
            return; // completed (or already abandoned): results are final
        }
        sub.done = true;
        sub.abandoned = true;
        sub.error = Some(err.unwrap_or_else(|| CoreError::Unsupported(CANCELLED.into())));
        sub.spec = None;
        let retained = std::mem::take(&mut sub.retained);
        let tasks = sub.tasks.clone();
        for gid in retained {
            st.tasks[gid].retain_refs -= 1;
        }
        for gid in tasks {
            st.tasks[gid].subs.retain(|s| *s != sid);
            if st.tasks[gid].subs.is_empty()
                && matches!(st.tasks[gid].phase, Phase::Waiting | Phase::Queued)
            {
                // nothing live demands it: release its holds on its
                // inputs; a queued id goes stale and is skipped at pop
                st.tasks[gid].phase = Phase::Orphaned;
                for d in st.tasks[gid].deps.clone() {
                    self.dec_consumer(st, d);
                }
            }
            self.maybe_retire(st, gid);
        }
        self.client.notify_all();
    }

    /// Drops a collected (or abandoned-and-reaped) submission.
    fn cleanup_sub(&self, st: &mut State<A>, sid: SubId) {
        let Some(sub) = st.subs.remove(&sid) else { return };
        if sub.abandoned {
            return; // refs already released on the abandon path
        }
        for gid in sub.retained {
            st.tasks[gid].retain_refs -= 1;
        }
        for gid in sub.tasks {
            st.tasks[gid].subs.retain(|s| *s != sid);
            self.maybe_retire(st, gid);
        }
    }

    // -- remote support ----------------------------------------------------

    /// The spec of the oldest live submission that has one, for welcoming
    /// a freshly connected worker.
    pub(crate) fn pick_spec(&self, st: &State<A>) -> Option<(u64, Vec<u8>)> {
        let (_, oldest) = st.subs.iter().filter(|(_, s)| s.spec.is_some()).min_by_key(|e| e.0)?;
        oldest.spec.clone()
    }

    /// Whether any live submission still runs under `spec_key` (a worker
    /// bound to a retired spec is sent `Bye`).
    pub(crate) fn spec_live(&self, st: &State<A>, spec_key: u64) -> bool {
        st.subs.values().any(|s| s.spec_key() == Some(spec_key))
    }

    /// Credits a completed worker handshake to every live submission of
    /// the spec and emits `WorkerJoined` on their event sinks.
    pub(crate) fn worker_joined(&self, st: &mut State<A>, spec_key: u64, name: &str) {
        let sids: Vec<SubId> = st
            .subs
            .iter()
            .filter(|(_, s)| s.spec_key() == Some(spec_key) && !s.done)
            .map(|(id, _)| *id)
            .collect();
        for sid in sids {
            let sub = st.subs.get_mut(&sid).expect("listed");
            sub.account.remote_workers += 1;
            emit(&sub.events, EngineEvent::WorkerJoined { worker: name.to_string() });
        }
    }

    /// Emits a worker-lifecycle event to every live submission of a spec.
    pub(crate) fn emit_to_spec(&self, st: &State<A>, spec_key: u64, event: EngineEvent) {
        for sub in st.subs.values() {
            if sub.spec_key() == Some(spec_key) && !sub.done {
                emit(&sub.events, event.clone());
            }
        }
    }

    /// Serves a remote `Fetch` from the live entry's artifact; the caller
    /// falls back to the disk store outside the lock.
    pub(crate) fn fetch_artifact(&self, key: CacheKey) -> Option<Arc<A>> {
        let st = self.state.lock().expect("state lock");
        let gid = *st.by_key.get(&key)?;
        st.tasks[gid].artifact.clone()
    }
}

/// What a finished task hands to [`PoolInner::complete_ok`].
pub(crate) struct Finished<A> {
    pub(crate) artifact: Arc<A>,
    /// Run by a remote worker, not a local one.
    pub(crate) remote: bool,
    /// The store's answer for the artifact ([`DiskStore::store`]).
    pub(crate) stored: Option<usize>,
    /// The body's CV `(fits, reuses)` tally.
    pub(crate) cv: (u64, u64),
    /// The body's time for a local task, the lease's for a remote one.
    pub(crate) dur: Duration,
}

struct Job<A> {
    gid: Gid,
    kind: TaskKind,
    key: CacheKey,
    label: String,
    run: TaskFn<A>,
    inputs: Vec<Arc<A>>,
    /// When the entry last entered the ready list, for the queue-wait
    /// histogram.
    queued_at: Instant,
    /// Submission the execution is attributed to (trace-span labeling).
    sub: Option<SubId>,
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// The resident execution core. See the module docs.
pub struct Pool<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    inner: Arc<PoolInner<A>>,
    workers: Vec<JoinHandle<()>>,
    services: Vec<JoinHandle<()>>,
}

impl<A> Pool<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    /// Spawns a pool with `workers` resident threads. With a `persist`
    /// store, every finished artifact with a serial form is written to it
    /// the moment its task completes.
    pub fn new(workers: usize, persist: Option<Arc<DiskStore>>) -> Pool<A> {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(State {
                tasks: Vec::new(),
                by_key: HashMap::new(),
                ready: Vec::new(),
                subs: HashMap::new(),
                next_sub: 0,
            }),
            work: Condvar::new(),
            client: Condvar::new(),
            shutdown: AtomicBool::new(false),
            persist,
            n_workers: workers,
            leasable_holds: AtomicUsize::new(0),
        });
        let threads = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, w))
            })
            .collect();
        Pool { inner, workers: threads, services: Vec::new() }
    }

    pub fn workers(&self) -> usize {
        self.inner.n_workers
    }

    /// Starts serving `hub`'s connections for the pool's lifetime:
    /// workers (`Hello`) lease tasks from the merged frontier; HTTP
    /// connections hit `/metrics` and the results gateway.
    pub(crate) fn serve_hub(&mut self, hub: Arc<RemoteHub>, gateway: Arc<EngineGateway>) {
        let handle = spawn_hub_service(Arc::clone(&self.inner), hub, gateway);
        self.services.push(handle);
    }

    /// Holds every leasable task back from the local workers until the
    /// returned guard drops: they run only the kinds that never travel
    /// (dataset generation, reduction) and leave the rest to remote
    /// workers. Fault-injection tests use it to force leases onto a
    /// worker, instead of racing the local pool for them.
    pub fn hold_leasable(&self) -> LeasableHold<A> {
        self.inner.leasable_holds.fetch_add(1, Ordering::AcqRel);
        LeasableHold { inner: Arc::clone(&self.inner) }
    }

    /// Merges a resolved graph into the resident table as one submission.
    ///
    /// `retain` marks nodes whose artifact must survive until the
    /// submission is collected. `events` receives this submission's
    /// progress stream. `spec` (an encoded
    /// [`crate::remote::proto::StudySpec`]) advertises the submission to
    /// remote workers; `None` keeps its tasks local-only.
    pub fn submit(
        &self,
        graph: TaskGraph<A>,
        retain: Vec<bool>,
        events: Option<EventSink>,
        spec: Option<Vec<u8>>,
    ) -> SubmissionHandle<A> {
        let mut nodes = graph.nodes;
        let n = nodes.len();
        assert_eq!(retain.len(), n, "retain mask must cover every node");

        let mut st = self.inner.state.lock().expect("state lock");
        let st = &mut *st;
        let sid = st.next_sub;
        st.next_sub += 1;

        let spec = spec.map(|bytes| (spec_key_of(&bytes), bytes));
        let spec_key = spec.as_ref().map(|&(key, _)| key);

        let mut sub = SubEntry {
            tasks: Vec::with_capacity(n),
            node_of: vec![None; n],
            retained: Vec::new(),
            spec,
            remaining: 0,
            to_run: 0,
            executed: [0; NKINDS],
            remote_executed: [0; NKINDS],
            account: RunReport::default(),
            events,
            error: None,
            done: false,
            abandoned: false,
        };
        let mut seeds: Vec<Gid> = Vec::new();

        for idx in 0..n {
            let node = &mut nodes[idx];
            let key = node.key;
            let gid = match node.state {
                NodeState::Pruned => continue,
                NodeState::Cached => {
                    let art = node.prefilled.take().expect("cached node prefilled");
                    match st.by_key.get(&key).copied() {
                        None => new_entry(st, idx, &mut nodes, sid, Some(art)),
                        Some(gid) => {
                            let entry = &mut st.tasks[gid];
                            if entry.artifact.is_none()
                                && matches!(
                                    entry.phase,
                                    Phase::Done | Phase::Orphaned | Phase::Failed
                                )
                            {
                                // restore a retired/abandoned entry from
                                // this submission's cache hit
                                entry.artifact = Some(art);
                                entry.phase = Phase::Done;
                            }
                            gid
                        }
                    }
                }
                NodeState::Run => match st.by_key.get(&key).copied() {
                    None => new_entry(st, idx, &mut nodes, sid, None),
                    Some(gid) => match st.tasks[gid].phase {
                        Phase::Done if st.tasks[gid].artifact.is_some() => gid,
                        Phase::Waiting | Phase::Queued | Phase::Running => gid,
                        Phase::Done | Phase::Orphaned | Phase::Failed => {
                            // retired or dead: re-arm with this
                            // submission's task body
                            reset_entry(st, gid, idx, &mut nodes, sid);
                            gid
                        }
                    },
                },
            };

            let entry = &mut st.tasks[gid];
            if !entry.subs.contains(&sid) {
                entry.subs.push(sid);
            }
            if let Some(sk) = spec_key {
                if !entry.specs.contains(&sk) {
                    entry.specs.push(sk);
                }
            }
            if entry.phase != Phase::Done {
                sub.remaining += 1;
            }
            if retain[idx] {
                entry.retain_refs += 1;
                sub.retained.push(gid);
            }
            if entry.phase == Phase::Waiting && entry.pending == 0 {
                seeds.push(gid);
            }
            sub.node_of[idx] = Some(gid);
            sub.tasks.push(gid);
        }

        sub.to_run = sub.remaining;
        if sub.remaining == 0 {
            sub.done = true;
            emit(&sub.events, EngineEvent::RunFinished);
        }
        st.subs.insert(sid, sub);

        // Seed the frontier heaviest-first. On a cold run it is
        // all-generate; on a partial resume it spans the whole DAG, and
        // dispatching the expensive stragglers first shortens the
        // critical path.
        self.inner.enqueue(st, seeds);

        self.inner.work.notify_all();
        self.inner.client.notify_all();
        SubmissionHandle { inner: Arc::clone(&self.inner), id: sid, collected: false }
    }
}

/// Creates a fresh resident entry from submission node `idx`. With
/// `prefilled`, the entry is born `Done` (a cache hit feeding runnable
/// consumers); otherwise it registers with its dependencies and waits.
fn new_entry<A>(
    st: &mut State<A>,
    idx: usize,
    nodes: &mut [crate::graph::TaskNode<A>],
    sid: SubId,
    prefilled: Option<Arc<A>>,
) -> Gid {
    let gid = st.tasks.len();
    let key = nodes[idx].key;
    let done = prefilled.is_some();
    st.tasks.push(TaskEntry {
        key,
        kind: nodes[idx].kind,
        label: std::mem::take(&mut nodes[idx].label),
        deps: Vec::new(),
        dependents: Vec::new(),
        pending: 0,
        phase: if done { Phase::Done } else { Phase::Waiting },
        run: if done { None } else { nodes[idx].run.take() },
        artifact: prefilled,
        consumers_left: 0,
        retain_refs: 0,
        subs: Vec::new(),
        origin: sid,
        specs: Vec::new(),
        queued_at: None,
    });
    st.by_key.insert(key, gid);
    if !done {
        arm_entry(st, gid, idx, nodes, sid);
    }
    gid
}

/// Re-arms a retired/orphaned/failed entry with submission node `idx`'s
/// task body: recomputes its dependency edges and pending count against
/// the current phases of its inputs.
fn reset_entry<A>(
    st: &mut State<A>,
    gid: Gid,
    idx: usize,
    nodes: &mut [crate::graph::TaskNode<A>],
    sid: SubId,
) {
    st.tasks[gid].artifact = None;
    st.tasks[gid].phase = Phase::Waiting;
    // Any submission still listed here witnessed the entry's *previous*
    // completion (reset happens only from Done/Orphaned/Failed, and the
    // latter two guarantee an empty list): its `remaining` was already
    // decremented, so it must NOT be decremented again when the re-armed
    // entry re-completes. The stale sid stays in that submission's own
    // task list, where cleanup handles it as a no-op.
    st.tasks[gid].subs.clear();
    arm_entry(st, gid, idx, nodes, sid);
}

fn arm_entry<A>(
    st: &mut State<A>,
    gid: Gid,
    idx: usize,
    nodes: &mut [crate::graph::TaskNode<A>],
    sid: SubId,
) {
    // deps precede consumers in graph order, so every dep already has a
    // resident entry (merged earlier in this same submission pass)
    let sub_node_of = |st: &State<A>, d: usize| -> Gid {
        *st.by_key.get(&nodes[d].key).expect("dependency merged before consumer")
    };
    let dep_gids: Vec<Gid> = nodes[idx].deps.clone().iter().map(|&d| sub_node_of(st, d)).collect();
    let mut pending = 0;
    for &d in &dep_gids {
        st.tasks[d].consumers_left += 1;
        if st.tasks[d].phase != Phase::Done {
            debug_assert!(matches!(
                st.tasks[d].phase,
                Phase::Waiting | Phase::Queued | Phase::Running
            ));
            pending += 1;
            if !st.tasks[d].dependents.contains(&gid) {
                st.tasks[d].dependents.push(gid);
            }
        }
    }
    st.tasks[gid].deps = dep_gids;
    st.tasks[gid].pending = pending;
    st.tasks[gid].origin = sid;
    if st.tasks[gid].run.is_none() {
        st.tasks[gid].run = nodes[idx].run.take();
    }
    debug_assert!(st.tasks[gid].run.is_some(), "re-armed entry has a body");
}

/// Guard of [`Pool::hold_leasable`]; dropping it hands leasable tasks
/// back to the local workers.
pub struct LeasableHold<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    inner: Arc<PoolInner<A>>,
}

impl<A> Drop for LeasableHold<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    fn drop(&mut self) {
        self.inner.leasable_holds.fetch_sub(1, Ordering::AcqRel);
        self.inner.work.notify_all();
    }
}

impl<A> Drop for Pool<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("state lock");
            let sids: Vec<SubId> = st.subs.keys().copied().collect();
            for sid in sids {
                self.inner.abandon_sub(
                    &mut st,
                    sid,
                    Some(CoreError::Unsupported("engine shut down".into())),
                );
            }
        }
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work.notify_all();
        self.inner.client.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for handle in self.services.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A live submission: progress, cancellation, and blocking collection.
pub struct SubmissionHandle<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    inner: Arc<PoolInner<A>>,
    id: SubId,
    collected: bool,
}

impl<A> SubmissionHandle<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    pub fn id(&self) -> SubId {
        self.id
    }

    /// Whether the submission has completed, failed or been cancelled.
    pub fn done(&self) -> bool {
        let st = self.inner.state.lock().expect("state lock");
        st.subs.get(&self.id).is_none_or(|s| s.done)
    }

    /// `(finished, to_run)` task counts of this submission.
    pub fn progress(&self) -> (usize, usize) {
        let st = self.inner.state.lock().expect("state lock");
        st.subs.get(&self.id).map_or((0, 0), |s| (s.to_run - s.remaining, s.to_run))
    }

    /// Cancels the submission: its exclusive subgraph is released (queued
    /// tasks go stale, holds on shared artifacts drop) and
    /// [`SubmissionHandle::wait`] returns an error. Tasks shared with
    /// other live submissions are untouched.
    pub fn cancel(&self) {
        let mut st = self.inner.state.lock().expect("state lock");
        self.inner.abandon_sub(&mut st, self.id, None);
    }

    /// Blocks until the submission completes, then returns the artifacts
    /// of its graph nodes (`None` for pruned or already-retired nodes)
    /// plus its account. The report's `cache_hits`, `disk_hits`, `pruned`
    /// and `total` stay zero: graph resolution, not the pool, knows them.
    pub fn wait(mut self) -> Result<ExecutionOutcome<A>, CoreError> {
        self.collected = true;
        let inner = Arc::clone(&self.inner);
        let mut st = inner.state.lock().expect("state lock");
        loop {
            match st.subs.get(&self.id) {
                None => {
                    return Err(CoreError::Unsupported(
                        "submission vanished before collection".into(),
                    ))
                }
                Some(sub) if sub.done => break,
                Some(_) => {
                    let (guard, _) =
                        inner.client.wait_timeout(st, Duration::from_millis(200)).expect("condvar");
                    st = guard;
                }
            }
        }
        let sub = st.subs.get(&self.id).expect("checked above");
        let error = sub.error.clone();
        let node_of = sub.node_of.clone();
        let report = RunReport {
            executed: counts_vec(&sub.executed),
            remote_executed: counts_vec(&sub.remote_executed),
            workers: inner.n_workers,
            ..sub.account.clone()
        };
        let artifacts: Vec<Option<Arc<A>>> =
            node_of.iter().map(|g| g.and_then(|gid| st.tasks[gid].artifact.clone())).collect();
        inner.cleanup_sub(&mut st, self.id);
        drop(st);
        match error {
            Some(e) => Err(e),
            None => Ok((artifacts, report)),
        }
    }
}

impl<A> Drop for SubmissionHandle<A>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    fn drop(&mut self) {
        if !self.collected {
            let mut st = self.inner.state.lock().expect("state lock");
            self.inner.abandon_sub(&mut st, self.id, None);
            self.inner.cleanup_sub(&mut st, self.id);
        }
    }
}

fn worker_loop<A>(inner: &Arc<PoolInner<A>>, me: usize)
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    loop {
        let job = {
            let mut st = inner.state.lock().expect("state lock");
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(gid) = inner.pop_ready(&mut st) {
                    break inner.prepare(&mut st, gid);
                }
                let (guard, _) =
                    inner.work.wait_timeout(st, Duration::from_millis(50)).expect("condvar");
                st = guard;
            }
        };
        let Some(job) = job else { continue };
        let Job { gid, kind, key, label, run, inputs, queued_at, sub } = job;

        let t = crate::telemetry::global();
        let started = Instant::now();
        let queue_wait = started.duration_since(queued_at);
        let outcome = catch_unwind(AssertUnwindSafe(move || run(inputs)));
        let elapsed = started.elapsed();
        // taken after every body, failed ones too, so no body's CV work
        // lands on the next task this thread runs
        let cv = cleanml_ml::cv::take_thread_tally();
        let outcome = match outcome {
            Ok(r) => r,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".into());
                Err(CoreError::Unsupported(format!("task '{label}' panicked: {msg}")))
            }
        };

        match outcome {
            Ok(artifact) => {
                // Durability before progress: the artifact reaches disk
                // before any dependent can observe it — and before the
                // scheduler lock is taken, so persistence never blocks
                // scheduling.
                let persist_start = Instant::now();
                let mut persisted = false;
                let mut stored = None;
                if let Some(store) = &inner.persist {
                    if let Some(bytes) = artifact.encode() {
                        stored = store.store(key, &bytes);
                        persisted = true;
                    }
                }
                let persist_dur = persist_start.elapsed();
                let ki = kind.index();
                t.task_seconds[ki].observe(elapsed);
                t.queue_seconds[ki].observe(queue_wait);
                if persisted {
                    t.persist_seconds.observe(persist_dur);
                }
                if t.tracing_on() {
                    let mut args: Vec<(&'static str, String)> = vec![
                        ("kind", kind.name().to_string()),
                        ("sub", sub.map_or_else(|| "-".into(), |s| s.to_string())),
                        ("queue_ms", format!("{:.3}", queue_wait.as_secs_f64() * 1e3)),
                    ];
                    if persisted {
                        args.push((
                            "persist_ms",
                            format!("{:.3}", persist_dur.as_secs_f64() * 1e3),
                        ));
                    }
                    let span_dur = elapsed + persist_dur;
                    t.span(&label, kind.name(), started, span_dur, me as u64, args);
                }
                let artifact = Arc::new(artifact);
                let done = Finished { artifact, remote: false, stored, cv, dur: elapsed };
                let mut st = inner.state.lock().expect("state lock");
                inner.complete_ok(&mut st, gid, done);
            }
            Err(err) => {
                // A failure does not stop the worker: only the
                // submissions demanding this task fail.
                let mut st = inner.state.lock().expect("state lock");
                inner.complete_err(&mut st, gid, err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ArtifactCache, CacheKey};
    use crate::graph::TaskId;

    #[derive(Debug, Clone, PartialEq)]
    struct V(i64);

    impl DiskCodec for V {
        fn encode(&self) -> Option<Vec<u8>> {
            None
        }
        fn decode(_: &[u8]) -> Option<Self> {
            None
        }
    }

    fn diamond() -> (TaskGraph<V>, TaskId) {
        let mut g: TaskGraph<V> = TaskGraph::new();
        let a = g.task(TaskKind::GenerateDataset, "a", CacheKey::of("a"), vec![], |_| Ok(V(1)));
        let b = g.task(TaskKind::Split, "b", CacheKey::of("b"), vec![a], |d| Ok(V(d[0].0 * 2)));
        let c = g.task(TaskKind::Split, "c", CacheKey::of("c"), vec![a], |d| Ok(V(d[0].0 * 3)));
        let d = g
            .task(TaskKind::Reduce, "d", CacheKey::of("d"), vec![b, c], |d| Ok(V(d[0].0 + d[1].0)));
        (g, d)
    }

    fn retain_only(n: usize, keep: &[TaskId]) -> Vec<bool> {
        let mut r = vec![false; n];
        for &id in keep {
            r[id] = true;
        }
        r
    }

    #[test]
    fn diamond_executes_in_dependency_order() {
        for workers in [1, 4] {
            let (mut g, sink) = diamond();
            let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
            g.resolve(&mut cache, &[sink]);
            let retain = retain_only(g.len(), &[sink]);
            let (arts, stats) =
                Pool::new(workers, None).submit(g, retain, None, None).wait().unwrap();
            assert_eq!(arts[sink].as_deref(), Some(V(5)).as_ref());
            let total: usize = stats.executed.iter().map(|(_, n)| n).sum();
            assert_eq!(total, 4, "workers={workers}");
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.remote_workers, 0);
            assert_eq!(stats.releases, 0);
            assert!(stats.remote_executed.is_empty());
        }
    }

    #[test]
    fn unretained_intermediates_are_retired() {
        let (mut g, sink) = diamond();
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &[sink]);
        let retain = retain_only(g.len(), &[sink]);
        let (arts, _) = Pool::new(2, None).submit(g, retain, None, None).wait().unwrap();
        assert_eq!(arts[sink].as_deref(), Some(V(5)).as_ref());
        // a, b, c each fed only the now-finished downstream tasks
        assert_eq!(arts[0], None);
        assert_eq!(arts[1], None);
        assert_eq!(arts[2], None);
    }

    #[test]
    fn cached_sink_runs_nothing() {
        let (mut g, sink) = diamond();
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        cache.put(CacheKey::of("d"), &Arc::new(V(5)));
        let (hits, disk_hits, pruned, to_run) = g.resolve(&mut cache, &[sink]);
        assert_eq!((hits, disk_hits, pruned, to_run), (1, 0, 3, 0));
        let retain = retain_only(g.len(), &[sink]);
        let (arts, stats) = Pool::new(4, None).submit(g, retain, None, None).wait().unwrap();
        assert_eq!(arts[sink].as_deref(), Some(V(5)).as_ref());
        assert!(stats.executed.is_empty());
    }

    #[test]
    fn task_error_aborts_run() {
        let mut g: TaskGraph<V> = TaskGraph::new();
        let a = g.task(TaskKind::Train, "boom", CacheKey::of("boom"), vec![], |_| {
            Err(CoreError::Unsupported("nope".into()))
        });
        let b = g.task(TaskKind::Evaluate, "after", CacheKey::of("after"), vec![a], |_| Ok(V(1)));
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &[b]);
        let retain = retain_only(g.len(), &[b]);
        assert!(Pool::new(2, None).submit(g, retain, None, None).wait().is_err());
    }

    #[test]
    fn task_panic_becomes_error() {
        let mut g: TaskGraph<V> = TaskGraph::new();
        let sink = g.task(TaskKind::Train, "p", CacheKey::of("p"), vec![], |_| panic!("kaboom"));
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &[sink]);
        let retain = retain_only(g.len(), &[sink]);
        let err = Pool::new(2, None).submit(g, retain, None, None).wait().unwrap_err();
        assert!(err.to_string().contains("kaboom"), "{err}");
    }

    #[derive(Debug, Clone, PartialEq)]
    struct P(i64);

    impl DiskCodec for P {
        fn encode(&self) -> Option<Vec<u8>> {
            Some(format!("p {}", self.0).into_bytes())
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            let text = std::str::from_utf8(bytes).ok()?;
            text.strip_prefix("p ")?.trim().parse().ok().map(P)
        }
    }

    #[test]
    fn finished_artifacts_persist_even_when_retired_from_memory() {
        let dir = std::env::temp_dir().join(format!("cleanml-pool-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(dir.clone(), None).unwrap();

        let mut g: TaskGraph<P> = TaskGraph::new();
        let a = g.task(TaskKind::Train, "a", CacheKey::of("a"), vec![], |_| Ok(P(7)));
        let b = g.task(TaskKind::Evaluate, "b", CacheKey::of("b"), vec![a], |d| Ok(P(d[0].0 + 1)));
        let mut cache: ArtifactCache<P> = ArtifactCache::new(None);
        g.resolve(&mut cache, &[b]);
        let retain = retain_only(g.len(), &[b]);
        let (arts, report) =
            Pool::new(2, Some(store.clone())).submit(g, retain, None, None).wait().unwrap();

        // `a` was retired from memory after its last consumer…
        assert_eq!(arts[0], None);
        // …but both artifacts reached the disk store during the run, and
        // the submission's account counts both writes.
        assert_eq!(store.load(CacheKey::of("a")).as_deref(), Some(&b"p 7"[..]));
        assert_eq!(store.load(CacheKey::of("b")).as_deref(), Some(&b"p 8"[..]));
        assert_eq!((report.store_writes, report.store_evictions), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cv_work_is_credited_to_the_submission_whose_body_did_it() {
        // One worker runs both bodies on one thread: the failed body's CV
        // fits must not land on the next task's account.
        use cleanml_ml::{cv::cross_val_score, Metric, ModelKind, ModelSpec};
        let score = |folds| {
            let m = cleanml_dataset::FeatureMatrix::from_parts(
                vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
                6,
                1,
                vec![0, 1, 0, 1, 0, 1],
                2,
            );
            let spec = ModelSpec::default_for(ModelKind::NaiveBayes);
            cross_val_score(&spec, &m, folds, 0, Metric::Accuracy).expect("cv scores");
        };
        let pool: Pool<V> = Pool::new(1, None);
        let run = |label: &str, body: TaskFn<V>| {
            let mut g: TaskGraph<V> = TaskGraph::new();
            let sink = g.task(TaskKind::Train, label, CacheKey::of(label), vec![], body);
            g.resolve(&mut ArtifactCache::new(None), &[sink]);
            pool.submit(g, vec![true], None, None).wait()
        };
        let failed = run(
            "cv-fails",
            Box::new(move |_| {
                score(4);
                Err(CoreError::Unsupported("nope".into()))
            }),
        );
        assert!(failed.is_err());
        let (_, report) = run(
            "cv-succeeds",
            Box::new(move |_| {
                score(3);
                Ok(V(1))
            }),
        )
        .expect("second submission");
        assert_eq!((report.cv_fits, report.fold_reuse), (3, 0), "one fit per fold, its own");
    }

    #[test]
    fn ready_frontier_is_dispatched_heaviest_first() {
        // A resume-shaped frontier: independent ready tasks of mixed kinds.
        // With one worker no other claimant races its pops, so the
        // execution order *is* the push order: Train before Clean before
        // Split before the bookkeeping kinds, regardless of insertion order.
        let mut g: TaskGraph<V> = TaskGraph::new();
        let kinds = [
            TaskKind::Evaluate,
            TaskKind::Split,
            TaskKind::Train,
            TaskKind::Context,
            TaskKind::Clean,
            TaskKind::GenerateDataset,
        ];
        let ids: Vec<TaskId> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                g.task(kind, format!("t{i}"), CacheKey::of(&format!("t{i}")), vec![], move |_| {
                    Ok(V(i as i64))
                })
            })
            .collect();
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &ids);
        let retain = vec![true; g.len()];
        let (tx, rx) = std::sync::mpsc::channel();
        let (arts, _) = Pool::new(1, None).submit(g, retain, Some(tx), None).wait().unwrap();
        assert!(arts.iter().all(Option::is_some));
        let started: Vec<TaskKind> = rx
            .try_iter()
            .filter_map(|e| match e {
                EngineEvent::TaskStarted { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        let expected = [
            TaskKind::Train,
            TaskKind::Clean,
            TaskKind::Split,
            TaskKind::GenerateDataset,
            TaskKind::Context,
            TaskKind::Evaluate,
        ];
        assert_eq!(started, expected, "seeding must order by descending cost weight");
    }

    /// Polls the scheduler state until `done` holds.
    fn wait_until(pool: &Pool<V>, what: &str, done: impl Fn(&State<V>) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(&pool.inner.state.lock().unwrap()) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn phase_of(st: &State<V>, label: &str) -> Phase {
        st.tasks.iter().find(|t| t.label == label).expect("task submitted").phase
    }

    #[test]
    fn one_ready_list_serves_local_pops_and_lease_claims() {
        let pool: Pool<V> = Pool::new(2, None);
        let hold = pool.hold_leasable();
        let spec_a = b"spec-a".to_vec();
        let root = |g: &mut TaskGraph<V>, kind: TaskKind, label: &str, deps: Vec<TaskId>| {
            g.task(kind, label, CacheKey::of(&format!("list-{label}")), deps, |_| Ok(V(1)))
        };
        let submit =
            |mut g: TaskGraph<V>, ids: &[TaskId], spec: &[u8], events: Option<EventSink>| {
                let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
                g.resolve(&mut cache, ids);
                let n = g.len();
                pool.submit(g, vec![true; n], events, Some(spec.to_vec()))
            };

        // a heavy task of the same spec whose submission is cancelled:
        // its id stays in the list, stale
        let mut g = TaskGraph::new();
        let orphan = root(&mut g, TaskKind::Train, "orphan", vec![]);
        let cancelled = submit(g, &[orphan], &spec_a, None);
        cancelled.cancel();
        assert!(cancelled.wait().is_err());
        // a heavy task of another spec
        let mut g = TaskGraph::new();
        let other_id = root(&mut g, TaskKind::Train, "other", vec![]);
        let other = submit(g, &[other_id], b"spec-b", None);

        // the submission under test: two kinds that never travel, and
        // leasable tasks seeded (t1, t2, …) or released by `gen` (t3)
        let mut g = TaskGraph::new();
        let gen = root(&mut g, TaskKind::GenerateDataset, "gen", vec![]);
        let mut ids = vec![gen, root(&mut g, TaskKind::Reduce, "red", vec![])];
        for (kind, label) in [
            (TaskKind::Split, "s1"),
            (TaskKind::Train, "t1"),
            (TaskKind::Evaluate, "e1"),
            (TaskKind::Clean, "c1"),
            (TaskKind::Train, "t2"),
        ] {
            ids.push(root(&mut g, kind, label, vec![]));
        }
        ids.push(root(&mut g, TaskKind::Train, "t3", vec![gen]));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = submit(g, &ids, &spec_a, Some(tx));

        // under the hold, the local workers run only `gen` and `red`
        wait_until(&pool, "gen, red and t3", |st| {
            phase_of(st, "gen") == Phase::Done
                && phase_of(st, "red") == Phase::Done
                && phase_of(st, "t3") == Phase::Queued
        });

        // lease claims: heaviest first, the newest among equals (t3 was
        // released after the seeds, and seeds of one weight pop lowest id
        // first), never the orphan, never spec B
        let key_a = spec_key_of(&spec_a);
        let mut claimed = Vec::new();
        {
            let mut st = pool.inner.state.lock().unwrap();
            while let Some(gid) = pool.inner.claim_leasable(&mut st, key_a) {
                claimed.push((gid, st.tasks[gid].label.clone()));
            }
        }
        let labels: Vec<&str> = claimed.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(labels, ["t3", "t1", "t2", "c1", "s1", "e1"]);

        // released, the local workers run spec B's task and drop the
        // orphan's stale id, but never pop a claimed task
        drop(hold);
        other.wait().expect("spec B runs locally");
        wait_until(&pool, "an empty ready list", |st| st.ready.is_empty());
        {
            let mut st = pool.inner.state.lock().unwrap();
            assert_eq!(phase_of(&st, "orphan"), Phase::Orphaned, "a stale id was run");
            for &(gid, _) in &claimed {
                assert_eq!(st.tasks[gid].phase, Phase::Running);
                assert!(st.tasks[gid].run.is_some(), "a claimed task was popped locally");
                let (artifact, dur) = (Arc::new(V(1)), Duration::ZERO);
                let done = Finished { artifact, remote: true, stored: None, cv: (0, 0), dur };
                pool.inner.complete_ok(&mut st, gid, done);
            }
        }
        let (_, report) = handle.wait().expect("main submission");
        assert_eq!(report.local_total(), 2);
        assert_eq!(report.remote_total(), 6);
        let started: Vec<String> = rx
            .try_iter()
            .filter_map(|e| match e {
                EngineEvent::TaskStarted { label, .. } => Some(label),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), 2, "{started:?}");
        assert!(started.iter().all(|l| l == "gen" || l == "red"), "{started:?}");
    }

    #[test]
    fn wide_graph_saturates_many_workers() {
        let mut g: TaskGraph<V> = TaskGraph::new();
        let leaves: Vec<TaskId> = (0..100)
            .map(|i| {
                g.task(
                    TaskKind::Train,
                    format!("leaf{i}"),
                    CacheKey::of(&format!("leaf{i}")),
                    vec![],
                    move |_| Ok(V(i as i64)),
                )
            })
            .collect();
        let sum = g.task(TaskKind::Reduce, "sum", CacheKey::of("sum"), leaves.clone(), |d| {
            Ok(V(d.iter().map(|v| v.0).sum()))
        });
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &[sum]);
        let retain = retain_only(g.len(), &[sum]);
        let (arts, _) = Pool::new(8, None).submit(g, retain, None, None).wait().unwrap();
        assert_eq!(arts[sum].as_deref(), Some(V(4950)).as_ref());
    }

    // -- resident-pool semantics ------------------------------------------

    fn counting_graph(tag: &str, n_leaves: i64) -> (TaskGraph<V>, TaskId) {
        let mut g: TaskGraph<V> = TaskGraph::new();
        let leaves: Vec<TaskId> = (0..n_leaves)
            .map(|i| {
                g.task(
                    TaskKind::Train,
                    format!("{tag}-leaf{i}"),
                    CacheKey::of(&format!("{tag}-leaf{i}")),
                    vec![],
                    move |_| {
                        std::thread::sleep(Duration::from_millis(5));
                        Ok(V(i))
                    },
                )
            })
            .collect();
        let sum = g.task(
            TaskKind::Reduce,
            format!("{tag}-sum"),
            CacheKey::of(&format!("{tag}-sum")),
            leaves,
            |d| Ok(V(d.iter().map(|v| v.0).sum())),
        );
        (g, sum)
    }

    #[test]
    fn overlapping_submissions_share_in_flight_tasks() {
        let pool: Pool<V> = Pool::new(4, None);
        // Two submissions of the *same* graph, submitted back to back so
        // the second merges while the first is in flight: the leaves must
        // execute exactly once in total.
        let (mut g1, s1) = counting_graph("share", 12);
        let (mut g2, s2) = counting_graph("share", 12);
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g1.resolve(&mut cache, &[s1]);
        let mut cache2: ArtifactCache<V> = ArtifactCache::new(None);
        g2.resolve(&mut cache2, &[s2]);
        let h1 = pool.submit(g1, retain_only(13, &[s1]), None, None);
        let h2 = pool.submit(g2, retain_only(13, &[s2]), None, None);
        let (a1, st1) = h1.wait().expect("first submission");
        let (a2, st2) = h2.wait().expect("second submission");
        assert_eq!(a1[s1].as_deref(), Some(V(66)).as_ref());
        assert_eq!(a2[s2].as_deref(), Some(V(66)).as_ref());
        assert_eq!(
            st1.executed(TaskKind::Train) + st2.executed(TaskKind::Train),
            12,
            "overlapping submissions must dedupe onto the same in-flight tasks: {st1:?} {st2:?}"
        );
    }

    #[test]
    fn each_submission_ranks_only_its_own_tasks() {
        // Two submissions in flight at once on one pool: each report's
        // slowest-tasks table holds its own tasks and no other's.
        let pool: Pool<V> = Pool::new(2, None);
        let submit = |tag: &str, n_leaves: i64| {
            let (mut g, sum) = counting_graph(tag, n_leaves);
            g.resolve(&mut ArtifactCache::new(None), &[sum]);
            let n = g.len();
            pool.submit(g, retain_only(n, &[sum]), None, None)
        };
        let (big, small) = (submit("rank-big", 12), submit("rank-small", 3));
        let (_, small) = small.wait().expect("small submission");
        let (_, big) = big.wait().expect("big submission");
        for (report, own, len) in [(&big, "rank-big-", 8), (&small, "rank-small-", 4)] {
            let slow = &report.slowest;
            assert_eq!(slow.len(), len, "{slow:?}");
            assert!(slow.iter().all(|s| s.label.starts_with(own)), "{slow:?}");
            assert!(slow.windows(2).all(|w| w[0].dur_us >= w[1].dur_us), "{slow:?}");
        }
        assert!(small.slowest.iter().any(|s| s.label == "rank-small-sum"), "{:?}", small.slowest);
    }

    #[test]
    fn slow_task_table_keeps_top_eight_descending() {
        // offered out of order: 5 is coprime to 12, so every duration
        // from 1 to 12 ms comes once
        let mut report = RunReport::default();
        for i in 0..12u64 {
            let ms = (i * 5) % 12 + 1;
            report.count_slow(&format!("task{ms}"), TaskKind::Train, Duration::from_millis(ms));
        }
        let slow = &report.slowest;
        assert_eq!(slow.len(), SLOWEST_LEN);
        assert_eq!((slow[0].label.as_str(), slow[0].kind), ("task12", TaskKind::Train));
        for w in slow.windows(2) {
            assert!(w[0].dur_us >= w[1].dur_us, "table must be descending");
        }
        assert_eq!(slow.last().map(|s| s.dur_us), Some(5000), "fastest four dropped");
    }

    #[test]
    fn cancel_releases_a_subgraph_without_disturbing_the_other() {
        let pool: Pool<V> = Pool::new(2, None);
        let (mut g1, s1) = counting_graph("keep", 16);
        let (mut g2, s2) = counting_graph("drop", 16);
        let mut c1: ArtifactCache<V> = ArtifactCache::new(None);
        g1.resolve(&mut c1, &[s1]);
        let mut c2: ArtifactCache<V> = ArtifactCache::new(None);
        g2.resolve(&mut c2, &[s2]);
        let h1 = pool.submit(g1, retain_only(17, &[s1]), None, None);
        let h2 = pool.submit(g2, retain_only(17, &[s2]), None, None);
        h2.cancel();
        let err = h2.wait().expect_err("cancelled submission must error");
        assert!(err.to_string().contains("cancelled"), "{err}");
        let (a1, _) = h1.wait().expect("surviving submission");
        assert_eq!(a1[s1].as_deref(), Some(V(120)).as_ref(), "cancel must not disturb the other");
    }

    #[test]
    fn retired_artifacts_are_freed() {
        // Once its last consumer has finished, an unretained intermediate
        // is dropped: nothing in the pool keeps its allocation alive.
        let pool: Pool<V> = Pool::new(2, None);
        let (tx, rx) = std::sync::mpsc::channel::<std::sync::Weak<V>>();
        let mut g: TaskGraph<V> = TaskGraph::new();
        let leaf =
            g.task(TaskKind::Split, "freed-leaf", CacheKey::of("freed-leaf"), vec![], |_| Ok(V(4)));
        let sink = g.task(
            TaskKind::Evaluate,
            "freed-sink",
            CacheKey::of("freed-sink"),
            vec![leaf],
            move |d| {
                tx.send(Arc::downgrade(&d[0])).expect("send");
                Ok(V(d[0].0 + 1))
            },
        );
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &[sink]);
        let (arts, _) = pool.submit(g, retain_only(2, &[sink]), None, None).wait().unwrap();
        assert_eq!(arts[sink].as_deref(), Some(V(5)).as_ref());
        let leaf_handle = rx.recv().expect("the consumer ran");
        assert!(leaf_handle.upgrade().is_none(), "the pool kept a retired artifact alive");
    }

    #[test]
    fn rearmed_evicted_entry_does_not_double_count_a_live_submission() {
        // Regression: S1 finishes but stays uncollected; its unretained
        // leaf retires (the pool drops it) once S1's sink has run. S2
        // re-demands the leaf, which must be re-armed and re-executed —
        // WITHOUT decrementing S1's completed bookkeeping a second time
        // (previously a usize underflow in `complete_ok`).
        let pool: Pool<V> = Pool::new(1, None);

        let mut g1: TaskGraph<V> = TaskGraph::new();
        let l1 = g1
            .task(TaskKind::Train, "evict-leaf", CacheKey::of("evict-leaf"), vec![], |_| Ok(V(5)));
        let s1 = g1.task(TaskKind::Evaluate, "evict-a", CacheKey::of("evict-a"), vec![l1], |d| {
            Ok(V(d[0].0 + 1))
        });
        let mut c1: ArtifactCache<V> = ArtifactCache::new(None);
        g1.resolve(&mut c1, &[s1]);
        let h1 = pool.submit(g1, retain_only(2, &[s1]), None, None);
        while !h1.done() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // h1 deliberately NOT collected yet: S1 stays live in the table.

        // S2 re-demands the leaf under a new sink: re-armed, re-executed.
        let mut g2: TaskGraph<V> = TaskGraph::new();
        let l2 = g2
            .task(TaskKind::Train, "evict-leaf", CacheKey::of("evict-leaf"), vec![], |_| Ok(V(5)));
        let s2 = g2.task(TaskKind::Evaluate, "evict-b", CacheKey::of("evict-b"), vec![l2], |d| {
            Ok(V(d[0].0 * 10))
        });
        let mut c2: ArtifactCache<V> = ArtifactCache::new(None);
        g2.resolve(&mut c2, &[s2]);
        let (a2, st2) = pool.submit(g2, retain_only(2, &[s2]), None, None).wait().expect("S2");
        assert_eq!(a2[s2].as_deref(), Some(V(50)).as_ref());
        let trains =
            st2.executed.iter().find(|(k, _)| *k == TaskKind::Train).map_or(0, |(_, n)| *n);
        assert_eq!(trains, 1, "retired leaf must re-execute for S2");

        // And S1 is still collectable, with its own accounting intact.
        let (a1, st1) = h1.wait().expect("S1 collects after the re-arm");
        assert_eq!(a1[s1].as_deref(), Some(V(6)).as_ref());
        assert_eq!(st1.executed.iter().map(|(_, n)| n).sum::<usize>(), 2);
    }

    #[test]
    fn sibling_consumers_share_one_input_allocation() {
        // The zero-copy contract: every consumer of a dependency receives
        // a handle to the SAME allocation — Arc::ptr_eq across siblings —
        // not a per-consumer deep copy.
        let pool: Pool<V> = Pool::new(2, None);
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let mut g: TaskGraph<V> = TaskGraph::new();
        let base =
            g.task(TaskKind::GenerateDataset, "base", CacheKey::of("ptr-base"), vec![], |_| {
                Ok(V(3))
            });
        let consumers: Vec<TaskId> = (0..9)
            .map(|i| {
                let tx = tx.clone();
                g.task(
                    TaskKind::Train,
                    format!("c{i}"),
                    CacheKey::of(&format!("ptr-c{i}")),
                    vec![base],
                    move |d| {
                        tx.send(Arc::as_ptr(&d[0]) as usize).expect("send");
                        Ok(V(d[0].0 * 2))
                    },
                )
            })
            .collect();
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        g.resolve(&mut cache, &consumers);
        let (arts, _) =
            pool.submit(g, retain_only(10, &consumers), None, None).wait().expect("run");
        for &c in &consumers {
            assert_eq!(arts[c].as_deref(), Some(V(6)).as_ref());
        }
        drop(tx);
        let ptrs: Vec<usize> = rx.into_iter().collect();
        assert_eq!(ptrs.len(), 9);
        assert!(
            ptrs.iter().all(|&p| p == ptrs[0]),
            "all nine sibling Train tasks must share one decoded input: {ptrs:?}"
        );
    }

    #[test]
    fn sibling_trains_share_one_argsort_sidecar() {
        // The other half of the zero-copy contract: handle sharing makes
        // the matrix's lazily-built argsort sidecar per *cell*, not per
        // consumer — every sibling Train triggers the same OnceLock, so
        // the O(d · n log n) sort runs once however many models read it.
        use cleanml_dataset::FeatureMatrix;

        #[derive(Clone)]
        struct M(Arc<FeatureMatrix>);
        impl std::fmt::Debug for M {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "M")
            }
        }
        impl DiskCodec for M {
            fn encode(&self) -> Option<Vec<u8>> {
                None
            }
            fn decode(_: &[u8]) -> Option<Self> {
                None
            }
        }

        let pool: Pool<M> = Pool::new(2, None);
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let mut g: TaskGraph<M> = TaskGraph::new();
        let base = g.task(TaskKind::Split, "cell", CacheKey::of("sidecar-cell"), vec![], |_| {
            let m = FeatureMatrix::from_parts(
                vec![2.0, 0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 1.0],
                4,
                2,
                vec![0, 1, 0, 1],
                2,
            );
            Ok(M(Arc::new(m)))
        });
        let trains: Vec<TaskId> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                g.task(
                    TaskKind::Train,
                    format!("train{i}"),
                    CacheKey::of(&format!("sidecar-train{i}")),
                    vec![base],
                    move |d| {
                        tx.send(Arc::as_ptr(d[0].0.sorted_cols()) as usize).expect("send");
                        Ok(M(Arc::clone(&d[0].0)))
                    },
                )
            })
            .collect();
        let mut cache: ArtifactCache<M> = ArtifactCache::new(None);
        g.resolve(&mut cache, &trains);
        pool.submit(g, retain_only(5, &trains), None, None).wait().expect("run");
        drop(tx);
        let ptrs: Vec<usize> = rx.into_iter().collect();
        assert_eq!(ptrs.len(), 4);
        assert!(
            ptrs.iter().all(|&p| p == ptrs[0]),
            "argsort sidecar must be computed once per cell: {ptrs:?}"
        );
    }

    #[test]
    fn a_failure_poisons_only_the_demanding_submission() {
        let pool: Pool<V> = Pool::new(2, None);
        let mut g1: TaskGraph<V> = TaskGraph::new();
        let bad = g1.task(TaskKind::Train, "bad", CacheKey::of("fail-bad"), vec![], |_| {
            Err(CoreError::Unsupported("nope".into()))
        });
        let s1 =
            g1.task(TaskKind::Evaluate, "after", CacheKey::of("fail-after"), vec![bad], |_| {
                Ok(V(1))
            });
        let mut c1: ArtifactCache<V> = ArtifactCache::new(None);
        g1.resolve(&mut c1, &[s1]);

        let (mut g2, s2) = counting_graph("healthy", 8);
        let mut c2: ArtifactCache<V> = ArtifactCache::new(None);
        g2.resolve(&mut c2, &[s2]);

        let h1 = pool.submit(g1, retain_only(2, &[s1]), None, None);
        let h2 = pool.submit(g2, retain_only(9, &[s2]), None, None);
        assert!(h1.wait().is_err(), "failing submission must error");
        let (a2, _) = h2.wait().expect("independent submission must survive a failure");
        assert_eq!(a2[s2].as_deref(), Some(V(28)).as_ref());
    }
}
