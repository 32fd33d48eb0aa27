//! Intra-task parallelism on the resident pool: heavy task bodies fan
//! indexed subwork onto *idle* workers.
//!
//! A task body that calls [`cleanml_parallel::run_indexed`] on a worker
//! thread of a multi-worker pool lands here: the installed
//! [`PoolBridge`] publishes the batch on a pool-wide queue, wakes the
//! pool's parked workers, and keeps claiming indices itself. Idle
//! workers — and only idle workers — pick up the rest between frontier
//! checks, so helping never blocks a claimed task lease: a worker
//! holding a runnable pool task always runs it in preference to
//! someone else's subwork, and the opener makes progress alone even
//! when every other worker is busy.
//!
//! Determinism is owned by `run_indexed`: each claimed index writes its
//! result into its own slot, so *which* thread runs an index never
//! shows in the output, and nested fan-out runs inline. The bridge is
//! only installed when the pool has more than one worker; a
//! single-worker pool executes every body bit-identically to the
//! serial path with zero queue traffic.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cleanml_parallel::{BatchCounters, Parker, SubworkBridge};

thread_local! {
    /// Label and trace track of the pool task currently executing on
    /// this worker thread; subwork batches it opens inherit both, which
    /// is what nests helper spans under the parent task in the Chrome
    /// trace.
    static CURRENT_TASK: RefCell<Option<(String, u64)>> = const { RefCell::new(None) };
}

pub(crate) fn set_current_task(label: &str, tid: u64) {
    CURRENT_TASK.with(|c| *c.borrow_mut() = Some((label.to_string(), tid)));
}

pub(crate) fn clear_current_task() {
    CURRENT_TASK.with(|c| *c.borrow_mut() = None);
}

fn current_task() -> (String, u64) {
    CURRENT_TASK.with(|c| c.borrow().clone()).unwrap_or_else(|| ("subwork".to_string(), 0))
}

/// One fanned-out batch of indexed subtasks.
struct Batch {
    counters: BatchCounters,
    /// The opener's work closure with its lifetime erased. Sound
    /// because [`PoolBridge::run`] does not return until `counters`
    /// reports all indices complete, which happens-after the last
    /// dereference: a helper only touches `work` between claiming an
    /// index and completing it.
    work: &'static (dyn Fn(usize) + Sync),
    /// Parent pool task's label, for helper trace spans.
    label: String,
    /// Parent task's trace track; helper spans land on it.
    tid: u64,
    /// Set when any index panicked. The opener re-raises after the
    /// batch drains, so a panicking subtask fails the parent task just
    /// as it would have serially — and `done` still reaches `n`, so the
    /// opener can never deadlock on a panicked index.
    poisoned: AtomicBool,
    done: Parker,
}

impl Batch {
    fn run_one(&self, i: usize) {
        let r = catch_unwind(AssertUnwindSafe(|| (self.work)(i)));
        if r.is_err() {
            self.poisoned.store(true, Ordering::SeqCst);
        }
        if self.counters.complete() {
            self.done.notify_all();
        }
    }
}

/// The pool-wide subwork queue: open batches, oldest first.
pub(crate) struct SubworkShared {
    queue: Mutex<Vec<Arc<Batch>>>,
}

impl SubworkShared {
    pub(crate) fn new() -> Self {
        SubworkShared { queue: Mutex::new(Vec::new()) }
    }

    /// Whether any open batch still has unclaimed indices. Idle workers
    /// poll this between frontier checks, with no other lock held.
    pub(crate) fn has_work(&self) -> bool {
        self.queue.lock().expect("subwork lock").iter().any(|b| !b.counters.fully_claimed())
    }

    /// Claims and runs subtasks until every open batch is fully
    /// claimed, oldest batch first. Called by idle workers with no pool
    /// lock held; one trace span is recorded per helper-batch stint, on
    /// the parent task's track.
    pub(crate) fn help(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock().expect("subwork lock");
                q.retain(|b| !b.counters.fully_claimed());
                q.first().cloned()
            };
            let Some(batch) = batch else { return };
            let t = crate::telemetry::global();
            let started = Instant::now();
            let mut ran = 0u64;
            while let Some(i) = batch.counters.claim() {
                batch.run_one(i);
                ran += 1;
            }
            if ran > 0 {
                t.subtasks_executed.add(ran);
                if t.tracing_on() {
                    t.span(
                        &format!("sub:{}", batch.label),
                        "subwork",
                        started,
                        started.elapsed(),
                        batch.tid,
                        vec![("subtasks", ran.to_string())],
                    );
                }
            }
        }
    }
}

/// The [`SubworkBridge`] installed on every worker thread of a
/// multi-worker pool.
pub(crate) struct PoolBridge {
    shared: Arc<SubworkShared>,
    /// Wakes workers parked on the pool's `work` condvar when a batch
    /// is published (held weakly through a closure so the bridge never
    /// keeps a dropped pool alive).
    notify: Box<dyn Fn() + Send + Sync>,
}

impl PoolBridge {
    pub(crate) fn new(shared: Arc<SubworkShared>, notify: Box<dyn Fn() + Send + Sync>) -> Self {
        PoolBridge { shared, notify }
    }
}

impl SubworkBridge for PoolBridge {
    fn run(&self, n: usize, work: &(dyn Fn(usize) + Sync)) {
        // SAFETY: this function blocks until `counters` reports all `n`
        // indices complete, so the erased borrow outlives every use.
        let work: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work) };
        let (label, tid) = current_task();
        let batch = Arc::new(Batch {
            counters: BatchCounters::new(n),
            work,
            label,
            tid,
            poisoned: AtomicBool::new(false),
            done: Parker::default(),
        });
        self.shared.queue.lock().expect("subwork lock").push(Arc::clone(&batch));
        (self.notify)();
        let t = crate::telemetry::global();
        t.subwork_batches.inc();
        // Self-drive: the opener claims alongside any helpers, so the
        // batch completes even if no worker ever goes idle — a claimed
        // lease never waits on pool capacity.
        let mut ran = 0u64;
        while let Some(i) = batch.counters.claim() {
            batch.run_one(i);
            ran += 1;
        }
        t.subtasks_executed.add(ran);
        self.shared.queue.lock().expect("subwork lock").retain(|b| !Arc::ptr_eq(b, &batch));
        batch.done.wait_until(|| batch.counters.is_done());
        if batch.poisoned.load(Ordering::SeqCst) {
            panic!("subwork batch of task '{}' panicked", batch.label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_task_roundtrip() {
        assert_eq!(current_task(), ("subwork".to_string(), 0));
        set_current_task("train eeg", 3);
        assert_eq!(current_task(), ("train eeg".to_string(), 3));
        clear_current_task();
        assert_eq!(current_task(), ("subwork".to_string(), 0));
    }

    #[test]
    fn opener_self_drives_with_no_helpers() {
        // No worker ever calls help(): the opener must complete the
        // batch alone, in slot order, and leave the queue empty.
        let shared = Arc::new(SubworkShared::new());
        let bridge = PoolBridge::new(Arc::clone(&shared), Box::new(|| {}));
        let hits = Mutex::new(Vec::new());
        bridge.run(8, &|i| hits.lock().unwrap().push(i));
        let mut got = hits.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert!(!shared.has_work());
        assert!(shared.queue.lock().unwrap().is_empty());
    }

    #[test]
    fn idle_helpers_share_the_batch() {
        let shared = Arc::new(SubworkShared::new());
        let bridge = PoolBridge::new(Arc::clone(&shared), Box::new(|| {}));
        let hits = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // emulate an idle worker's poll loop for a while
                    let deadline = Instant::now() + std::time::Duration::from_secs(2);
                    while Instant::now() < deadline {
                        shared.help();
                        if hits.load(Ordering::SeqCst) >= 64 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            bridge.run(64, &|_| {
                hits.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert!(shared.queue.lock().unwrap().is_empty());
    }

    #[test]
    fn panicking_subtask_fails_the_opener_without_deadlock() {
        let shared = Arc::new(SubworkShared::new());
        let bridge = PoolBridge::new(Arc::clone(&shared), Box::new(|| {}));
        let err = catch_unwind(AssertUnwindSafe(|| {
            bridge.run(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(err.is_err());
        assert!(shared.queue.lock().unwrap().is_empty());
    }
}
