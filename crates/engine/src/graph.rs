//! The task DAG: typed nodes, content-addressed deduplication, and
//! cache-aware demand resolution.

use std::collections::HashMap;
use std::sync::Arc;

use cleanml_core::CoreError;

use crate::cache::{ArtifactCache, CacheKey, DiskCodec};
use crate::event::TaskKind;

/// Index of a task inside its graph.
pub type TaskId = usize;

/// A task body: consumes shared handles to its dependencies' artifacts
/// (in declaration order), produces one artifact. Handles are zero-copy:
/// the seven sibling Train tasks (one per model family) reading one
/// cleaned matrix all hold the *same* decoded allocation, never seven deep
/// copies, and so do the seven dirty-side Train tasks reading one split.
pub type TaskFn<A> = Box<dyn FnOnce(Vec<Arc<A>>) -> Result<A, CoreError> + Send>;

/// Execution-relevant state of one node after [`TaskGraph::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Will execute on the pool.
    Run,
    /// Satisfied from the cache; its artifact is pre-filled.
    Cached,
    /// Nothing demands it (every consumer was a cache hit); never executes.
    Pruned,
}

pub struct TaskNode<A> {
    pub kind: TaskKind,
    pub label: String,
    pub key: CacheKey,
    pub deps: Vec<TaskId>,
    pub(crate) run: Option<TaskFn<A>>,
    pub(crate) prefilled: Option<Arc<A>>,
    pub(crate) state: NodeState,
}

/// A DAG of typed, content-addressed tasks.
pub struct TaskGraph<A> {
    pub(crate) nodes: Vec<TaskNode<A>>,
    /// Content address → node: dedups [`TaskGraph::task`], and a remote
    /// worker finds a leased task by it.
    pub(crate) by_key: HashMap<CacheKey, TaskId>,
}

impl<A> Default for TaskGraph<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> TaskGraph<A> {
    pub fn new() -> Self {
        TaskGraph { nodes: Vec::new(), by_key: HashMap::new() }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a task, deduplicating by content address: if an identical task
    /// (same key) is already present, its id is returned and `run` is
    /// dropped. Dependencies must already be in the graph (ids precede the
    /// new node), which makes cycles unrepresentable.
    pub fn task(
        &mut self,
        kind: TaskKind,
        label: impl Into<String>,
        key: CacheKey,
        deps: Vec<TaskId>,
        run: impl FnOnce(Vec<Arc<A>>) -> Result<A, CoreError> + Send + 'static,
    ) -> TaskId {
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.nodes.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} not yet in graph");
        }
        self.nodes.push(TaskNode {
            kind,
            label: label.into(),
            key,
            deps,
            run: Some(Box::new(run)),
            prefilled: None,
            state: NodeState::Run,
        });
        self.by_key.insert(key, id);
        id
    }
}

impl<A: DiskCodec> TaskGraph<A> {
    /// Resolves the graph against the cache, demand-driven from `sinks`:
    /// a cache hit pre-fills the node and stops the downward traversal, so
    /// the whole subtree feeding only cached results is pruned. Returns
    /// `(cache_hits, disk_hits, pruned, to_run)`, where `disk_hits` are the
    /// cache hits the disk store answered.
    pub fn resolve(
        &mut self,
        cache: &mut ArtifactCache<A>,
        sinks: &[TaskId],
    ) -> (usize, usize, usize, usize) {
        let n = self.nodes.len();
        let mut demanded = vec![false; n];
        let mut disk_hits = 0;
        let mut stack: Vec<TaskId> = sinks.to_vec();
        while let Some(id) = stack.pop() {
            if demanded[id] {
                continue;
            }
            demanded[id] = true;
            if let Some((artifact, from_disk)) = cache.get(self.nodes[id].key) {
                disk_hits += usize::from(from_disk);
                self.nodes[id].prefilled = Some(artifact);
                self.nodes[id].state = NodeState::Cached;
                continue; // dependencies not demanded
            }
            stack.extend_from_slice(&self.nodes[id].deps);
        }
        let mut hits = 0;
        let mut pruned = 0;
        let mut to_run = 0;
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if !demanded[id] {
                node.state = NodeState::Pruned;
                pruned += 1;
            } else {
                match node.state {
                    NodeState::Cached => hits += 1,
                    _ => to_run += 1,
                }
            }
        }
        (hits, disk_hits, pruned, to_run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn dedup_by_key() {
        let mut g: TaskGraph<V> = TaskGraph::new();
        let k = CacheKey::of("shared");
        let a = g.task(TaskKind::GenerateDataset, "a", k, vec![], |_| Ok(V(1)));
        let b = g.task(TaskKind::GenerateDataset, "b", k, vec![], |_| Ok(V(2)));
        assert_eq!(a, b);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn resolve_prunes_upstream_of_cache_hits() {
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        let sink_key = CacheKey::of("sink");
        cache.put(sink_key, &Arc::new(V(42)));

        let mut g: TaskGraph<V> = TaskGraph::new();
        let dep = g.task(TaskKind::Train, "dep", CacheKey::of("dep"), vec![], |_| Ok(V(1)));
        let sink = g.task(TaskKind::Evaluate, "sink", sink_key, vec![dep], |d| Ok(V(d[0].0 + 1)));
        let other = g.task(TaskKind::Evaluate, "other", CacheKey::of("other"), vec![dep], |d| {
            Ok(V(d[0].0 * 10))
        });

        let (hits, disk_hits, pruned, to_run) = g.resolve(&mut cache, &[sink, other]);
        assert_eq!((hits, disk_hits), (1, 0), "a memo hit");
        assert_eq!(pruned, 0, "dep is still demanded by `other`");
        assert_eq!(to_run, 2);
        assert_eq!(g.nodes[sink].state, NodeState::Cached);
        assert_eq!(g.nodes[dep].state, NodeState::Run);
    }

    #[test]
    fn resolve_prunes_fully_cached_subtrees() {
        let mut cache: ArtifactCache<V> = ArtifactCache::new(None);
        cache.put(CacheKey::of("s1"), &Arc::new(V(1)));
        cache.put(CacheKey::of("s2"), &Arc::new(V(2)));

        let mut g: TaskGraph<V> = TaskGraph::new();
        let dep = g.task(TaskKind::Train, "dep", CacheKey::of("dep"), vec![], |_| Ok(V(0)));
        let s1 = g.task(TaskKind::Evaluate, "s1", CacheKey::of("s1"), vec![dep], |_| Ok(V(1)));
        let s2 = g.task(TaskKind::Evaluate, "s2", CacheKey::of("s2"), vec![dep], |_| Ok(V(2)));

        let (hits, _, pruned, to_run) = g.resolve(&mut cache, &[s1, s2]);
        assert_eq!(hits, 2);
        assert_eq!(pruned, 1, "training is skipped entirely");
        assert_eq!(to_run, 0);
    }
}
