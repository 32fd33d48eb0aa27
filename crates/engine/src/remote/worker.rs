//! Worker side of the remote executor.
//!
//! A worker is stateless by design: it connects, learns the study from the
//! `Welcome` message and rebuilds the *identical* task graph the
//! coordinator holds (task bodies are deterministic in their explicit
//! seeds, so content addresses agree bit for bit). A `Lease` names its
//! task only by its [`crate::cache::CacheKey`]; the worker finds the node
//! through its graph's key → node map and answers a key the graph lacks
//! with `Failed`, which turns version skew into a loud error instead of
//! silent divergence.
//!
//! For each lease the worker resolves the task's inputs — fetched from the
//! coordinator by content address when they have a wire form, recomputed
//! locally otherwise (generated datasets, which are cheap and
//! deterministic) — executes the task body, and ships the artifact's codec
//! payload back in a `Done`. A heartbeat thread keeps the lease alive
//! while long task bodies (model training) run, so only a genuinely dead
//! worker ever expires.
//!
//! Resolved and computed artifacts are memoized for the session (clones
//! are `Arc`-cheap), so a worker leased many `Train` tasks of one split
//! fetches that split once.
//!
//! [`FaultPlan`] is the fault-injection surface the integration harness
//! uses to prove the coordinator's crash story: a worker can be told to
//! die on the n-th lease (connection drop mid-lease, like `kill -9`) or to
//! stall without heartbeats (deadline expiry).

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cache::{CacheKey, DiskCodec};
use crate::graph::{TaskId, TaskNode};
use crate::remote::proto::{self, Message, Polled, StudySpec, PROTOCOL_VERSION};
use crate::study::{build_study_graph, Artifact};

/// How long a worker read may sit silent before the worker probes the
/// coordinator with a `Heartbeat`. The probe's *write* is what matters: a
/// coordinator that vanished without a FIN (host power-cycle, network
/// partition) never errors a blocked read, but repeated writes fail once
/// the kernel gives up retransmitting — so a "disposable" worker can never
/// become an immortal zombie.
const PROBE_INTERVAL: Duration = Duration::from_secs(30);

/// Deliberate misbehaviour for fault-injection tests. The default plan is
/// a healthy worker.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Close the connection upon *receiving* the n-th lease (1-based),
    /// without executing or replying — the loopback equivalent of
    /// `kill -9` mid-lease.
    pub die_on_lease: Option<usize>,
    /// Sleep this long before executing each leased task.
    pub stall: Option<Duration>,
    /// Suppress heartbeats (with `stall` past the lease deadline, forces
    /// the coordinator's expiry path).
    pub mute_heartbeats: bool,
}

/// What a worker session accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leased tasks completed (a `Done` was shipped).
    pub completed: usize,
    /// Input artifacts fetched from the coordinator.
    pub fetched: usize,
    /// Tasks computed locally: leased tasks plus dependencies the
    /// coordinator had no wire form for.
    pub computed: usize,
}

fn session_over(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

enum TaskError {
    /// The task body (or a dependency decode) failed; reported upstream as
    /// `Failed`, which aborts the run — bodies are deterministic, so the
    /// coordinator would hit the same error locally.
    Task(String),
    /// The session itself died.
    Io(io::Error),
}

struct Session {
    stream: Arc<TcpStream>,
    /// Serializes frame writes between the main thread and the heartbeat
    /// thread — a frame torn by interleaved writers would poison the
    /// connection.
    write_lock: Arc<Mutex<()>>,
    nodes: Vec<TaskNode<Artifact>>,
    by_key: HashMap<CacheKey, TaskId>,
    memo: HashMap<TaskId, Arc<Artifact>>,
    summary: WorkerSummary,
}

impl Session {
    fn send(&self, msg: &Message) -> io::Result<()> {
        let _guard = self.write_lock.lock().expect("write lock");
        proto::send(&mut &*self.stream, msg)
    }

    /// Bounded receive: silent stretches are interrupted every
    /// [`PROBE_INTERVAL`] by a heartbeat probe whose failure reveals a
    /// vanished coordinator. An undecodable or torn frame ends the session
    /// (the stream cannot be resynchronized), mirroring the coordinator's
    /// severing discipline.
    fn recv(&self) -> io::Result<Message> {
        loop {
            match proto::poll_recv(&self.stream, PROBE_INTERVAL) {
                Polled::Msg(msg) => return Ok(msg),
                Polled::Pending => self.send(&Message::Heartbeat)?,
                Polled::Closed => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "coordinator connection ended",
                    ))
                }
            }
        }
    }

    /// Fetch-or-compute one task's artifact.
    fn resolve(&mut self, id: TaskId) -> Result<Arc<Artifact>, TaskError> {
        if let Some(a) = self.memo.get(&id) {
            return Ok(Arc::clone(a));
        }
        let key = self.nodes[id].key;
        self.send(&Message::Fetch { key }).map_err(TaskError::Io)?;
        loop {
            match self.recv().map_err(TaskError::Io)? {
                Message::Artifact { key: k, payload } if k == key => {
                    let artifact = Arc::new(Artifact::decode(&payload).ok_or_else(|| {
                        TaskError::Task(format!("artifact {k} from coordinator does not decode"))
                    })?);
                    self.summary.fetched += 1;
                    self.memo.insert(id, Arc::clone(&artifact));
                    return Ok(artifact);
                }
                Message::NoArtifact { key: k } if k == key => break,
                Message::Heartbeat => {}
                other => {
                    return Err(TaskError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reply to Fetch: {other:?}"),
                    )))
                }
            }
        }
        self.compute(id)
    }

    /// Executes a task body locally, resolving its dependencies first.
    fn compute(&mut self, id: TaskId) -> Result<Arc<Artifact>, TaskError> {
        let dep_ids = self.nodes[id].deps.clone();
        let mut inputs = Vec::with_capacity(dep_ids.len());
        for d in dep_ids {
            inputs.push(self.resolve(d)?);
        }
        let run = self.nodes[id]
            .run
            .take()
            .ok_or_else(|| TaskError::Task(format!("task {id} body already consumed")))?;
        let artifact = Arc::new(run(inputs).map_err(|e| TaskError::Task(e.to_string()))?);
        self.summary.computed += 1;
        self.memo.insert(id, Arc::clone(&artifact));
        Ok(artifact)
    }
}

/// Runs `body` while a background thread heartbeats the coordinator every
/// quarter-deadline, so a healthy worker never expires mid-`Train`. The
/// thread waits on a channel whose sender drops when `body` returns, so
/// the lease ends as soon as the body does.
fn with_heartbeats<T>(
    stream: &Arc<TcpStream>,
    write_lock: &Arc<Mutex<()>>,
    deadline_ms: u64,
    enabled: bool,
    body: impl FnOnce() -> T,
) -> T {
    if !enabled {
        return body();
    }
    let interval = Duration::from_millis((deadline_ms / 4).clamp(10, 1000));
    let (stop, stopped) = mpsc::channel::<()>();
    let beat = {
        let (stream, write_lock) = (Arc::clone(stream), Arc::clone(write_lock));
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                let _guard = write_lock.lock().expect("write lock");
                if proto::send(&mut &*stream, &Message::Heartbeat).is_err() {
                    return; // session is gone; the main thread will notice
                }
            }
        })
    };
    let out = body();
    drop(stop);
    let _ = beat.join();
    out
}

/// Serves one worker session over an established connection: handshake,
/// graph rebuild, then leases until the coordinator says `Bye` or the
/// connection ends. This is the whole worker — the `cleanml-worker` binary
/// is a thin argv wrapper, and tests drive the same function over loopback
/// threads.
pub fn run_worker(stream: TcpStream, name: &str, faults: &FaultPlan) -> io::Result<WorkerSummary> {
    let _ = stream.set_nodelay(true);
    proto::send(
        &mut &stream,
        &Message::Hello { version: PROTOCOL_VERSION, name: name.to_string() },
    )?;
    // The Welcome may be a while coming (a queued connection waits for the
    // coordinator's next run to start), so this wait probes rather than
    // blocks: a coordinator that vanished without closing the connection
    // eventually fails the probe write instead of pinning the worker
    // forever.
    let spec = loop {
        match proto::poll_recv(&stream, PROBE_INTERVAL) {
            Polled::Msg(Message::Welcome { spec }) => {
                break StudySpec::decode(&spec).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "undecodable study spec")
                })?;
            }
            Polled::Msg(Message::Reject { reason }) => {
                return Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
            }
            Polled::Msg(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Welcome, got {other:?}"),
                ))
            }
            Polled::Pending => proto::send(&mut &stream, &Message::Heartbeat)?,
            Polled::Closed => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "coordinator closed before Welcome",
                ))
            }
        }
    };
    let (graph, _grids) = build_study_graph(&spec.error_types, &spec.cfg);
    let mut session = Session {
        stream: Arc::new(stream),
        write_lock: Arc::default(),
        nodes: graph.nodes,
        by_key: graph.by_key,
        memo: HashMap::new(),
        summary: WorkerSummary::default(),
    };

    let mut leases_seen = 0usize;
    loop {
        let msg = match session.recv() {
            Ok(msg) => msg,
            Err(e) if session_over(&e) => return Ok(session.summary),
            Err(e) => return Err(e),
        };
        match msg {
            Message::Lease { key, deadline_ms } => {
                leases_seen += 1;
                if faults.die_on_lease == Some(leases_seen) {
                    // Fault injection: vanish mid-lease, Done never sent.
                    return Ok(session.summary);
                }
                let Some(&id) = session.by_key.get(&key) else {
                    // Version skew: our graph is not the coordinator's.
                    session.send(&Message::Failed {
                        key,
                        error: "study graph mismatch (worker/coordinator version skew?)".into(),
                    })?;
                    continue;
                };
                let outcome = {
                    let stream = Arc::clone(&session.stream);
                    let write_lock = Arc::clone(&session.write_lock);
                    let stall = faults.stall;
                    let heartbeats = !faults.mute_heartbeats;
                    with_heartbeats(&stream, &write_lock, deadline_ms, heartbeats, || {
                        if let Some(pause) = stall {
                            std::thread::sleep(pause);
                        }
                        match session.memo.get(&id).cloned() {
                            Some(a) => Ok(a),
                            None => session.compute(id),
                        }
                    })
                };
                match outcome {
                    Ok(artifact) => match artifact.encode() {
                        Some(payload) => {
                            session.send(&Message::Done { key, payload })?;
                            session.summary.completed += 1;
                        }
                        None => session.send(&Message::Failed {
                            key,
                            error: "leased artifact has no wire form".into(),
                        })?,
                    },
                    Err(TaskError::Task(error)) => {
                        session.send(&Message::Failed { key, error })?;
                    }
                    Err(TaskError::Io(e)) if session_over(&e) => return Ok(session.summary),
                    Err(TaskError::Io(e)) => return Err(e),
                }
            }
            Message::Bye => return Ok(session.summary),
            Message::Heartbeat => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected message from coordinator: {other:?}"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn a_short_body_is_not_held_for_a_heartbeat_interval() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let stream = Arc::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let _peer = listener.accept().expect("accept");
        let started = Instant::now();
        with_heartbeats(&stream, &Arc::default(), 4000, true, || {
            std::thread::sleep(Duration::from_millis(20))
        });
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "a 20 ms body took {took:?}");
    }
}
