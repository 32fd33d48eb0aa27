//! Coordinator side of the remote plane: the listening hub plus the
//! per-connection service loops that plug remote peers into the resident
//! engine.
//!
//! A [`RemoteHub`] owns the TCP listener for the engine's whole lifetime.
//! The hub service thread (`spawn_hub_service`, running as long as the
//! pool) accepts connections in arrival order and classifies each, on a
//! thread of its own, by its first bytes:
//!
//! * **a CMAF `Hello`** — a `cleanml-worker`. The connection gets a
//!   lease-service loop that waits for a live study spec (workers may
//!   connect before any submission exists), completes the
//!   `Hello`/`Welcome` handshake, and then behaves like a worker thread
//!   whose "execution" is the wire: it claims a ready task from the merged
//!   frontier (the heaviest leasable task of its spec, found by a scan of
//!   the ready list), sends a `Lease` naming the task by its content key,
//!   serves `Fetch` requests from the live task entries' artifacts or the
//!   disk store, and on a `Done` for that key applies the exact completion
//!   bookkeeping a local worker would — the shipped payload lands in the
//!   [`crate::cache::DiskStore`] *before* any dependent can observe the
//!   artifact. Events about a leased task carry its resident id, as they
//!   would had it run locally.
//! * **an HTTP `GET `/`POST` preamble** — a client of the results gateway
//!   ([`http`]), the only client protocol. Every other first message,
//!   CMAF or not, closes the connection unanswered.
//!
//! Fault containment is the point of the lease: a worker that misses its
//! deadline (no `Done`, no `Heartbeat`, no `Fetch`), whose connection
//! drops, or that answers for a key it was not leased is declared dead,
//! its connection is severed so a late `Done` can never double-complete,
//! and the orphaned task re-enters the ready frontier for whoever claims
//! it next (`PoolInner::reinject`). A `kill -9`'d worker therefore costs
//! exactly its in-flight lease and nothing else.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cleanml_dataset::codec::FRAME_MAGIC;

use crate::cache::{CacheKey, DiskCodec};
use crate::event::EngineEvent;
use crate::pool::{Finished, PoolInner};
use crate::remote::http;
use crate::remote::proto::{self, poll_recv, Message, Polled, PROTOCOL_VERSION};
use crate::study::EngineGateway;
use crate::telemetry;

/// How often idle loops look for new work or new connections.
const POLL: Duration = Duration::from_millis(20);
/// Budget for a connected peer to send its first (classifying) message.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default lease deadline: how long a worker may go silent (no `Done`,
/// `Fetch` or `Heartbeat`) before its task is re-queued. Workers heartbeat
/// at a quarter of this, so only a dead worker ever expires.
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(5);

/// The accept side of the coordinator. Lives as long as the engine;
/// connections that arrive between submissions wait in the listener's
/// backlog until the hub service accepts them.
pub struct RemoteHub {
    listener: TcpListener,
    addr: SocketAddr,
    lease_timeout: Duration,
}

impl RemoteHub {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port). Nothing
    /// is accepted until a pool serves the hub (`Pool::serve_hub`).
    pub fn bind(addr: &str, lease_timeout: Duration) -> io::Result<Arc<RemoteHub>> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking, so the hub service can notice pool shutdown
        // between connections.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Arc::new(RemoteHub { listener, addr, lease_timeout }))
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn lease_timeout(&self) -> Duration {
        self.lease_timeout
    }
}

/// Spawns the hub service: accepts `hub`'s connections in arrival order
/// and classifies each on its own thread, for as long as the pool lives.
pub(crate) fn spawn_hub_service<A>(
    inner: Arc<PoolInner<A>>,
    hub: Arc<RemoteHub>,
    gateway: Arc<EngineGateway>,
) -> JoinHandle<()>
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    std::thread::spawn(move || {
        while !inner.shutdown.load(Ordering::Acquire) {
            match hub.listener.accept() {
                Ok((stream, _peer)) => {
                    let inner = Arc::clone(&inner);
                    let hub = Arc::clone(&hub);
                    let gateway = Arc::clone(&gateway);
                    std::thread::spawn(move || classify(&inner, &hub, stream, &gateway));
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
    })
}

/// Reads a connection's first bytes and routes it: a CMAF `Hello` to the
/// worker lease loop, an HTTP `GET `/`POST` preamble to the bounded
/// results gateway, and everything else dropped before it can touch the
/// pool.
fn classify<A>(
    inner: &Arc<PoolInner<A>>,
    hub: &RemoteHub,
    stream: TcpStream,
    gateway: &EngineGateway,
) where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    // The accepted stream must be blocking regardless of platform: BSD
    // kernels propagate the listener's O_NONBLOCK through accept(2)
    // (Linux does not), and a non-blocking stream would turn every
    // partially-arrived frame into a WouldBlock that reads as a dead peer.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    // Transport sniff, before the CMAF codec touches the stream: every
    // legitimate frame opens with the magic, every HTTP scrape with
    // "GET ". Peeking (not reading) keeps a frame intact for `poll_recv`
    // below; four bytes of anything else close the connection unanswered.
    let mut prefix = [0u8; 4];
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let _ = stream.set_read_timeout(Some(POLL));
        match stream.peek(&mut prefix) {
            Ok(0) => return, // orderly close before any byte arrived
            Ok(n) if n < 4 => {
                if Instant::now() >= deadline {
                    return;
                }
                // fewer than 4 bytes buffered: peek returns immediately,
                // so pace the retry instead of spinning
                std::thread::sleep(POLL);
            }
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if prefix == *b"GET " || prefix == *b"POST" {
        http::serve_http(&**inner, gateway, stream);
        return;
    }
    if prefix != FRAME_MAGIC {
        // Neither a frame nor an HTTP request: garbage, fail closed.
        // Counted as a request so the HTTP accounting invariant
        // (requests = rejected + not_found + unauthorized + Σ routes)
        // holds over everything that was not a CMAF frame.
        let t = telemetry::global();
        t.http_requests.inc();
        t.http_rejected.inc();
        return;
    }
    let first = loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match poll_recv(&stream, POLL) {
            Polled::Msg(msg) => break msg,
            Polled::Pending => {
                // a probe or scanner that never speaks must not pin a
                // thread past the handshake budget
                if Instant::now() >= deadline {
                    return;
                }
            }
            Polled::Closed => return,
        }
    };
    if let hello @ Message::Hello { .. } = first {
        serve_worker(inner, hub, stream, hello);
    } // anything else is a protocol violation: drop the connection
}

/// Serves one `Fetch`: the live entry's artifact (an Arc-cheap clone,
/// encoded outside the scheduler lock), then the disk store's framed
/// payload. Artifacts without a wire form — generated
/// datasets — answer `NoArtifact`, and the worker recomputes them locally
/// (they are cheap and deterministic by construction).
fn serve_fetch<A>(inner: &PoolInner<A>, key: CacheKey) -> Message
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    if let Some(payload) = inner.fetch_artifact(key).and_then(|a| a.encode()) {
        return Message::Artifact { key, payload };
    }
    if let Some(store) = &inner.persist {
        if let Some(payload) = store.load(key) {
            return Message::Artifact { key, payload };
        }
    }
    Message::NoArtifact { key }
}

enum LeaseOutcome {
    Completed,
    /// The lease is lost (the worker died or broke protocol, or the
    /// coordinator is shutting down): its task goes back to the frontier.
    Dead,
    /// The task failed; the run is over for its submissions.
    Aborted,
}

/// The per-connection lease loop. Any protocol violation, decode failure,
/// disconnection or deadline miss severs the connection; an in-flight
/// lease is re-injected into the frontier, so the only way a task is lost
/// is if the whole coordinator dies — and the disk store covers that.
fn serve_worker<A>(inner: &Arc<PoolInner<A>>, hub: &RemoteHub, stream: TcpStream, hello: Message)
where
    A: Clone + Send + Sync + DiskCodec + 'static,
{
    let name = match hello {
        Message::Hello { version, name } if version == PROTOCOL_VERSION => name,
        Message::Hello { version, .. } => {
            let reason =
                format!("protocol version {version}, coordinator speaks {PROTOCOL_VERSION}");
            let _ = proto::send(&mut &stream, &Message::Reject { reason });
            return;
        }
        _ => return,
    };

    // Wait for a live study spec: a worker may connect before the first
    // submission exists. Its heartbeats are consumed while it waits.
    let (spec_key, spec_bytes) = loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        {
            let st = inner.state.lock().expect("state lock");
            if let Some(spec) = inner.pick_spec(&st) {
                break spec;
            }
        }
        match poll_recv(&stream, POLL) {
            Polled::Pending | Polled::Msg(Message::Heartbeat) => {}
            Polled::Msg(_) | Polled::Closed => return,
        }
    };
    if proto::send(&mut &stream, &Message::Welcome { spec: spec_bytes }).is_err() {
        return;
    }
    {
        let mut st = inner.state.lock().expect("state lock");
        inner.worker_joined(&mut st, spec_key, &name);
    }
    let t = telemetry::global();
    t.workers_joined.inc();
    t.workers_connected.inc();
    let trace_tid = t.next_remote_tid();

    let lease_timeout = hub.lease_timeout();
    let mut completed = 0usize;
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            let _ = proto::send(&mut &stream, &Message::Bye);
            break;
        }
        {
            // the worker is bound to one spec (its rebuilt graph); once no
            // live submission runs under it, the session ends cleanly
            let st = inner.state.lock().expect("state lock");
            if !inner.spec_live(&st, spec_key) {
                drop(st);
                let _ = proto::send(&mut &stream, &Message::Bye);
                break;
            }
        }
        // Worker-initiated traffic while idle: heartbeats are fine, a Bye
        // or a closed socket retires the worker.
        match poll_recv(&stream, Duration::from_millis(1)) {
            Polled::Pending => {}
            Polled::Msg(Message::Heartbeat) => {
                t.heartbeats.inc();
                continue;
            }
            Polled::Msg(_) | Polled::Closed => break,
        }
        let claimed = {
            let mut st = inner.state.lock().expect("state lock");
            inner.claim_leasable(&mut st, spec_key).map(|gid| {
                let t = &st.tasks[gid];
                let (kind, key, label) = (t.kind, t.key, t.label.clone());
                let started = EngineEvent::TaskStarted { id: gid, kind, label: label.clone() };
                inner.emit_to_subs(&st, gid, started);
                (gid, kind, key, label)
            })
        };
        let Some((gid, kind, key, label)) = claimed else {
            std::thread::sleep(POLL);
            continue;
        };
        let lease = Message::Lease { key, deadline_ms: lease_timeout.as_millis() as u64 };
        if proto::send(&mut &stream, &lease).is_err() {
            inner.reinject(&mut inner.state.lock().expect("state lock"), gid, &name);
            break;
        }
        let lease_start = Instant::now();
        t.leases_issued.inc();
        t.leases_active.inc();

        // The lease conversation: serve fetches, extend on traffic, and
        // either complete the task or declare the worker dead.
        let mut deadline = Instant::now() + lease_timeout;
        let outcome = loop {
            if inner.shutdown.load(Ordering::Acquire) {
                let _ = proto::send(&mut &stream, &Message::Bye);
                break LeaseOutcome::Dead;
            }
            match poll_recv(&stream, POLL) {
                Polled::Pending => {
                    if Instant::now() >= deadline {
                        break LeaseOutcome::Dead;
                    }
                }
                Polled::Closed => break LeaseOutcome::Dead,
                Polled::Msg(msg) => {
                    deadline = Instant::now() + lease_timeout;
                    t.leases_renewed.inc();
                    match msg {
                        Message::Fetch { key } => {
                            let resp = serve_fetch(&**inner, key);
                            if let Message::Artifact { payload, .. } = &resp {
                                t.fetch_bytes_out.add(payload.len() as u64);
                            }
                            if proto::send(&mut &stream, &resp).is_err() {
                                break LeaseOutcome::Dead;
                            }
                        }
                        Message::Heartbeat => t.heartbeats.inc(),
                        Message::Done { key: done, payload } if done == key => {
                            // The payload must decode to a whole artifact
                            // before anything reaches the store or a slot:
                            // a truncated or corrupt shipment poisons the
                            // connection, not the run.
                            t.fetch_bytes_in.add(payload.len() as u64);
                            match A::decode(&payload) {
                                Some(artifact) => {
                                    // durability before progress, and
                                    // before the scheduler lock
                                    let stored = inner
                                        .persist
                                        .as_ref()
                                        .and_then(|store| store.store(key, &payload));
                                    // a remote body's CV work stays uncounted
                                    let done = Finished {
                                        artifact: Arc::new(artifact),
                                        remote: true,
                                        stored,
                                        cv: (0, 0),
                                        dur: lease_start.elapsed(),
                                    };
                                    let mut st = inner.state.lock().expect("state lock");
                                    inner.complete_ok(&mut st, gid, done);
                                    completed += 1;
                                    break LeaseOutcome::Completed;
                                }
                                None => break LeaseOutcome::Dead,
                            }
                        }
                        Message::Failed { key: failed, error } if failed == key => {
                            let err = cleanml_core::CoreError::Unsupported(format!(
                                "remote worker '{name}' failed task '{label}': {error}"
                            ));
                            let mut st = inner.state.lock().expect("state lock");
                            inner.complete_err(&mut st, gid, err);
                            break LeaseOutcome::Aborted;
                        }
                        // Done or Failed for another key, Bye mid-lease, or
                        // any coordinator-side message echoed back:
                        // protocol violation — sever.
                        _ => break LeaseOutcome::Dead,
                    }
                }
            }
        };
        t.leases_active.dec();
        match outcome {
            LeaseOutcome::Completed => {
                let dur = lease_start.elapsed();
                t.lease_seconds.observe(dur);
                if t.tracing_on() {
                    let args = vec![
                        ("kind", kind.name().to_string()),
                        ("site", "remote".to_string()),
                        ("worker", name.clone()),
                    ];
                    t.span(&label, kind.name(), lease_start, dur, trace_tid, args);
                }
                continue;
            }
            LeaseOutcome::Aborted => break,
            LeaseOutcome::Dead => {
                inner.reinject(&mut inner.state.lock().expect("state lock"), gid, &name);
                break;
            }
        }
    }
    t.workers_connected.dec();
    let st = inner.state.lock().expect("state lock");
    inner.emit_to_spec(&st, spec_key, EngineEvent::WorkerLeft { worker: name, completed });
}
