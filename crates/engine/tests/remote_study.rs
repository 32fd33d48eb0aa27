//! The distributed-execution guarantees, proven over an in-process
//! loopback harness: real `std::net` TCP sockets on 127.0.0.1, worker
//! sessions running on plain threads — no child processes, so the suite
//! can kill "machines" by dropping connections and still assert on both
//! sides' internal state.
//!
//! The headline property mirrors the engine's serial-equivalence contract,
//! extended across the wire: a study executed by any mix of local threads
//! and remote workers — including a worker killed mid-lease and a worker
//! whose lease expires — produces CSVs byte-identical to the serial path.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use cleanml_core::schema::ErrorType;
use cleanml_core::{run_study, CleanMlDb, ExperimentConfig};
use cleanml_engine::remote::{run_worker, FaultPlan, WorkerSummary};
use cleanml_engine::{Engine, EngineConfig, EngineEvent, TaskKind};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, parallel: false, ..ExperimentConfig::quick() }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cleanml-remote-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders the full relational database the way the `study` binary dumps
/// it, so "byte-identical CSVs" is asserted literally, not inferred from
/// `PartialEq` (under which `-0.0 == 0.0` would hide a formatting
/// divergence).
fn csv_of(db: &CleanMlDb) -> String {
    let mut out = String::new();
    for r in &db.r1 {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:e},{:e},{:e},{},{},{}",
            r.dataset,
            r.error_type.name(),
            r.detection.name(),
            r.repair.name(),
            r.model.name(),
            r.scenario,
            r.flag,
            r.evidence.p_two,
            r.evidence.p_upper,
            r.evidence.p_lower,
            r.evidence.mean_before,
            r.evidence.mean_after,
            r.evidence.n_splits,
        );
    }
    for r in &db.r2 {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:e},{},{}",
            r.dataset,
            r.error_type.name(),
            r.detection.name(),
            r.repair.name(),
            r.scenario,
            r.flag,
            r.evidence.p_two,
            r.evidence.mean_before,
            r.evidence.mean_after,
        );
    }
    for r in &db.r3 {
        let _ = writeln!(
            out,
            "{},{},{},{},{:e},{},{}",
            r.dataset,
            r.error_type.name(),
            r.scenario,
            r.flag,
            r.evidence.p_two,
            r.evidence.mean_before,
            r.evidence.mean_after,
        );
    }
    out
}

/// Connects a worker session to `addr` on its own thread.
fn spawn_worker(
    addr: SocketAddr,
    name: &'static str,
    faults: FaultPlan,
) -> JoinHandle<std::io::Result<WorkerSummary>> {
    std::thread::spawn(move || {
        let stream = TcpStream::connect(addr)?;
        run_worker(stream, name, &faults)
    })
}

fn remote_engine(workers: usize, lease_timeout: Duration, cache_dir: Option<PathBuf>) -> Engine {
    Engine::new(EngineConfig {
        workers,
        cache_dir,
        listen: Some("127.0.0.1:0".into()),
        lease_timeout,
        ..Default::default()
    })
}

/// The three-way equivalence: serial path, N-thread local pool, and a
/// 1-thread coordinator with two remote workers all produce identical
/// `EvalGrid`-derived relations, and the distributed run's accounting adds
/// up — local + remote executed counts cover exactly the to-run frontier.
#[test]
fn serial_local_pool_and_remote_workers_agree() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];
    let dir = temp_dir("equiv");

    let serial = run_study(&ets, &cfg).expect("serial study");

    let mut local = Engine::new(EngineConfig { workers: 4, ..Default::default() });
    let (db_local, report_local) = local.run_study_with_report(&ets, &cfg).expect("local study");

    let mut coord = remote_engine(1, Duration::from_secs(5), Some(dir.clone()));
    let addr = coord.remote_addr().expect("hub bound");
    let w1 = spawn_worker(addr, "loopback-1", FaultPlan::default());
    let w2 = spawn_worker(addr, "loopback-2", FaultPlan::default());
    let (db_remote, report) = coord.run_study_with_report(&ets, &cfg).expect("distributed study");
    drop(coord); // closes the hub; no worker can be left waiting
    let s1 = w1.join().expect("worker 1 thread").expect("worker 1 session");
    let s2 = w2.join().expect("worker 2 thread").expect("worker 2 session");

    assert_eq!(csv_of(&serial), csv_of(&db_local), "serial vs local pool");
    assert_eq!(csv_of(&serial), csv_of(&db_remote), "serial vs remote workers");

    // Accounting: the same DAG ran, every to-run task executed exactly
    // once, and the provenance split is complete.
    assert_eq!(report.total, report_local.total);
    assert_eq!(report.executed_total(), report_local.executed_total());
    let to_run = report.total - report.cache_hits - report.pruned;
    assert_eq!(report.local_total() + report.remote_total(), to_run);
    assert_eq!(report.remote_workers, 2, "both workers handshook");
    assert!(report.remote_total() > 0, "remote workers must have executed tasks");
    assert_eq!(s1.completed + s2.completed, report.remote_total(), "worker-side accounting");
    assert!(s1.fetched + s2.fetched > 0, "inputs travelled by content address");

    // Remote-shipped artifacts landed in the shared store: a fresh local
    // engine on the same directory resumes with zero retraining.
    let mut warm = Engine::new(EngineConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (db_warm, report_warm) = warm.run_study_with_report(&ets, &cfg).expect("warm study");
    assert_eq!(csv_of(&serial), csv_of(&db_warm), "serial vs warm resume");
    assert_eq!(report_warm.executed(TaskKind::Train), 0, "warm resume retrained");
    assert_eq!(report_warm.executed(TaskKind::Clean), 0);
    assert_eq!(report_warm.executed(TaskKind::Split), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Upper bound on any one wait for an engine event; a run that stalls
/// fails the test instead of hanging it.
const EVENT_WAIT: Duration = Duration::from_secs(120);

/// Receives events into `seen` until one satisfies `pred`.
fn wait_for(
    rx: &mpsc::Receiver<EngineEvent>,
    seen: &mut Vec<EngineEvent>,
    pred: impl Fn(&EngineEvent) -> bool,
) {
    loop {
        let event = rx.recv_timeout(EVENT_WAIT).expect("the awaited engine event never came");
        let found = pred(&event);
        seen.push(event);
        if found {
            return;
        }
    }
}

/// The fault-injection scenario of the acceptance criteria: two loopback
/// workers, one killed mid-lease (its connection drops right after the
/// coordinator emitted `TaskStarted` for the lease). The coordinator must
/// re-lease every orphaned task and finish with CSVs byte-identical to the
/// serial run.
///
/// The second lease is forced, not raced for: the local pool holds every
/// leasable task back while the doomed worker is the only remote one, and
/// gets them back only once that worker has died on its second lease and
/// the survivor has joined.
#[test]
fn worker_killed_mid_lease_costs_only_its_in_flight_task() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");

    let (tx, rx) = mpsc::channel();
    let coord = remote_engine(1, Duration::from_secs(5), None).with_events(tx);
    let addr = coord.remote_addr().expect("hub bound");
    let hold = coord.hold_leasable();
    // One worker completes a task, then vanishes upon its second lease —
    // the loopback equivalent of `kill -9` mid-lease.
    let doomed = spawn_worker(
        addr,
        "crash-dummy",
        FaultPlan { die_on_lease: Some(2), ..Default::default() },
    );
    let submission = coord.submit_study(&ets, &cfg);
    let mut events = Vec::new();
    wait_for(
        &rx,
        &mut events,
        |e| matches!(e, EngineEvent::LeaseExpired { worker, .. } if worker == "crash-dummy"),
    );
    // A healthy worker joins the run the doomed one left.
    let healthy = spawn_worker(addr, "survivor", FaultPlan::default());
    wait_for(
        &rx,
        &mut events,
        |e| matches!(e, EngineEvent::WorkerJoined { worker } if worker == "survivor"),
    );
    drop(hold);
    let (db, report) = submission.wait().expect("faulted study");
    drop(coord);
    let _ = healthy.join().expect("healthy thread");
    let doomed_summary = doomed.join().expect("doomed thread").expect("doomed session");

    assert_eq!(csv_of(&serial), csv_of(&db), "a worker death must not change a single byte");
    assert_eq!(doomed_summary.completed, 1, "the doomed worker finished its first lease");
    assert!(report.releases >= 1, "the orphaned lease re-entered the frontier: {report:?}");
    assert_eq!(report.remote_workers, 2);

    events.extend(rx.try_iter());
    let joined = events.iter().filter(|e| matches!(e, EngineEvent::WorkerJoined { .. })).count();
    let expired: Vec<(usize, TaskKind)> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::LeaseExpired { worker, id, kind } if worker == "crash-dummy" => {
                Some((*id, *kind))
            }
            _ => None,
        })
        .collect();
    assert_eq!(joined, 2, "both workers joined");
    assert_eq!(expired.len(), 1, "exactly the in-flight lease was orphaned: {expired:?}");
    // …and the orphaned task was started again (re-leased or run locally):
    let (orphan_id, _) = expired[0];
    let restarts = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::TaskStarted { id, .. } if *id == orphan_id))
        .count();
    assert_eq!(restarts, 2, "orphaned task must start exactly twice");
}

/// A worker that goes silent (stalls past the deadline with heartbeats
/// muted) loses its lease to the deadline, not to a disconnect — and the
/// run still completes byte-identically.
#[test]
fn silent_worker_expires_at_the_lease_deadline() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");

    let (tx, rx) = mpsc::channel();
    let mut coord = remote_engine(2, Duration::from_millis(250), None).with_events(tx);
    let addr = coord.remote_addr().expect("hub bound");
    let mute = spawn_worker(
        addr,
        "tarpit",
        FaultPlan {
            stall: Some(Duration::from_millis(1500)),
            mute_heartbeats: true,
            ..Default::default()
        },
    );
    let (db, report) = coord.run_study_with_report(&ets, &cfg).expect("study with tarpit");
    drop(coord);
    let _ = mute.join().expect("tarpit thread"); // io error is fine: its socket was severed

    assert_eq!(csv_of(&serial), csv_of(&db), "an expired lease must not change results");
    assert!(report.releases >= 1, "the stalled lease must expire: {report:?}");
    assert!(
        rx.try_iter().any(
            |e| matches!(e, EngineEvent::LeaseExpired { ref worker, .. } if worker == "tarpit")
        ),
        "LeaseExpired must be emitted"
    );
}

/// The positive half of the deadline story: a healthy worker heartbeats a
/// quarter-deadline apart, so a lease several times longer than the
/// timeout survives — long `Train` bodies never expire just for being
/// slow.
#[test]
fn heartbeats_keep_slow_but_alive_leases_valid() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");

    let mut coord = remote_engine(2, Duration::from_millis(1500), None);
    let addr = coord.remote_addr().expect("hub bound");
    let slow = spawn_worker(
        addr,
        "slowpoke",
        FaultPlan { stall: Some(Duration::from_millis(3000)), ..Default::default() },
    );
    let (db, report) = coord.run_study_with_report(&ets, &cfg).expect("study with slowpoke");
    drop(coord);
    let summary = slow.join().expect("slowpoke thread").expect("slowpoke session");

    assert_eq!(csv_of(&serial), csv_of(&db), "slow worker vs serial");
    assert!(summary.completed >= 1, "the slow worker's lease must survive via heartbeats");
    assert!(report.remote_total() >= 1);
}
