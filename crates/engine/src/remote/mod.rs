//! The remote plane: lease-based workers over the CMAF wire format and
//! HTTP clients of the results gateway, on one listener.
//!
//! The study DAG and the content-addressed artifact plane were built
//! network-shape from the start — a task is a pure function of explicitly
//! seeded inputs, and every artifact with a serial form travels as the
//! same framed, checksummed bytes whether it lands on disk or on a socket.
//! This module cashes that in:
//!
//! * [`proto`] — the binary message codec of the worker conversation
//!   (`Hello`/`Lease`/`Fetch`/`Artifact`/`Done`/`Heartbeat`/`Bye`), CMAF
//!   frames over the artifact codec's primitives;
//! * [`coordinator`] — the [`RemoteHub`] listener plus the resident hub
//!   service that accepts connections and classifies each by its first
//!   bytes: CMAF frames open the worker plane (remote workers claim tasks
//!   from the engine's merged ready frontier), while an HTTP `GET `/`POST`
//!   preamble is routed to [`http`]'s bounded gateway — `/metrics` and
//!   the `/studies` routes, the only client protocol;
//! * [`worker`] — the stateless worker session: rebuild the identical
//!   graph from the wire spec, fetch inputs by content address, compute,
//!   ship the artifact back.
//!
//! The correctness contract is the repository's usual one, extended across
//! machines: a study executed by any mix of local threads and remote
//! workers — including workers that die mid-lease — produces relations
//! byte-identical to the serial path. Leases are how faults stay cheap: a
//! worker that goes silent past its deadline forfeits exactly its
//! in-flight task, which re-enters the frontier (heaviest first) for
//! whoever claims it next.

pub mod coordinator;
pub mod http;
pub mod proto;
pub mod worker;

pub use coordinator::{RemoteHub, DEFAULT_LEASE_TIMEOUT};
pub use http::{
    parse_query, percent_decode, GatewayError, Profile, Select, StudyState, StudyStatus, SubmitSpec,
};
pub use proto::{
    leasable, poll_recv, Message, Polled, StudySpec, MAX_MESSAGE_BYTES, PROTOCOL_VERSION,
};
pub use worker::{run_worker, FaultPlan, WorkerSummary};
