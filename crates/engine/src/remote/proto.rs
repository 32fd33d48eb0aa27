//! The coordinator⇆worker wire protocol, built on the CMAF frame.
//!
//! Every message on the socket is one artifact frame
//! ([`cleanml_dataset::codec::seal_frame`]): magic, format version, payload
//! length, FNV-1a checksum, payload. The payload is a tag byte plus fields
//! encoded with the same varint/bit-pattern/length-prefix primitives the
//! artifact codecs use — there is exactly one serialization plane in the
//! system, and a message survives the same adversarial conditions an
//! artifact file does: truncation, bit flips and oversized length tokens
//! all fail closed as decode errors before any payload byte reaches a
//! handler ([`recv`] additionally caps the declared length at
//! [`MAX_MESSAGE_BYTES`], so a corrupt header can never provoke a huge
//! allocation).
//!
//! The listener carries one CMAF conversation, the worker plane (clients
//! speak HTTP to the gateway instead, see [`crate::remote::http`]):
//!
//! ```text
//! worker                         coordinator
//!   Hello {version, name}  ──►
//!                          ◄──  Welcome {spec}      (or Reject {reason})
//!                          ◄──  Lease {key, deadline_ms}
//!   Fetch {key}            ──►                      (per missing input)
//!                          ◄──  Artifact {key, payload} | NoArtifact {key}
//!   Heartbeat              ──►                      (extends the lease)
//!   Done {key, payload}    ──►                      (or Failed {key, error})
//!                          ◄──  Bye                 (run complete)
//! ```
//!
//! A task has one name on the wire, its content address
//! ([`CacheKey`]): a `Lease` names the task by it, and the `Done` or
//! `Failed` that ends the lease echoes it back.
//!
//! Artifact payloads inside [`Message::Artifact`] and [`Message::Done`] are
//! raw artifact-codec bytes — the same bytes the [`crate::cache::DiskStore`]
//! frames on disk — so a finished artifact travels from a worker's encoder
//! to the coordinator's store without re-serialization.

use std::io::{self, Read, Write};

use cleanml_cleaning::ErrorType;
use cleanml_core::ExperimentConfig;
use cleanml_dataset::codec::{
    open_frame, push_bytes, push_f64, push_str, push_tag, push_u64, push_usize, seal_frame,
    take_bytes, take_f64, take_str, take_tag, take_u64, take_usize, Reader, FORMAT_VERSION,
    FRAME_HEADER_LEN, FRAME_MAGIC,
};
use cleanml_ml::cv::SearchBudget;

use crate::cache::CacheKey;
use crate::event::TaskKind;

/// Remote-protocol version, negotiated in `Hello`. Independent of the
/// artifact [`FORMAT_VERSION`]: the frame wrapper already pins that.
/// Version history: 1 — initial worker + serving planes; 2 — `Status`
/// and `ServeReport` grew a trailing `dropped_events` count; 3 — the
/// serving messages (`Submit`/`Status`/`ResultCsv`/`Cancel`/`ServeError`)
/// are gone, clients use the HTTP gateway; 4 — `StudySpec` lost its
/// trailing `parallel` tag (the experiment configuration no longer has one);
/// 5 — `Lease`, `Done` and `Failed` name the task by its content key:
/// `Lease` lost its graph-local `id` and its `kind`, `Done` and `Failed`
/// carry the key where they carried the id; 6 — content addresses name
/// inputs by key: every task key changed, so a worker of an earlier
/// build, which cannot find a leased key in its graph, is refused at
/// `Hello`.
pub const PROTOCOL_VERSION: u16 = 6;

/// Upper bound on a single message payload. The largest legitimate payload
/// is one artifact (a split's tables for the biggest dataset — a few MiB);
/// anything claiming more is corruption or an attack and is rejected
/// *before* allocation.
pub const MAX_MESSAGE_BYTES: u64 = 256 << 20;

/// Which task kinds a coordinator may lease to a remote worker: exactly
/// those whose [`crate::study::Artifact`] has a wire form. `GenerateDataset`
/// outputs stay in memory (cheap, deterministic — workers regenerate them
/// locally) and `Reduce` assembles grids that only the coordinator needs,
/// so both always execute locally.
pub fn leasable(kind: TaskKind) -> bool {
    matches!(
        kind,
        TaskKind::Context
            | TaskKind::Split
            | TaskKind::Clean
            | TaskKind::Train
            | TaskKind::Evaluate
    )
}

/// Everything a worker needs to rebuild the coordinator's task graph
/// bit-for-bit: the error types (in study order) and the full experiment
/// configuration. Floats travel as IEEE-754 bit patterns, so both sides
/// derive identical content addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    pub error_types: Vec<ErrorType>,
    pub cfg: ExperimentConfig,
}

/// An error type travels as its position in [`ErrorType::all`].
fn error_type_tag(et: ErrorType) -> u8 {
    let pos = ErrorType::all().iter().position(|&e| e == et);
    pos.expect("every error type is in ErrorType::all") as u8
}

fn error_type_of(tag: u8) -> Option<ErrorType> {
    ErrorType::all().get(usize::from(tag)).copied()
}

impl StudySpec {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_tag(&mut out, b'S');
        push_usize(&mut out, self.error_types.len());
        for &et in &self.error_types {
            push_tag(&mut out, error_type_tag(et));
        }
        push_usize(&mut out, self.cfg.n_splits);
        push_f64(&mut out, self.cfg.test_fraction);
        push_usize(&mut out, self.cfg.search.n_candidates);
        push_usize(&mut out, self.cfg.search.cv_folds);
        push_f64(&mut out, self.cfg.alpha);
        push_u64(&mut out, self.cfg.base_seed);
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<StudySpec> {
        let mut r = Reader::new(bytes);
        if take_tag(&mut r)? != b'S' {
            return None;
        }
        let n = take_usize(&mut r)?;
        let mut error_types = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            error_types.push(error_type_of(take_tag(&mut r)?)?);
        }
        let n_splits = take_usize(&mut r)?;
        let test_fraction = take_f64(&mut r)?;
        let n_candidates = take_usize(&mut r)?;
        let cv_folds = take_usize(&mut r)?;
        let alpha = take_f64(&mut r)?;
        let base_seed = take_u64(&mut r)?;
        let spec = StudySpec {
            error_types,
            cfg: ExperimentConfig {
                n_splits,
                test_fraction,
                search: SearchBudget { n_candidates, cv_folds },
                alpha,
                base_seed,
            },
        };
        r.is_empty().then_some(spec)
    }
}

fn push_key(out: &mut Vec<u8>, key: CacheKey) {
    push_u64(out, key.0);
    push_u64(out, key.1);
}

fn take_key(r: &mut Reader<'_>) -> Option<CacheKey> {
    Some(CacheKey(take_u64(r)?, take_u64(r)?))
}

/// Length-prefixed artifact payload; the declared length is checked against
/// the bytes actually present before anything is allocated, so an oversized
/// length token is a clean `None`.
fn take_payload(r: &mut Reader<'_>) -> Option<Vec<u8>> {
    Some(take_bytes(r)?.to_vec())
}

/// One protocol message. See the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker introduces itself; `version` must match [`PROTOCOL_VERSION`].
    Hello { version: u16, name: String },
    /// Coordinator accepts: `spec` is an encoded [`StudySpec`].
    Welcome { spec: Vec<u8> },
    /// Coordinator refuses the connection (version skew).
    Reject { reason: String },
    /// Coordinator leases the task with content address `key` to the
    /// worker; the lease expires `deadline_ms` after the last message
    /// unless extended by `Heartbeat`/`Fetch` traffic.
    Lease { key: CacheKey, deadline_ms: u64 },
    /// Worker requests an input artifact by content address.
    Fetch { key: CacheKey },
    /// Coordinator serves a requested artifact (raw codec payload).
    Artifact { key: CacheKey, payload: Vec<u8> },
    /// Coordinator has no wire form for that key; the worker computes the
    /// dependency locally from its own graph.
    NoArtifact { key: CacheKey },
    /// Worker ships the finished artifact for its leased task `key`.
    Done { key: CacheKey, payload: Vec<u8> },
    /// The leased task `key` failed; the run aborts (task bodies are
    /// deterministic, so it would fail locally too).
    Failed { key: CacheKey, error: String },
    /// Keep-alive: extends the current lease deadline.
    Heartbeat,
    /// Orderly shutdown (either direction).
    Bye,
}

mod tag {
    pub const HELLO: u8 = b'H';
    pub const WELCOME: u8 = b'W';
    pub const REJECT: u8 = b'R';
    pub const LEASE: u8 = b'L';
    pub const FETCH: u8 = b'F';
    pub const ARTIFACT: u8 = b'A';
    pub const NO_ARTIFACT: u8 = b'N';
    pub const DONE: u8 = b'D';
    pub const FAILED: u8 = b'X';
    pub const HEARTBEAT: u8 = b'P';
    pub const BYE: u8 = b'B';
}

impl Message {
    /// Encodes the message payload (tag + fields, no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello { version, name } => {
                push_tag(&mut out, tag::HELLO);
                push_u64(&mut out, u64::from(*version));
                push_str(&mut out, name);
            }
            Message::Welcome { spec } => {
                push_tag(&mut out, tag::WELCOME);
                push_bytes(&mut out, spec);
            }
            Message::Reject { reason } => {
                push_tag(&mut out, tag::REJECT);
                push_str(&mut out, reason);
            }
            Message::Lease { key, deadline_ms } => {
                push_tag(&mut out, tag::LEASE);
                push_key(&mut out, *key);
                push_u64(&mut out, *deadline_ms);
            }
            Message::Fetch { key } => {
                push_tag(&mut out, tag::FETCH);
                push_key(&mut out, *key);
            }
            Message::Artifact { key, payload } => {
                push_tag(&mut out, tag::ARTIFACT);
                push_key(&mut out, *key);
                push_bytes(&mut out, payload);
            }
            Message::NoArtifact { key } => {
                push_tag(&mut out, tag::NO_ARTIFACT);
                push_key(&mut out, *key);
            }
            Message::Done { key, payload } => {
                push_tag(&mut out, tag::DONE);
                push_key(&mut out, *key);
                push_bytes(&mut out, payload);
            }
            Message::Failed { key, error } => {
                push_tag(&mut out, tag::FAILED);
                push_key(&mut out, *key);
                push_str(&mut out, error);
            }
            Message::Heartbeat => push_tag(&mut out, tag::HEARTBEAT),
            Message::Bye => push_tag(&mut out, tag::BYE),
        }
        out
    }

    /// Decodes a message payload. Truncated, corrupt or trailing-junk
    /// buffers are a clean `None`; allocation is bounded by the bytes
    /// actually present.
    pub fn decode(bytes: &[u8]) -> Option<Message> {
        let mut r = Reader::new(bytes);
        let msg = match take_tag(&mut r)? {
            tag::HELLO => {
                let version = u16::try_from(take_u64(&mut r)?).ok()?;
                Message::Hello { version, name: take_str(&mut r)? }
            }
            tag::WELCOME => Message::Welcome { spec: take_payload(&mut r)? },
            tag::REJECT => Message::Reject { reason: take_str(&mut r)? },
            tag::LEASE => Message::Lease { key: take_key(&mut r)?, deadline_ms: take_u64(&mut r)? },
            tag::FETCH => Message::Fetch { key: take_key(&mut r)? },
            tag::ARTIFACT => {
                Message::Artifact { key: take_key(&mut r)?, payload: take_payload(&mut r)? }
            }
            tag::NO_ARTIFACT => Message::NoArtifact { key: take_key(&mut r)? },
            tag::DONE => Message::Done { key: take_key(&mut r)?, payload: take_payload(&mut r)? },
            tag::FAILED => Message::Failed { key: take_key(&mut r)?, error: take_str(&mut r)? },
            tag::HEARTBEAT => Message::Heartbeat,
            tag::BYE => Message::Bye,
            _ => return None,
        };
        r.is_empty().then_some(msg)
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Once the first byte of a message is visible, the rest must arrive
/// within this window — a peer stalled mid-frame is as dead as a silent
/// one.
pub(crate) const MESSAGE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Outcome of one bounded receive attempt on a socket.
pub enum Polled {
    Msg(Message),
    /// Nothing arrived within the wait window; the connection is still up.
    Pending,
    /// EOF, a transport error, or an undecodable frame: the conversation
    /// is over either way — a poisoned stream cannot be resynchronized.
    Closed,
}

/// Bounded receive: waits up to `wait` for the *first* byte (peeked, so a
/// timeout consumes nothing and the stream stays frame-aligned), then
/// insists the full message follows within `MESSAGE_TIMEOUT`. Both
/// coordinator lease loops and worker sessions use this so neither side
/// can block forever on a peer that vanished without a FIN.
pub fn poll_recv(stream: &std::net::TcpStream, wait: std::time::Duration) -> Polled {
    let mut first = [0u8; 1];
    let _ = stream.set_read_timeout(Some(wait));
    match stream.peek(&mut first) {
        Ok(0) => Polled::Closed,
        Ok(_) => {
            let _ = stream.set_read_timeout(Some(MESSAGE_TIMEOUT));
            match recv(&mut &*stream) {
                Ok(msg) => Polled::Msg(msg),
                Err(_) => Polled::Closed,
            }
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Polled::Pending
        }
        Err(_) => Polled::Closed,
    }
}

/// Writes one framed message.
pub fn send(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    w.write_all(&seal_frame(&msg.encode()))?;
    w.flush()
}

/// Reads one framed message. The frame header is validated *before* the
/// payload is read: wrong magic or version, an oversized declared length,
/// a checksum mismatch or an undecodable payload are all
/// [`io::ErrorKind::InvalidData`] — the connection is poisoned and the
/// caller drops it, never a panic and never a partially-applied message.
pub fn recv(r: &mut impl Read) -> io::Result<Message> {
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut frame)?;
    if frame[..4] != FRAME_MAGIC {
        return Err(invalid("bad frame magic"));
    }
    let version = u16::from_le_bytes([frame[4], frame[5]]);
    if version != FORMAT_VERSION {
        return Err(invalid("unsupported frame version"));
    }
    let len = u64::from_le_bytes(frame[6..14].try_into().expect("8 bytes"));
    if len > MAX_MESSAGE_BYTES {
        return Err(invalid("oversized message length"));
    }
    frame.resize(FRAME_HEADER_LEN + len as usize, 0);
    r.read_exact(&mut frame[FRAME_HEADER_LEN..])?;
    let payload = open_frame(&frame).ok_or_else(|| invalid("corrupt message frame"))?;
    Message::decode(payload).ok_or_else(|| invalid("undecodable message"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello { version: PROTOCOL_VERSION, name: "worker-1".into() },
            Message::Welcome {
                spec: StudySpec {
                    error_types: vec![ErrorType::Outliers, ErrorType::Mislabels],
                    cfg: ExperimentConfig::quick(),
                }
                .encode(),
            },
            Message::Reject { reason: "protocol version 99".into() },
            Message::Lease { key: CacheKey(7, u64::MAX), deadline_ms: 5000 },
            Message::Fetch { key: CacheKey(0, 0) },
            Message::Artifact { key: CacheKey(1, 2), payload: vec![0, 1, 255, 128] },
            Message::NoArtifact { key: CacheKey(3, 4) },
            Message::Done { key: CacheKey(9, 0), payload: b"CWHAT".to_vec() },
            Message::Failed { key: CacheKey(3, 1), error: "singular matrix".into() },
            Message::Heartbeat,
            Message::Bye,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(Message::decode(&bytes).as_ref(), Some(&msg), "{msg:?}");
            // and over the framed transport
            let mut wire = Vec::new();
            send(&mut wire, &msg).unwrap();
            let got = recv(&mut wire.as_slice()).unwrap();
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn error_type_tags_stay_pinned() {
        // the tags are part of every encoded StudySpec a worker decodes
        let pinned = [
            (ErrorType::MissingValues, 0),
            (ErrorType::Outliers, 1),
            (ErrorType::Duplicates, 2),
            (ErrorType::Inconsistencies, 3),
            (ErrorType::Mislabels, 4),
        ];
        for (et, tag) in pinned {
            assert_eq!(error_type_tag(et), tag, "{et:?}");
            assert_eq!(error_type_of(tag), Some(et), "{tag}");
        }
        assert_eq!(error_type_of(5), None);
    }

    #[test]
    fn study_spec_round_trips_bit_exactly() {
        for cfg in [ExperimentConfig::quick(), ExperimentConfig::standard(), {
            let mut c = ExperimentConfig::paper();
            c.test_fraction = f64::from_bits(0x7ff8_0000_0000_1234); // NaN payload
            c
        }] {
            let spec = StudySpec { error_types: ErrorType::all().to_vec(), cfg };
            let back = StudySpec::decode(&spec.encode()).expect("decode");
            assert_eq!(back.error_types, spec.error_types);
            assert_eq!(back.cfg.test_fraction.to_bits(), spec.cfg.test_fraction.to_bits());
            assert_eq!(back.cfg.alpha.to_bits(), spec.cfg.alpha.to_bits());
            assert_eq!(back.cfg.n_splits, spec.cfg.n_splits);
            assert_eq!(back.cfg.base_seed, spec.cfg.base_seed);
        }
        assert!(StudySpec::decode(b"").is_none());
        assert!(StudySpec::decode(b"not a spec").is_none());
    }

    #[test]
    fn truncations_fail_closed() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                // may be None or a shorter valid prefix is impossible: the
                // reader demands exact consumption
                assert!(Message::decode(&bytes[..cut]).is_none(), "{msg:?} cut {cut}");
            }
            let mut long = bytes;
            long.push(0);
            assert!(Message::decode(&long).is_none(), "{msg:?} trailing byte");
        }
    }

    #[test]
    fn oversized_length_token_is_a_clean_error() {
        // a Done message whose declared payload length is absurd
        let mut payload = Vec::new();
        push_tag(&mut payload, tag::DONE);
        push_key(&mut payload, CacheKey(1, 2));
        push_usize(&mut payload, usize::MAX);
        assert!(Message::decode(&payload).is_none());

        // a frame header declaring a payload beyond MAX_MESSAGE_BYTES
        let msg = Message::Heartbeat;
        let mut wire = Vec::new();
        send(&mut wire, &msg).unwrap();
        wire[6..14].copy_from_slice(&(MAX_MESSAGE_BYTES + 1).to_le_bytes());
        let err = recv(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_frames_are_io_errors_not_panics() {
        let mut wire = Vec::new();
        send(&mut wire, &Message::Fetch { key: CacheKey(1, 2) }).unwrap();
        // flip one payload bit: checksum catches it
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert_eq!(recv(&mut wire.as_slice()).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // wrong magic
        wire[0] = b'X';
        assert_eq!(recv(&mut wire.as_slice()).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // EOF mid-frame
        let mut short = Vec::new();
        send(&mut short, &Message::Bye).unwrap();
        short.truncate(short.len() - 1);
        assert_eq!(recv(&mut short.as_slice()).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn leasable_kinds_are_exactly_the_encodable_ones() {
        assert!(leasable(TaskKind::Train));
        assert!(leasable(TaskKind::Clean));
        assert!(leasable(TaskKind::Split));
        assert!(leasable(TaskKind::Evaluate));
        assert!(leasable(TaskKind::Context));
        assert!(!leasable(TaskKind::GenerateDataset), "datasets have no wire form");
        assert!(!leasable(TaskKind::Reduce), "grids have no wire form");
    }
}
