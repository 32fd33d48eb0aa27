//! Adversarial property tests for the remote-protocol codec: every message
//! round-trips exactly; bit flips, truncations and oversized length tokens
//! fail closed as decode errors — never a panic, and (because the
//! coordinator only stores a `Done` payload after it decodes to a whole
//! artifact) never a partial artifact anywhere near the store.

use proptest::prelude::*;

use cleanml_cleaning::ErrorType;
use cleanml_core::ExperimentConfig;
use cleanml_engine::remote::proto::{recv, send};
use cleanml_engine::remote::{Message, StudySpec, MAX_MESSAGE_BYTES, PROTOCOL_VERSION};
use cleanml_engine::CacheKey;

fn arb_key() -> impl Strategy<Value = CacheKey> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| CacheKey(a, b))
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

/// Every protocol message variant, with adversarially interesting field
/// content (empty strings, empty payloads, max keys and deadlines).
fn arb_message() -> impl Strategy<Value = Message> {
    ((0usize..11, any::<u64>()), (arb_key(), arb_payload()), "[a-z0-9 ]{0,12}").prop_map(
        |((variant, n), (key, payload), text)| match variant {
            0 => Message::Hello { version: n as u16, name: text },
            1 => Message::Welcome { spec: payload },
            2 => Message::Reject { reason: text },
            3 => Message::Lease { key, deadline_ms: n },
            4 => Message::Fetch { key },
            5 => Message::Artifact { key, payload },
            6 => Message::NoArtifact { key },
            7 => Message::Done { key, payload },
            8 => Message::Failed { key, error: text },
            9 => Message::Heartbeat,
            _ => Message::Bye,
        },
    )
}

proptest! {
    /// Payload codec and framed transport both round-trip every variant.
    #[test]
    fn messages_round_trip(msg in arb_message()) {
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Some(&msg));
        let mut wire = Vec::new();
        send(&mut wire, &msg).expect("send to a Vec");
        let got = recv(&mut wire.as_slice()).expect("recv what was sent");
        prop_assert_eq!(got, msg);
    }

    /// Any single bit flip anywhere in a framed message is rejected: the
    /// header fields are validated and the payload is checksummed, so a
    /// corrupted wire byte poisons the connection instead of smuggling a
    /// wrong message through.
    #[test]
    fn single_bit_flips_fail_closed(msg in arb_message(), pos in any::<u64>(), bit in 0usize..8) {
        let mut wire = Vec::new();
        send(&mut wire, &msg).expect("send");
        let pos = (pos % wire.len() as u64) as usize;
        wire[pos] ^= 1 << bit;
        prop_assert!(recv(&mut wire.as_slice()).is_err(), "flip at {}:{} served", pos, bit);
    }

    /// Every truncation of a framed message is an error (and every
    /// truncation of a bare payload decodes to `None`), never a panic and
    /// never a partial message.
    #[test]
    fn truncations_fail_closed(msg in arb_message(), cut in any::<u64>()) {
        let bytes = msg.encode();
        if !bytes.is_empty() {
            let cut_payload = (cut % bytes.len() as u64) as usize;
            prop_assert_eq!(Message::decode(&bytes[..cut_payload]), None);
        }
        let mut wire = Vec::new();
        send(&mut wire, &msg).expect("send");
        let cut_wire = (cut % wire.len() as u64) as usize;
        prop_assert!(recv(&mut &wire[..cut_wire]).is_err());
        // trailing junk is rejected too — message boundaries are exact
        wire.push(0);
        prop_assert!(Message::decode(&wire[22..]).is_none());
    }

    /// A length token claiming more bytes than exist — up to usize::MAX —
    /// is a clean decode error *before* any allocation, both inside a
    /// message payload and in the frame header.
    #[test]
    fn oversized_length_tokens_fail_closed(key in arb_key(), declared in any::<u64>()) {
        // inside the payload: a Done whose length token overshoots
        let mut payload = vec![b'D'];
        push_varint(&mut payload, key.0);
        push_varint(&mut payload, key.1);
        push_varint(&mut payload, declared.max(1));
        prop_assert_eq!(Message::decode(&payload), None);

        // in the frame header: a declared payload beyond the cap
        let mut wire = Vec::new();
        send(&mut wire, &Message::Heartbeat).expect("send");
        let huge = MAX_MESSAGE_BYTES + 1 + (declared % 1024);
        wire[6..14].copy_from_slice(&huge.to_le_bytes());
        prop_assert!(recv(&mut wire.as_slice()).is_err());
    }

    /// The study spec survives the wire bit-exactly for *arbitrary* float
    /// bit patterns (NaNs, infinities, -0.0, subnormals) and seeds — the
    /// worker's rebuilt graph must address-match the coordinator's or
    /// every lease would be refused.
    #[test]
    fn study_spec_round_trips_any_bit_pattern(
        test_fraction in any::<f64>(),
        alpha in any::<f64>(),
        base_seed in any::<u64>(),
        n_splits in 0usize..1000,
        n_candidates in 0usize..100,
        cv_folds in 0usize..100,
        et_picks in prop::collection::vec(0usize..5, 0..8),
    ) {
        let all = ErrorType::all();
        let spec = StudySpec {
            error_types: et_picks.iter().map(|&i| all[i]).collect(),
            cfg: ExperimentConfig {
                n_splits,
                test_fraction,
                search: cleanml_ml::cv::SearchBudget { n_candidates, cv_folds },
                alpha,
                base_seed,
            },
        };
        let back = StudySpec::decode(&spec.encode()).expect("spec decode");
        prop_assert_eq!(&back.error_types, &spec.error_types);
        prop_assert_eq!(back.cfg.test_fraction.to_bits(), test_fraction.to_bits());
        prop_assert_eq!(back.cfg.alpha.to_bits(), alpha.to_bits());
        prop_assert_eq!(back.cfg.n_splits, n_splits);
        prop_assert_eq!(back.cfg.search.n_candidates, n_candidates);
        prop_assert_eq!(back.cfg.search.cv_folds, cv_folds);
        prop_assert_eq!(back.cfg.base_seed, base_seed);

        // and a truncated spec inside a Welcome still fails closed
        let bytes = spec.encode();
        let cut = (base_seed % bytes.len() as u64) as usize;
        prop_assert_eq!(StudySpec::decode(&bytes[..cut]).map(|s| s.encode()), None);
    }
}

/// LEB128, as the codec writes it (test-local copy so the test does not
/// trust the code under test to build its adversarial inputs).
fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[test]
fn hello_version_is_current() {
    // a reminder to bump PROTOCOL_VERSION on any wire-visible change
    assert_eq!(PROTOCOL_VERSION, 6);
}
