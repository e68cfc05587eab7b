//! Property tests for the hand-rolled wire codec: arbitrary batches must
//! round-trip exactly, and encoding must be canonical (re-encoding a
//! decoded batch reproduces the original bytes). Under byte mutation (the
//! `mutated_` properties) a decoder never panics, and every frame it
//! accepts is the encoding of what it decoded.

use proptest::prelude::*;
use sv2p_packet::{Pip, Vip};
use v2p_controlplane::api::{
    CtlOp, CtlReply, RejectReason, ReplyBatch, RequestBatch, ServiceStats,
};
use v2p_controlplane::wire::{
    decode_reply, decode_request, encode_reply, encode_request, WireError,
};

fn arb_op() -> impl Strategy<Value = CtlOp> {
    prop_oneof![
        any::<u32>().prop_map(|v| CtlOp::Lookup { vip: Vip(v) }),
        (any::<u32>(), any::<u32>()).prop_map(|(v, p)| CtlOp::Install {
            vip: Vip(v),
            pip: Pip(p)
        }),
        any::<u32>().prop_map(|v| CtlOp::Invalidate { vip: Vip(v) }),
        (
            any::<u32>(),
            any::<u32>(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(v, p, at)| CtlOp::Migrate {
                vip: Vip(v),
                to_pip: Pip(p),
                at_ns: at
            }),
        Just(CtlOp::Snapshot),
        Just(CtlOp::Stats),
    ]
}

fn arb_stats() -> impl Strategy<Value = ServiceStats> {
    // 13 fields; tuple strategies cap at 10, so split.
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((a, b, c, d, e), (f, g, h, i, j), (k, l, m))| ServiceStats {
                batches: a,
                ops: b,
                lookups: c,
                hits: d,
                installs: e,
                invalidates: f,
                migrates: g,
                rejected: h,
                snapshots: i,
                epoch: j,
                mappings: k,
                exec_p50_ns: l,
                exec_p99_ns: m,
            },
        )
}

fn arb_reply() -> impl Strategy<Value = CtlReply> {
    prop_oneof![
        any::<u32>().prop_map(|p| CtlReply::Found { pip: Pip(p) }),
        Just(CtlReply::NotFound),
        (
            proptest::option::of(any::<u32>()),
            proptest::option::of(any::<u32>())
        )
            .prop_map(|(old, new)| CtlReply::Applied {
                old: old.map(Pip),
                new: new.map(Pip),
            }),
        Just(CtlReply::Rejected {
            reason: RejectReason::UnknownVip
        }),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..20).prop_map(|es| {
            CtlReply::Snapshot {
                entries: es.into_iter().map(|(v, p)| (Vip(v), Pip(p))).collect(),
            }
        }),
        arb_stats().prop_map(|stats| CtlReply::Stats {
            stats: Box::new(stats)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_round_trips_and_is_canonical(
        id in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let req = RequestBatch { id, ops };
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let back = decode_request(&bytes).expect("decode");
        prop_assert_eq!(&back, &req);
        // Canonical: re-encoding the decoded value is byte-identical.
        let mut again = Vec::new();
        encode_request(&back, &mut again);
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn reply_round_trips_and_is_canonical(
        id in any::<u64>(),
        epoch in any::<u64>(),
        replies in proptest::collection::vec(arb_reply(), 0..30),
    ) {
        let rep = ReplyBatch { id, epoch, replies };
        let mut bytes = Vec::new();
        encode_reply(&rep, &mut bytes);
        let back = decode_reply(&bytes).expect("decode");
        prop_assert_eq!(&back, &rep);
        let mut again = Vec::new();
        encode_reply(&back, &mut again);
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn every_truncation_is_rejected(
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let req = RequestBatch { id: 7, ops };
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_request(&bytes[..cut]).is_err(),
                "decoded a {cut}-byte prefix of a {}-byte payload",
                bytes.len()
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        replies in proptest::collection::vec(arb_reply(), 0..6),
        extra in 1usize..4,
    ) {
        let rep = ReplyBatch { id: 1, epoch: 2, replies };
        let mut bytes = Vec::new();
        encode_reply(&rep, &mut bytes);
        bytes.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert_eq!(
            decode_reply(&bytes),
            Err(WireError::TrailingBytes(extra))
        );
    }
}

/// One seeded edit of an encoded frame. Positions are taken modulo the
/// frame's length, so every edit lands inside it.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Flip { at: usize, mask: u8 },
    Insert { at: usize, byte: u8 },
    Delete { at: usize },
    Truncate { len: usize },
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Edit::Flip { at, mask }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Edit::Insert { at, byte }),
        any::<usize>().prop_map(|at| Edit::Delete { at }),
        any::<usize>().prop_map(|len| Edit::Truncate { len }),
    ]
}

fn apply_edit(bytes: &mut Vec<u8>, edit: Edit) {
    let n = bytes.len();
    match edit {
        Edit::Flip { at, mask } if n > 0 => bytes[at % n] ^= mask,
        Edit::Insert { at, byte } => bytes.insert(at % (n + 1), byte),
        Edit::Delete { at } if n > 0 => {
            bytes.remove(at % n);
        }
        Edit::Truncate { len } => bytes.truncate(len % (n + 1)),
        Edit::Flip { .. } | Edit::Delete { .. } => {}
    }
}

/// Every frame one edit away from `bytes` that a decoder meets first: each
/// byte set to the small values flags, tags and codes take and to its
/// neighbours, each byte deleted, small bytes inserted at each position,
/// and every truncation.
fn one_edit_away(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for at in 0..bytes.len() {
        let b = bytes[at];
        for v in [0, 1, 2, 3, 4, 5, 6, 0xFF, b ^ 1, b ^ 2, b ^ 0x80] {
            if v != b {
                let mut m = bytes.to_vec();
                m[at] = v;
                out.push(m);
            }
        }
        let mut m = bytes.to_vec();
        m.remove(at);
        out.push(m);
    }
    for at in 0..=bytes.len() {
        for v in [0, 1, 2, 0xFF] {
            let mut m = bytes.to_vec();
            m.insert(at, v);
            out.push(m);
        }
    }
    out.extend((0..bytes.len()).map(|len| bytes[..len].to_vec()));
    out
}

/// A mutated request frame either fails to decode or decodes to a batch
/// whose encoding is exactly those bytes (the decoder accepts only
/// canonical frames). A panic fails the property too.
fn request_is_canonical_or_refused(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = decode_request(bytes) {
        let mut again = Vec::new();
        encode_request(&req, &mut again);
        prop_assert_eq!(again.as_slice(), bytes, "accepted a non-canonical request");
    }
    Ok(())
}

/// [`request_is_canonical_or_refused`] for reply frames.
fn reply_is_canonical_or_refused(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(rep) = decode_reply(bytes) {
        let mut again = Vec::new();
        encode_reply(&rep, &mut again);
        prop_assert_eq!(again.as_slice(), bytes, "accepted a non-canonical reply");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Byte mutation of request frames: every single-byte edit, then
    /// seeded runs of flips, insertions, deletions and truncations.
    #[test]
    fn mutated_requests_decode_canonically_or_not_at_all(
        id in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 0..16),
        edits in proptest::collection::vec(arb_edit(), 1..6),
    ) {
        let mut bytes = Vec::new();
        encode_request(&RequestBatch { id, ops }, &mut bytes);
        for m in one_edit_away(&bytes) {
            request_is_canonical_or_refused(&m)?;
        }
        for edit in edits {
            apply_edit(&mut bytes, edit);
            request_is_canonical_or_refused(&bytes)?;
        }
    }

    /// Byte mutation of reply frames, as for requests.
    #[test]
    fn mutated_replies_decode_canonically_or_not_at_all(
        id in any::<u64>(),
        epoch in any::<u64>(),
        replies in proptest::collection::vec(arb_reply(), 0..12),
        edits in proptest::collection::vec(arb_edit(), 1..6),
    ) {
        let mut bytes = Vec::new();
        encode_reply(&ReplyBatch { id, epoch, replies }, &mut bytes);
        for m in one_edit_away(&bytes) {
            reply_is_canonical_or_refused(&m)?;
        }
        for edit in edits {
            apply_edit(&mut bytes, edit);
            reply_is_canonical_or_refused(&bytes)?;
        }
    }
}
