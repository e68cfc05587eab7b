//! Property tests for the hand-rolled wire codec: arbitrary batches must
//! round-trip exactly, and encoding must be canonical (re-encoding a
//! decoded batch reproduces the original bytes).

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
