//! Property tests: the wire format round-trips arbitrary packets and never
//! panics on arbitrary input bytes.

use bytes::Bytes;
use proptest::prelude::*;
use sv2p_packet::packet::Protocol;
use sv2p_packet::wire::{decode, encode, wire_eq};
use sv2p_packet::{
    FlowId, InnerHeader, MappingOption, MisdeliveryTag, OuterHeader, Packet, PacketId, PacketKind,
    Pip, SwitchTag, TcpFlags, TunnelOptions, Vip,
};

fn arb_mapping() -> impl Strategy<Value = MappingOption> {
    (any::<u32>(), any::<u32>()).prop_map(|(v, p)| MappingOption {
        vip: Vip(v),
        pip: Pip(p),
    })
}

fn arb_tag() -> impl Strategy<Value = MisdeliveryTag> {
    (any::<u32>(), any::<u32>()).prop_map(|(v, p)| MisdeliveryTag {
        vip: Vip(v),
        stale_pip: Pip(p),
    })
}

fn arb_kind() -> impl Strategy<Value = PacketKind> {
    prop_oneof![
        Just(PacketKind::Data),
        arb_mapping().prop_map(PacketKind::Learning),
        arb_tag().prop_map(PacketKind::Invalidation),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_kind(),
        any::<(u32, u32, bool)>(),
        any::<(u32, u32, u16, u16)>(),
        any::<(u32, u32, u8)>(),
        prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp)],
        (
            proptest::option::of(arb_mapping()),
            proptest::option::of(arb_mapping()),
            proptest::option::of(arb_tag()),
            proptest::option::of(any::<u16>().prop_map(SwitchTag)),
        ),
        0u32..1200,
    )
        .prop_map(
            |(
                kind,
                (spip, dpip, resolved),
                (svip, dvip, sport, dport),
                (seq, ack, fl),
                proto,
                (spill, promo, misd, hit),
                payload,
            )| {
                Packet {
                    id: PacketId(0),
                    flow: FlowId(0),
                    kind,
                    outer: OuterHeader {
                        src_pip: Pip(spip),
                        dst_pip: Pip(dpip),
                        resolved,
                    },
                    inner: InnerHeader {
                        src_vip: Vip(svip),
                        dst_vip: Vip(dvip),
                        src_port: sport,
                        dst_port: dport,
                        protocol: proto,
                        seq,
                        ack,
                        flags: TcpFlags::from_byte(fl),
                    },
                    opts: TunnelOptions {
                        spillover: spill,
                        promotion: promo,
                        misdelivery: misd,
                        hit_switch: hit,
                    },
                    payload,
                    switch_hops: 0,
                    sent_ns: 0,
                    first_of_flow: false,
                    visited_gateway: false,
                }
            },
        )
}

proptest! {
    #[test]
    fn encode_decode_round_trips(pkt in arb_packet()) {
        let encoded = encode(&pkt);
        prop_assert_eq!(encoded.len() as u32, pkt.wire_size());
        let decoded = decode(encoded).expect("decode of own encoding failed");
        prop_assert!(wire_eq(&pkt, &decoded));
    }

    #[test]
    fn decode_never_panics_on_noise(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode(Bytes::from(data));
    }

    #[test]
    fn decode_rejects_every_truncation(pkt in arb_packet()) {
        let encoded = encode(&pkt);
        // Cutting anywhere before the payload must fail; cutting inside the
        // payload is a length mismatch.
        let hdr_end = (pkt.wire_size() - pkt.payload) as usize;
        for cut in (0..hdr_end).step_by(7) {
            prop_assert!(decode(encoded.slice(..cut)).is_err());
        }
    }

    #[test]
    fn single_bit_flips_in_headers_are_detected_or_benign(
        pkt in arb_packet(),
        byte_idx in 0usize..20,
        bit in 0u8..8,
    ) {
        let encoded = encode(&pkt);
        let mut raw = encoded.to_vec();
        raw[byte_idx] ^= 1 << bit;
        // Flips in the outer IPv4 header must be caught by the checksum or by
        // a structural check — silent acceptance with altered addresses is
        // the one outcome that may never happen.
        if let Ok(d) = decode(Bytes::from(raw)) {
            // If it decoded, the flip must not have silently changed
            // addresses (e.g. it hit a don't-care field like TOS/TTL —
            // but those are covered by the checksum, so anything that
            // decodes must equal the original).
            prop_assert!(wire_eq(&pkt, &d));
        }
    }
}
