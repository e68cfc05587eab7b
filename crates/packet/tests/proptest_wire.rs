//! Property tests: the wire format round-trips arbitrary packets and never
//! panics on arbitrary input bytes.

use proptest::prelude::*;
use sv2p_packet::packet::Protocol;
use sv2p_packet::wire::{decode, encode, wire_eq};
use sv2p_packet::{
    InnerHeader, MappingOption, MisdeliveryTag, OuterHeader, Packet, PacketKind, Pip, SwitchTag,
    TcpFlags, TunnelOptions, Vip,
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
                    ..Packet::default()
                }
            },
        )
}

fn encoded(pkt: &Packet) -> Vec<u8> {
    let mut frame = Vec::new();
    encode(pkt, &mut frame);
    frame
}

proptest! {
    #[test]
    fn encode_decode_round_trips(pkt in arb_packet()) {
        let encoded = encoded(&pkt);
        prop_assert_eq!(encoded.len() as u32, pkt.wire_size());
        let decoded = decode(&encoded).expect("decode of own encoding failed");
        prop_assert!(wire_eq(&pkt, &decoded));
    }

    #[test]
    fn decode_never_panics_on_noise(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode(&data);
    }

    #[test]
    fn decode_rejects_every_truncation(pkt in arb_packet()) {
        let encoded = encoded(&pkt);
        // Cutting anywhere before the payload must fail; cutting inside the
        // payload is a length mismatch.
        let hdr_end = (pkt.wire_size() - pkt.payload) as usize;
        for cut in (0..hdr_end).step_by(7) {
            prop_assert!(decode(&encoded[..cut]).is_err());
        }
    }

    /// Every one-byte edit of a header (every byte before the payload):
    /// each of its eight bit flips, and setting it to `value`. An edit is
    /// rejected, or it decodes to a packet whose encoding is the edited
    /// frame — so no edit is silently mis-parsed, and no byte the encoder
    /// never writes is accepted. In the outer IPv4 header the checksum
    /// catches every edit. Every re-encoding reuses one buffer, as the debug
    /// wire check does.
    #[test]
    fn one_byte_header_edits_are_rejected_or_canonical(pkt in arb_packet(), value in any::<u8>()) {
        let encoded = encoded(&pkt);
        let hdr_end = (pkt.wire_size() - pkt.payload) as usize;
        let mut reencoded = Vec::new();
        for at in 0..hdr_end {
            let flips = (0..8).map(|bit| encoded[at] ^ (1 << bit));
            for byte in flips.chain([value]) {
                let mut raw = encoded.clone();
                raw[at] = byte;
                if let Ok(d) = decode(&raw) {
                    encode(&d, &mut reencoded);
                    prop_assert!(
                        reencoded == raw,
                        "byte {} set to {:#04x} decodes as {:?}", at, byte, d
                    );
                    prop_assert!(at >= 20 || raw == encoded, "outer byte {} edited", at);
                }
            }
        }
    }
}
