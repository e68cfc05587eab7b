//! Byte-level wire format: outer IPv4, tunnel shim with option TLVs, inner
//! IPv4, inner transport header.
//!
//! A release build of the simulator never serializes packets on the hot
//! path; a debug build encodes and decodes every packet it forwards, to
//! certify the length links serialize and the round trip. Either way this
//! module proves that the protocol state SwitchV2P piggybacks has a concrete,
//! bounded on-wire representation, and it gives the property tests something
//! sharp to bite on: `decode(encode(p))` must preserve every wire-visible
//! field, and corrupted inputs must be rejected, never mis-parsed.
//!
//! Layout (all integers big-endian, as on real networks):
//!
//! ```text
//! outer IPv4 (20 B)     src/dst = physical addresses, proto = 250 (shim)
//! tunnel shim (4 B)     kind, flags(resolved), option length, reserved
//! option TLVs (0..34 B) spillover / promotion / misdelivery / hit-switch /
//!                       learning payload / invalidation payload
//! inner IPv4 (20 B)     src/dst = virtual addresses, proto = 6 or 17
//! inner transport (16 B) ports, seq, ack, flags, 3 pad bytes
//! payload (N B)         zeros (content is irrelevant to the simulation)
//! ```
//!
//! This module owns the layout: [`TunnelOptions::wire_len`] and
//! [`Packet::wire_size`] add up its constants. The codec walks plain
//! slices, as the control plane's does: the encoder appends to a caller's
//! buffer and the decoder splits fixed-size chunks off the front. Decoding
//! is canonical up to the payload: every header byte the encoder never
//! writes (a non-zero reserved or pad byte, an unknown flag bit, an IPv4
//! fixed field other than the encoder's, options out of order) is refused,
//! so every frame `decode` accepts is the encoding of what it returns, with
//! the payload's content left opaque.

use crate::addr::{Pip, SwitchTag, Vip};
use crate::options::{MappingOption, MisdeliveryTag, TunnelOptions};
use crate::packet::{InnerHeader, OuterHeader, Packet, PacketKind, Protocol, TcpFlags};

/// IP protocol number of the tunnel shim in the outer header
/// (253 and 254 are reserved for experimentation; we use 250 to make clear
/// this is a private encapsulation).
pub const SHIM_PROTO: u8 = 250;

/// An IPv4 header without options, outer and inner alike.
const IPV4_LEN: usize = 20;
/// The tunnel shim before its options: kind, flags, option length, reserved.
const SHIM_LEN: usize = 4;
/// The inner transport header: ports, seq, ack, flags and three pad bytes.
const TRANSPORT_LEN: usize = 16;
/// A TLV's type and length bytes.
const TLV_HEAD: usize = 2;
/// The value of a TLV carrying a (VIP, PIP) pair: a mapping or a tag.
const PAIR_LEN: usize = 8;
/// The value of the hit-switch TLV: a switch tag.
const TAG_LEN: usize = 2;

/// Fixed header bytes of every packet: outer IPv4, tunnel shim, inner IPv4
/// and inner transport.
pub const HEADER_OVERHEAD: u32 = (IPV4_LEN + SHIM_LEN + IPV4_LEN + TRANSPORT_LEN) as u32;
/// Bytes of a TLV carrying a (VIP, PIP) pair: spillover, promotion,
/// misdelivery, and a learning or invalidation packet's payload.
pub(crate) const PAIR_TLV_LEN: u32 = (TLV_HEAD + PAIR_LEN) as u32;
/// Bytes of the hit-switch TLV.
pub(crate) const HIT_SWITCH_TLV_LEN: u32 = (TLV_HEAD + TAG_LEN) as u32;

// Option types, in the order the encoder writes them: a packet's options,
// then its kind's payload.
const TLV_SPILLOVER: u8 = 1;
const TLV_PROMOTION: u8 = 2;
const TLV_MISDELIVERY: u8 = 3;
const TLV_HIT_SWITCH: u8 = 4;
const TLV_LEARNING: u8 = 5;
const TLV_INVALIDATION: u8 = 6;

const FLAG_RESOLVED: u8 = 0x01;

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the fixed headers require.
    Truncated,
    /// Outer or inner IPv4 checksum mismatch.
    BadChecksum,
    /// A version/IHL byte other than 0x45.
    BadVersion,
    /// Outer protocol is not the tunnel shim.
    NotTunnel,
    /// Unknown shim kind byte, or one its option TLVs disagree with.
    BadKind(u8),
    /// Malformed, duplicate or out-of-order option TLV.
    BadOption(u8),
    /// Inner protocol number is neither TCP nor UDP.
    BadProtocol(u8),
    /// total_len fields disagree with the buffer.
    LengthMismatch,
    /// A header byte the encoder never writes: a non-zero reserved or pad
    /// byte, an unknown flag bit, or an IPv4 fixed field (TOS, id,
    /// fragment, TTL) other than the encoder's.
    NonCanonical,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadChecksum => write!(f, "IPv4 checksum mismatch"),
            WireError::BadVersion => write!(f, "unsupported IPv4 version/IHL"),
            WireError::NotTunnel => write!(f, "outer protocol is not the tunnel shim"),
            WireError::BadKind(k) => write!(f, "unknown shim kind {k}"),
            WireError::BadOption(t) => write!(f, "malformed option TLV type {t}"),
            WireError::BadProtocol(p) => write!(f, "unsupported inner protocol {p}"),
            WireError::LengthMismatch => write!(f, "length fields disagree with buffer"),
            WireError::NonCanonical => write!(f, "header byte the encoder never writes"),
        }
    }
}

impl std::error::Error for WireError {}

/// RFC 1071 internet checksum over `data` (assumed even-length padded).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The shim's kind byte of `kind`.
fn kind_byte(kind: PacketKind) -> u8 {
    match kind {
        PacketKind::Data => 0,
        PacketKind::Learning(_) => 1,
        PacketKind::Invalidation(_) => 2,
    }
}

/// The IPv4 header the encoder writes: version 4, IHL 5, TOS 0, id 0, DF,
/// TTL 64 and the checksum over the rest.
fn ipv4_header(total_len: u16, proto: u8, src: u32, dst: u32) -> [u8; IPV4_LEN] {
    let [l0, l1] = total_len.to_be_bytes();
    let [s0, s1, s2, s3] = src.to_be_bytes();
    let [d0, d1, d2, d3] = dst.to_be_bytes();
    let mut h = [
        0x45, 0, l0, l1, 0, 0, 0x40, 0, 64, proto, 0, 0, s0, s1, s2, s3, d0, d1, d2, d3,
    ];
    let [c0, c1] = internet_checksum(&h).to_be_bytes();
    (h[10], h[11]) = (c0, c1);
    h
}

fn put_pair(out: &mut Vec<u8>, tlv: u8, vip: Vip, pip: Pip) {
    out.extend_from_slice(&[tlv, PAIR_LEN as u8]);
    out.extend_from_slice(&vip.0.to_be_bytes());
    out.extend_from_slice(&pip.0.to_be_bytes());
}

/// Encodes `pkt` into `out`, replacing its contents: exactly
/// [`Packet::wire_size`] bytes.
///
/// The payload is emitted as zeros — simulation payloads carry no content.
pub fn encode(pkt: &Packet, out: &mut Vec<u8>) {
    let outer_total = pkt.wire_size();
    let inner_total = (IPV4_LEN + TRANSPORT_LEN) as u32 + pkt.payload;
    let opt_len = outer_total - inner_total - (IPV4_LEN + SHIM_LEN) as u32;
    out.clear();
    out.reserve(outer_total as usize);

    let (o, i) = (&pkt.outer, &pkt.inner);
    out.extend_from_slice(&ipv4_header(
        outer_total as u16,
        SHIM_PROTO,
        o.src_pip.0,
        o.dst_pip.0,
    ));
    let flags = if o.resolved { FLAG_RESOLVED } else { 0 };
    out.extend_from_slice(&[kind_byte(pkt.kind), flags, opt_len as u8, 0]);

    if let Some(m) = pkt.opts.spillover {
        put_pair(out, TLV_SPILLOVER, m.vip, m.pip);
    }
    if let Some(m) = pkt.opts.promotion {
        put_pair(out, TLV_PROMOTION, m.vip, m.pip);
    }
    if let Some(t) = pkt.opts.misdelivery {
        put_pair(out, TLV_MISDELIVERY, t.vip, t.stale_pip);
    }
    if let Some(s) = pkt.opts.hit_switch {
        out.extend_from_slice(&[TLV_HIT_SWITCH, TAG_LEN as u8]);
        out.extend_from_slice(&s.0.to_be_bytes());
    }
    match pkt.kind {
        PacketKind::Data => {}
        PacketKind::Learning(m) => put_pair(out, TLV_LEARNING, m.vip, m.pip),
        PacketKind::Invalidation(t) => put_pair(out, TLV_INVALIDATION, t.vip, t.stale_pip),
    }

    out.extend_from_slice(&ipv4_header(
        inner_total as u16,
        i.protocol.number(),
        i.src_vip.0,
        i.dst_vip.0,
    ));
    out.extend_from_slice(&i.src_port.to_be_bytes());
    out.extend_from_slice(&i.dst_port.to_be_bytes());
    out.extend_from_slice(&i.seq.to_be_bytes());
    out.extend_from_slice(&i.ack.to_be_bytes());
    out.extend_from_slice(&[i.flags.to_byte(), 0, 0, 0]);

    out.resize(outer_total as usize, 0);
}

/// Splits `N` bytes off the front of `buf`: the one length check a
/// fixed-size header or option value pays.
fn take<const N: usize>(buf: &[u8]) -> Result<(&[u8; N], &[u8]), WireError> {
    buf.split_first_chunk().ok_or(WireError::Truncated)
}

/// The big-endian `u16` at `at` in a fixed-size chunk.
fn u16_at<const N: usize>(b: &[u8; N], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

/// The big-endian `u32` at `at` in a fixed-size chunk.
fn u32_at<const N: usize>(b: &[u8; N], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Splits an IPv4 header off `buf`, refusing any the encoder would not
/// have written. Its fields are read at their offsets: total length at 2,
/// protocol at 9, source at 12, destination at 16.
fn get_ipv4(buf: &[u8]) -> Result<(&[u8; IPV4_LEN], &[u8]), WireError> {
    let (h, rest) = take::<IPV4_LEN>(buf)?;
    if internet_checksum(h) != 0 {
        return Err(WireError::BadChecksum);
    }
    if h[0] != 0x45 {
        return Err(WireError::BadVersion);
    }
    // The fixed fields, and the one checksum of the two a header can verify
    // under (0 and 0xffff) that the encoder writes.
    if *h != ipv4_header(u16_at(h, 2), h[9], u32_at(h, 12), u32_at(h, 16)) {
        return Err(WireError::NonCanonical);
    }
    Ok((h, rest))
}

/// Decodes a wire frame back into a structured packet.
///
/// Simulation-only metadata (`id`, `flow`, hop counters, …) is not on the
/// wire and comes back zeroed; compare wire-visible fields only.
pub fn decode(frame: &[u8]) -> Result<Packet, WireError> {
    let (outer, rest) = get_ipv4(frame)?;
    if outer[9] != SHIM_PROTO {
        return Err(WireError::NotTunnel);
    }
    if usize::from(u16_at(outer, 2)) != frame.len() {
        return Err(WireError::LengthMismatch);
    }

    let (&[kind_code, flags, opt_len, reserved], rest) = take::<SHIM_LEN>(rest)?;
    if flags & !FLAG_RESOLVED != 0 || reserved != 0 {
        return Err(WireError::NonCanonical);
    }
    let (mut tlvs, rest) = rest
        .split_at_checked(usize::from(opt_len))
        .ok_or(WireError::Truncated)?;
    let mut opts = TunnelOptions::EMPTY;
    let mut kind = PacketKind::Data;
    let mut last = 0;
    while !tlvs.is_empty() {
        let (&[t, len], value) = take::<TLV_HEAD>(tlvs).map_err(|_| WireError::BadOption(0))?;
        // The encoder's order, each type once, the kind's payload last.
        if t <= last || last >= TLV_LEARNING {
            return Err(WireError::BadOption(t));
        }
        last = t;
        tlvs = match (t, usize::from(len)) {
            (TLV_HIT_SWITCH, TAG_LEN) => {
                let (b, rest) = take::<TAG_LEN>(value).map_err(|_| WireError::BadOption(t))?;
                opts.hit_switch = Some(SwitchTag(u16::from_be_bytes(*b)));
                rest
            }
            (TLV_SPILLOVER..=TLV_MISDELIVERY | TLV_LEARNING | TLV_INVALIDATION, PAIR_LEN) => {
                let (b, rest) = take::<PAIR_LEN>(value).map_err(|_| WireError::BadOption(t))?;
                let (vip, pip) = (Vip(u32_at(b, 0)), Pip(u32_at(b, 4)));
                let m = MappingOption { vip, pip };
                let tag = MisdeliveryTag {
                    vip,
                    stale_pip: pip,
                };
                match t {
                    TLV_SPILLOVER => opts.spillover = Some(m),
                    TLV_PROMOTION => opts.promotion = Some(m),
                    TLV_MISDELIVERY => opts.misdelivery = Some(tag),
                    TLV_LEARNING => kind = PacketKind::Learning(m),
                    _ => kind = PacketKind::Invalidation(tag),
                }
                rest
            }
            _ => return Err(WireError::BadOption(t)),
        };
    }
    if kind_code != kind_byte(kind) {
        return Err(WireError::BadKind(kind_code));
    }

    let (inner, rest) = get_ipv4(rest)?;
    let protocol = [Protocol::Tcp, Protocol::Udp]
        .into_iter()
        .find(|p| p.number() == inner[9])
        .ok_or(WireError::BadProtocol(inner[9]))?;
    let (t, payload) = take::<TRANSPORT_LEN>(rest)?;
    let tcp_flags = TcpFlags::from_byte(t[12]);
    if tcp_flags.to_byte() != t[12] || t[13..] != [0, 0, 0] {
        return Err(WireError::NonCanonical);
    }
    let payload = payload.len() as u32;
    if u32::from(u16_at(inner, 2)) != (IPV4_LEN + TRANSPORT_LEN) as u32 + payload {
        return Err(WireError::LengthMismatch);
    }

    Ok(Packet {
        kind,
        outer: OuterHeader {
            src_pip: Pip(u32_at(outer, 12)),
            dst_pip: Pip(u32_at(outer, 16)),
            resolved: flags == FLAG_RESOLVED,
        },
        inner: InnerHeader {
            src_vip: Vip(u32_at(inner, 12)),
            dst_vip: Vip(u32_at(inner, 16)),
            src_port: u16_at(t, 0),
            dst_port: u16_at(t, 2),
            protocol,
            seq: u32_at(t, 4),
            ack: u32_at(t, 8),
            flags: tcp_flags,
        },
        opts,
        payload,
        ..Packet::default()
    })
}

/// True if the two packets agree on every wire-visible field.
pub fn wire_eq(a: &Packet, b: &Packet) -> bool {
    a.kind == b.kind
        && a.outer == b.outer
        && a.inner == b.inner
        && a.opts == b.opts
        && a.payload == b.payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::tests::sample;
    use crate::packet::MSS;

    fn encoded(p: &Packet) -> Vec<u8> {
        let mut frame = Vec::new();
        encode(p, &mut frame);
        frame
    }

    fn round_trips(p: &Packet) -> bool {
        wire_eq(p, &decode(&encoded(p)).unwrap())
    }

    #[test]
    fn encode_length_matches_wire_size() {
        let p = sample();
        assert_eq!(encoded(&p).len() as u32, p.wire_size());
        assert_eq!(p.wire_size(), HEADER_OVERHEAD + MSS);
    }

    #[test]
    fn round_trip_plain_data() {
        assert!(round_trips(&sample()));
    }

    #[test]
    fn round_trip_all_options() {
        let mut p = sample();
        p.outer.resolved = true;
        p.opts.spillover = Some(MappingOption {
            vip: Vip(11),
            pip: Pip(12),
        });
        p.opts.promotion = Some(MappingOption {
            vip: Vip(13),
            pip: Pip(14),
        });
        p.opts.misdelivery = Some(MisdeliveryTag {
            vip: Vip(15),
            stale_pip: Pip(16),
        });
        p.opts.hit_switch = Some(SwitchTag(17));
        assert!(round_trips(&p));
    }

    #[test]
    fn round_trip_learning_and_invalidation() {
        let mut p = sample();
        p.payload = 0;
        p.kind = PacketKind::Learning(MappingOption {
            vip: Vip(1),
            pip: Pip(2),
        });
        assert!(round_trips(&p));

        p.kind = PacketKind::Invalidation(MisdeliveryTag {
            vip: Vip(3),
            stale_pip: Pip(4),
        });
        assert!(round_trips(&p));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let full = encoded(&sample());
        for cut in [0, 10, 19, 21, 45, full.len() - 1] {
            let r = decode(&full[..cut]);
            assert!(r.is_err(), "decode accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut raw = encoded(&sample());
        raw[12] ^= 0xff; // outer src byte
        assert_eq!(decode(&raw), Err(WireError::BadChecksum));
    }

    /// `raw` with its outer header's checksum recomputed, so the check
    /// after it is the one that fires.
    fn rechecksummed(mut raw: Vec<u8>) -> Vec<u8> {
        raw[10..12].fill(0);
        let csum = internet_checksum(&raw[..IPV4_LEN]);
        raw[10..12].copy_from_slice(&csum.to_be_bytes());
        raw
    }

    #[test]
    fn non_tunnel_protocol_is_rejected() {
        let mut raw = encoded(&sample());
        raw[9] = 6; // outer proto = TCP, not our shim
        assert_eq!(decode(&rechecksummed(raw)), Err(WireError::NotTunnel));
    }

    #[test]
    fn bytes_the_encoder_never_writes_are_rejected() {
        let mut p = sample();
        p.opts.hit_switch = Some(SwitchTag(9));
        let shim = IPV4_LEN;
        let transport = shim + SHIM_LEN + HIT_SWITCH_TLV_LEN as usize + IPV4_LEN;
        // Outer TTL 63, with a checksum that verifies.
        let mut ttl = encoded(&p);
        ttl[8] = 63;
        assert_eq!(decode(&rechecksummed(ttl)), Err(WireError::NonCanonical));
        for at in [shim + 1, shim + 3, transport + 12, transport + 15] {
            let mut raw = encoded(&p);
            raw[at] |= 0x40; // an unknown flag bit, or a reserved or pad byte
            assert_eq!(decode(&raw), Err(WireError::NonCanonical), "byte {at}");
        }
    }

    #[test]
    fn checksum_of_valid_header_is_zero() {
        assert_eq!(internet_checksum(&ipv4_header(20, SHIM_PROTO, 1, 2)), 0);
    }

    #[test]
    fn internet_checksum_known_vector() {
        // Classic example from RFC 1071 discussions.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }
}
