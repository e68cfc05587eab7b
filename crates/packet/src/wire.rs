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
//! inner transport (16 B) ports, seq, ack, flags
//! payload (N B)         zeros (content is irrelevant to the simulation)
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::addr::{Pip, SwitchTag, Vip};
use crate::options::{MappingOption, MisdeliveryTag, TunnelOptions};
use crate::packet::{
    FlowId, InnerHeader, OuterHeader, Packet, PacketId, PacketKind, Protocol, TcpFlags,
};

/// IP protocol number of the tunnel shim in the outer header
/// (253 and 254 are reserved for experimentation; we use 250 to make clear
/// this is a private encapsulation).
pub const SHIM_PROTO: u8 = 250;

const TLV_SPILLOVER: u8 = 1;
const TLV_PROMOTION: u8 = 2;
const TLV_MISDELIVERY: u8 = 3;
const TLV_HIT_SWITCH: u8 = 4;
const TLV_LEARNING: u8 = 5;
const TLV_INVALIDATION: u8 = 6;

const KIND_DATA: u8 = 0;
const KIND_LEARNING: u8 = 1;
const KIND_INVALIDATION: u8 = 2;

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
    /// Unknown shim kind byte.
    BadKind(u8),
    /// Malformed or duplicate option TLV.
    BadOption(u8),
    /// Inner protocol number is neither TCP nor UDP.
    BadProtocol(u8),
    /// total_len fields disagree with the buffer.
    LengthMismatch,
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

fn put_ipv4(buf: &mut BytesMut, total_len: u16, proto: u8, src: u32, dst: u32) {
    let start = buf.len();
    buf.put_u8(0x45); // version 4, IHL 5
    buf.put_u8(0); // TOS
    buf.put_u16(total_len);
    buf.put_u16(0); // identification
    buf.put_u16(0x4000); // DF
    buf.put_u8(64); // TTL
    buf.put_u8(proto);
    buf.put_u16(0); // checksum placeholder
    buf.put_u32(src);
    buf.put_u32(dst);
    let csum = internet_checksum(&buf[start..start + 20]);
    buf[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
}

struct Ipv4 {
    total_len: u16,
    proto: u8,
    src: u32,
    dst: u32,
}

fn get_ipv4(buf: &mut Bytes) -> Result<Ipv4, WireError> {
    if buf.remaining() < 20 {
        return Err(WireError::Truncated);
    }
    if internet_checksum(&buf[..20]) != 0 {
        return Err(WireError::BadChecksum);
    }
    let ver_ihl = buf.get_u8();
    if ver_ihl != 0x45 {
        return Err(WireError::BadVersion);
    }
    buf.advance(1); // TOS
    let total_len = buf.get_u16();
    buf.advance(5); // id, flags/frag, TTL
    let proto = buf.get_u8();
    buf.advance(2); // checksum (verified above)
    let src = buf.get_u32();
    let dst = buf.get_u32();
    Ok(Ipv4 {
        total_len,
        proto,
        src,
        dst,
    })
}

fn put_mapping_tlv(buf: &mut BytesMut, tlv: u8, m: MappingOption) {
    buf.put_u8(tlv);
    buf.put_u8(8);
    buf.put_u32(m.vip.0);
    buf.put_u32(m.pip.0);
}

/// Encodes `pkt` into its full wire representation.
///
/// The payload is emitted as zeros — simulation payloads carry no content.
pub fn encode(pkt: &Packet) -> Bytes {
    let opt_len = pkt.opts.wire_len()
        + match pkt.kind {
            PacketKind::Data => 0,
            PacketKind::Learning(_) | PacketKind::Invalidation(_) => 10,
        };
    let inner_total = 20 + 16 + pkt.payload;
    let outer_total = 20 + 4 + opt_len + inner_total;
    let mut buf = BytesMut::with_capacity(outer_total as usize);

    put_ipv4(
        &mut buf,
        outer_total as u16,
        SHIM_PROTO,
        pkt.outer.src_pip.0,
        pkt.outer.dst_pip.0,
    );

    // Shim.
    let kind = match pkt.kind {
        PacketKind::Data => KIND_DATA,
        PacketKind::Learning(_) => KIND_LEARNING,
        PacketKind::Invalidation(_) => KIND_INVALIDATION,
    };
    buf.put_u8(kind);
    buf.put_u8(if pkt.outer.resolved { FLAG_RESOLVED } else { 0 });
    buf.put_u8(opt_len as u8);
    buf.put_u8(0);

    // Options.
    if let Some(m) = pkt.opts.spillover {
        put_mapping_tlv(&mut buf, TLV_SPILLOVER, m);
    }
    if let Some(m) = pkt.opts.promotion {
        put_mapping_tlv(&mut buf, TLV_PROMOTION, m);
    }
    if let Some(t) = pkt.opts.misdelivery {
        buf.put_u8(TLV_MISDELIVERY);
        buf.put_u8(8);
        buf.put_u32(t.vip.0);
        buf.put_u32(t.stale_pip.0);
    }
    if let Some(s) = pkt.opts.hit_switch {
        buf.put_u8(TLV_HIT_SWITCH);
        buf.put_u8(2);
        buf.put_u16(s.0);
    }
    match pkt.kind {
        PacketKind::Learning(m) => put_mapping_tlv(&mut buf, TLV_LEARNING, m),
        PacketKind::Invalidation(t) => {
            buf.put_u8(TLV_INVALIDATION);
            buf.put_u8(8);
            buf.put_u32(t.vip.0);
            buf.put_u32(t.stale_pip.0);
        }
        PacketKind::Data => {}
    }

    // Inner IPv4 + transport.
    let inner_proto = match pkt.inner.protocol {
        Protocol::Tcp => 6,
        Protocol::Udp => 17,
    };
    put_ipv4(
        &mut buf,
        inner_total as u16,
        inner_proto,
        pkt.inner.src_vip.0,
        pkt.inner.dst_vip.0,
    );
    buf.put_u16(pkt.inner.src_port);
    buf.put_u16(pkt.inner.dst_port);
    buf.put_u32(pkt.inner.seq);
    buf.put_u32(pkt.inner.ack);
    buf.put_u8(pkt.inner.flags.to_byte());
    buf.put_bytes(0, 3);

    buf.put_bytes(0, pkt.payload as usize);
    buf.freeze()
}

/// Decodes a wire buffer back into a structured packet.
///
/// Simulation-only metadata (`id`, `flow`, hop counters, …) is not on the
/// wire and comes back zeroed; compare wire-visible fields only.
pub fn decode(mut buf: Bytes) -> Result<Packet, WireError> {
    let total_avail = buf.remaining();
    let outer = get_ipv4(&mut buf)?;
    if outer.proto != SHIM_PROTO {
        return Err(WireError::NotTunnel);
    }
    if outer.total_len as usize != total_avail {
        return Err(WireError::LengthMismatch);
    }

    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let kind_byte = buf.get_u8();
    let flags = buf.get_u8();
    let opt_len = buf.get_u8() as usize;
    buf.advance(1);

    if buf.remaining() < opt_len {
        return Err(WireError::Truncated);
    }
    let mut opts = TunnelOptions::default();
    let mut learning = None;
    let mut invalidation = None;
    let mut opt_buf = buf.split_to(opt_len);
    while opt_buf.has_remaining() {
        if opt_buf.remaining() < 2 {
            return Err(WireError::BadOption(0));
        }
        let t = opt_buf.get_u8();
        let l = opt_buf.get_u8() as usize;
        if opt_buf.remaining() < l {
            return Err(WireError::BadOption(t));
        }
        match (t, l) {
            (TLV_SPILLOVER, 8) | (TLV_PROMOTION, 8) | (TLV_LEARNING, 8) => {
                let m = MappingOption {
                    vip: Vip(opt_buf.get_u32()),
                    pip: Pip(opt_buf.get_u32()),
                };
                let slot = match t {
                    TLV_SPILLOVER => &mut opts.spillover,
                    TLV_PROMOTION => &mut opts.promotion,
                    _ => &mut learning,
                };
                if slot.replace(m).is_some() {
                    return Err(WireError::BadOption(t));
                }
            }
            (TLV_MISDELIVERY, 8) | (TLV_INVALIDATION, 8) => {
                let tag = MisdeliveryTag {
                    vip: Vip(opt_buf.get_u32()),
                    stale_pip: Pip(opt_buf.get_u32()),
                };
                let slot = if t == TLV_MISDELIVERY {
                    &mut opts.misdelivery
                } else {
                    &mut invalidation
                };
                if slot.replace(tag).is_some() {
                    return Err(WireError::BadOption(t));
                }
            }
            (TLV_HIT_SWITCH, 2) => {
                if opts
                    .hit_switch
                    .replace(SwitchTag(opt_buf.get_u16()))
                    .is_some()
                {
                    return Err(WireError::BadOption(t));
                }
            }
            _ => return Err(WireError::BadOption(t)),
        }
    }

    let kind = match kind_byte {
        KIND_DATA => PacketKind::Data,
        KIND_LEARNING => PacketKind::Learning(learning.ok_or(WireError::BadKind(kind_byte))?),
        KIND_INVALIDATION => {
            PacketKind::Invalidation(invalidation.ok_or(WireError::BadKind(kind_byte))?)
        }
        k => return Err(WireError::BadKind(k)),
    };

    let inner = get_ipv4(&mut buf)?;
    let protocol = match inner.proto {
        6 => Protocol::Tcp,
        17 => Protocol::Udp,
        p => return Err(WireError::BadProtocol(p)),
    };
    if buf.remaining() < 16 {
        return Err(WireError::Truncated);
    }
    let src_port = buf.get_u16();
    let dst_port = buf.get_u16();
    let seq = buf.get_u32();
    let ack = buf.get_u32();
    let tcp_flags = TcpFlags::from_byte(buf.get_u8());
    buf.advance(3);

    let payload = buf.remaining() as u32;
    if inner.total_len as u32 != 20 + 16 + payload {
        return Err(WireError::LengthMismatch);
    }

    Ok(Packet {
        id: PacketId(0),
        flow: FlowId(0),
        kind,
        outer: OuterHeader {
            src_pip: Pip(outer.src),
            dst_pip: Pip(outer.dst),
            resolved: flags & FLAG_RESOLVED != 0,
        },
        inner: InnerHeader {
            src_vip: Vip(inner.src),
            dst_vip: Vip(inner.dst),
            src_port,
            dst_port,
            protocol,
            seq,
            ack,
            flags: tcp_flags,
        },
        opts,
        payload,
        switch_hops: 0,
        sent_ns: 0,
        first_of_flow: false,
        visited_gateway: false,
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
    use crate::packet::{HEADER_OVERHEAD, MSS};

    fn sample() -> Packet {
        Packet {
            id: PacketId(42),
            flow: FlowId(7),
            kind: PacketKind::Data,
            outer: OuterHeader {
                src_pip: Pip(0x0a00_0001),
                dst_pip: Pip(0x0a00_0102),
                resolved: false,
            },
            inner: InnerHeader {
                src_vip: Vip(0xc0a8_0001),
                dst_vip: Vip(0xc0a8_0002),
                src_port: 40000,
                dst_port: 80,
                protocol: Protocol::Tcp,
                seq: 123456,
                ack: 654321,
                flags: TcpFlags {
                    syn: true,
                    ack: false,
                    fin: false,
                },
            },
            opts: TunnelOptions::default(),
            payload: MSS,
            switch_hops: 3,
            sent_ns: 0,
            first_of_flow: true,
            visited_gateway: false,
        }
    }

    #[test]
    fn encode_length_matches_wire_size() {
        let p = sample();
        assert_eq!(encode(&p).len() as u32, p.wire_size());
        assert_eq!(p.wire_size(), HEADER_OVERHEAD + MSS);
    }

    #[test]
    fn round_trip_plain_data() {
        let p = sample();
        let d = decode(encode(&p)).unwrap();
        assert!(wire_eq(&p, &d));
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
        let d = decode(encode(&p)).unwrap();
        assert!(wire_eq(&p, &d));
    }

    #[test]
    fn round_trip_learning_and_invalidation() {
        let mut p = sample();
        p.payload = 0;
        p.kind = PacketKind::Learning(MappingOption {
            vip: Vip(1),
            pip: Pip(2),
        });
        let d = decode(encode(&p)).unwrap();
        assert!(wire_eq(&p, &d));

        p.kind = PacketKind::Invalidation(MisdeliveryTag {
            vip: Vip(3),
            stale_pip: Pip(4),
        });
        let d = decode(encode(&p)).unwrap();
        assert!(wire_eq(&p, &d));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let p = sample();
        let full = encode(&p);
        for cut in [0, 10, 19, 21, 45, full.len() - 1] {
            let r = decode(full.slice(..cut));
            assert!(r.is_err(), "decode accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let p = sample();
        let mut raw = BytesMut::from(&encode(&p)[..]);
        raw[12] ^= 0xff; // outer src byte
        assert_eq!(decode(raw.freeze()), Err(WireError::BadChecksum));
    }

    #[test]
    fn non_tunnel_protocol_is_rejected() {
        let p = sample();
        let mut raw = BytesMut::from(&encode(&p)[..]);
        raw[9] = 6; // outer proto = TCP, not our shim
                    // Fix the checksum so the proto check is what fires.
        raw[10] = 0;
        raw[11] = 0;
        let csum = internet_checksum(&raw[..20]);
        raw[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(decode(raw.freeze()), Err(WireError::NotTunnel));
    }

    #[test]
    fn checksum_of_valid_header_is_zero() {
        let mut buf = BytesMut::new();
        put_ipv4(&mut buf, 20, SHIM_PROTO, 1, 2);
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn internet_checksum_known_vector() {
        // Classic example from RFC 1071 discussions.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }
}
