//! The structured packet the simulator forwards.

use serde::{Deserialize, Serialize};

use crate::addr::{Pip, Vip};
use crate::options::{MappingOption, MisdeliveryTag, TunnelOptions};

/// Unique packet identifier (monotone per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// Unique flow identifier (monotone per simulation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(pub u64);

/// TCP-style control flags on the inner (tenant) header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Connection-opening segment.
    pub syn: bool,
    /// Acknowledgment number is valid.
    pub ack: bool,
    /// Sender is done.
    pub fin: bool,
}

impl TcpFlags {
    /// Packs into the low bits of a byte (wire order: FIN, SYN, ACK as in
    /// TCP's flag octet positions 0, 1, 4).
    pub fn to_byte(self) -> u8 {
        (self.fin as u8) | (self.syn as u8) << 1 | (self.ack as u8) << 4
    }

    /// Unpacks from a byte; unknown bits are ignored.
    pub fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// Inner (tenant) header: both endpoints are *virtual* addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InnerHeader {
    /// Sender's virtual address.
    pub src_vip: Vip,
    /// Destination's virtual address.
    pub dst_vip: Vip,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol of the tenant flow.
    pub protocol: Protocol,
    /// Sequence number (byte offset for TCP, datagram counter for UDP).
    pub seq: u32,
    /// Cumulative acknowledgment number (TCP only).
    pub ack: u32,
    /// TCP control flags.
    pub flags: TcpFlags,
}

/// Tenant transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Reliable, congestion-controlled stream (Hadoop / WebSearch / Alibaba).
    Tcp,
    /// Unreliable datagrams (Microbursts / Video / incast).
    Udp,
}

/// Outer (underlay) header: both endpoints are *physical* addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OuterHeader {
    /// Physical address of the sending server.
    pub src_pip: Pip,
    /// Current physical destination: a gateway for unresolved packets, the
    /// true server once resolved.
    pub dst_pip: Pip,
    /// True once the destination VIP has been translated (by the sender in
    /// host-driven designs, by a gateway, or by an in-network cache hit).
    /// On the wire this is a flag bit in the tunnel shim header.
    pub resolved: bool,
}

/// What kind of packet this is, from the data plane's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketKind {
    /// A tenant packet (data or ACK).
    Data,
    /// A learning packet generated by a gateway ToR (§3.2.2), pushing a
    /// mapping toward the sender's ToR.
    Learning(MappingOption),
    /// An invalidation packet generated by a ToR after tagging a misdelivery
    /// (§3.3), addressed to the switch that served the stale entry.
    Invalidation(MisdeliveryTag),
}

/// One simulated packet.
///
/// `size` is the full wire size in bytes (headers + options + payload) and is
/// what link serialization and byte-count metrics use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Flow this packet belongs to ([`FlowId::default`] for protocol packets).
    pub flow: FlowId,
    /// Data / learning / invalidation.
    pub kind: PacketKind,
    /// Underlay header.
    pub outer: OuterHeader,
    /// Tenant header.
    pub inner: InnerHeader,
    /// Tunnel options currently riding on the packet.
    pub opts: TunnelOptions,
    /// Tenant payload bytes (0 for pure ACKs and protocol packets).
    pub payload: u32,
    /// Number of switches traversed so far (packet stretch metric).
    pub switch_hops: u16,
    /// Nanosecond timestamp of the original send (simulation metadata for
    /// latency metrics; not on the wire).
    pub sent_ns: u64,
    /// True if this is the first packet of its flow (first-packet latency).
    pub first_of_flow: bool,
    /// True once the packet has been processed by a translation gateway.
    pub visited_gateway: bool,
}

// The simulator's arena slot is one `Packet`, and slot bytes set its speed:
// a change that grows it must say so here.
const _: () = assert!(std::mem::size_of::<Packet>() == 120);

/// Fixed header overhead: outer IPv4 (20) + tunnel shim base (4) + inner
/// IPv4 (20) + inner transport (16).
pub const HEADER_OVERHEAD: u32 = 20 + 4 + 20 + 16;

/// Conventional MTU payload used by the workload generators: 1000 B of
/// tenant data plus headers stays under a 1500 B MTU with worst-case options.
pub const MSS: u32 = 1000;

impl Packet {
    /// Full wire size in bytes, including present tunnel options and the
    /// mapping TLV that learning/invalidation packets carry as payload.
    pub fn wire_size(&self) -> u32 {
        let kind_tlv = match self.kind {
            PacketKind::Data => 0,
            PacketKind::Learning(_) | PacketKind::Invalidation(_) => 10,
        };
        HEADER_OVERHEAD + self.opts.wire_len() + kind_tlv + self.payload
    }

    /// The key ECMP hashes to pick an uplink.
    ///
    /// Hashes the outer pair plus the inner 5-tuple, matching data-center
    /// practice of hashing into the tunnel payload so different flows between
    /// the same pair of endpoints spread across paths. The outer destination
    /// participates, so a packet rewritten by a cache hit may legitimately
    /// take a different uplink than its predecessors — a reordering source
    /// the paper discusses (§4).
    pub fn ecmp_key(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for v in [
            self.outer.src_pip.0 as u64,
            self.outer.dst_pip.0 as u64,
            self.inner.src_vip.0 as u64,
            self.inner.dst_vip.0 as u64,
            ((self.inner.src_port as u64) << 16) | self.inner.dst_port as u64,
            match self.inner.protocol {
                Protocol::Tcp => 6,
                Protocol::Udp => 17,
            },
        ] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3); // FNV prime
        }
        // Final avalanche so low bits are well mixed for modulo use.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SwitchTag;

    fn sample() -> Packet {
        Packet {
            id: PacketId(1),
            flow: FlowId(9),
            kind: PacketKind::Data,
            outer: OuterHeader {
                src_pip: Pip(100),
                dst_pip: Pip(200),
                resolved: false,
            },
            inner: InnerHeader {
                src_vip: Vip(1),
                dst_vip: Vip(2),
                src_port: 1234,
                dst_port: 80,
                protocol: Protocol::Tcp,
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
            },
            opts: TunnelOptions::default(),
            payload: MSS,
            switch_hops: 0,
            sent_ns: 0,
            first_of_flow: true,
            visited_gateway: false,
        }
    }

    #[test]
    fn wire_size_includes_options() {
        let mut p = sample();
        assert_eq!(p.wire_size(), HEADER_OVERHEAD + MSS);
        p.opts.hit_switch = Some(SwitchTag(5));
        assert_eq!(p.wire_size(), HEADER_OVERHEAD + MSS + 4);
    }

    #[test]
    fn max_packet_fits_mtu() {
        // MSS payload + all headers + worst-case options must fit 1500 B
        // (computed through wire_size so the check is not constant-folded).
        let mut p = sample();
        p.opts.spillover = Some(MappingOption {
            vip: Vip(1),
            pip: Pip(2),
        });
        p.opts.promotion = p.opts.spillover;
        p.opts.misdelivery = Some(crate::options::MisdeliveryTag {
            vip: Vip(3),
            stale_pip: Pip(4),
        });
        p.opts.hit_switch = Some(SwitchTag(5));
        assert!(p.wire_size() <= 1500, "{}", p.wire_size());
    }

    #[test]
    fn ecmp_key_is_stable_and_flow_sensitive() {
        let p = sample();
        assert_eq!(p.ecmp_key(), p.ecmp_key());
        let mut q = sample();
        q.inner.src_port = 4321;
        assert_ne!(p.ecmp_key(), q.ecmp_key());
        // Rewriting the outer destination (cache hit) may change the path.
        let mut r = sample();
        r.outer.dst_pip = Pip(999);
        assert_ne!(p.ecmp_key(), r.ecmp_key());
    }

    #[test]
    fn ecmp_key_spreads_across_buckets() {
        // 1000 flows into 4 buckets: each bucket should get a fair share.
        let mut counts = [0u32; 4];
        for port in 0..1000u16 {
            let mut p = sample();
            p.inner.src_port = port;
            counts[(p.ecmp_key() % 4) as usize] += 1;
        }
        for &c in &counts {
            assert!((150..=350).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn tcp_flags_round_trip() {
        for fin in [false, true] {
            for syn in [false, true] {
                for ack in [false, true] {
                    let f = TcpFlags { syn, ack, fin };
                    assert_eq!(TcpFlags::from_byte(f.to_byte()), f);
                }
            }
        }
    }
}
