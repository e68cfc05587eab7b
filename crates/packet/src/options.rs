//! Typed tunnel-header options.
//!
//! The paper piggybacks four kinds of state on forwarded packets (§3.2–3.3),
//! all of which ride in the tunnel header's option field:
//!
//! * **spillover** — an entry evicted from one switch, offered to the caches
//!   downstream ("cache spillover");
//! * **promotion** — a hot entry a spine offers to the core switch above it;
//! * **misdelivery tag** — set by the old destination's ToR on packets that
//!   were delivered using a stale mapping, so upstream caches invalidate;
//! * **hit-switch tag** — the identifier of the switch whose cache resolved
//!   this packet, used to target invalidation packets after a misdelivery.
//!
//! Each option is at most one instance per packet, which bounds the header to
//! a fixed worst-case size — a hard requirement for a P4 parser and exactly
//! how the prototype's register-array layout treats it.

use serde::{Deserialize, Serialize};

use crate::addr::{Pip, SwitchTag, Vip};
use crate::wire::{HIT_SWITCH_TLV_LEN, PAIR_TLV_LEN};

/// A V2P mapping carried in an option (spillover, promotion, learning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MappingOption {
    /// The virtual address (key).
    pub vip: Vip,
    /// Its physical location (value).
    pub pip: Pip,
}

/// The misdelivery tag (§3.3).
///
/// Carries the destination VIP whose mapping proved stale and the physical
/// address it was wrongly delivered to. A switch holding `vip -> stale_pip`
/// invalidates; a switch holding a *newer* mapping for `vip` may still serve
/// the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MisdeliveryTag {
    /// The virtual destination that was misrouted.
    pub vip: Vip,
    /// The stale physical address the packet was delivered to.
    pub stale_pip: Pip,
}

/// The full option set of one packet.
///
/// `Default` is the empty set: a freshly sent tenant packet carries no
/// options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TunnelOptions {
    /// Entry evicted upstream, looking for a cache slot downstream.
    pub spillover: Option<MappingOption>,
    /// Hot entry a spine promotes toward the core layer.
    pub promotion: Option<MappingOption>,
    /// Set after delivery to a stale location.
    pub misdelivery: Option<MisdeliveryTag>,
    /// Which switch's cache resolved this packet, if any.
    pub hit_switch: Option<SwitchTag>,
}

impl TunnelOptions {
    /// An empty option set.
    pub const EMPTY: TunnelOptions = TunnelOptions {
        spillover: None,
        promotion: None,
        misdelivery: None,
        hit_switch: None,
    };

    /// Total encoded length of the present options in bytes
    /// (type + length byte plus the value, per option; `sv2p_packet::wire`
    /// owns the sizes).
    #[inline]
    pub fn wire_len(&self) -> u32 {
        let pairs = u32::from(self.spillover.is_some())
            + u32::from(self.promotion.is_some())
            + u32::from(self.misdelivery.is_some());
        pairs * PAIR_TLV_LEN + u32::from(self.hit_switch.is_some()) * HIT_SWITCH_TLV_LEN
    }

    /// The worst-case encoded length (all options present).
    pub const MAX_WIRE_LEN: u32 = 3 * PAIR_TLV_LEN + HIT_SWITCH_TLV_LEN;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_options_have_zero_length() {
        assert_eq!(TunnelOptions::default().wire_len(), 0);
    }

    #[test]
    fn wire_len_counts_each_present_option() {
        let mut o = TunnelOptions {
            spillover: Some(MappingOption {
                vip: Vip(1),
                pip: Pip(2),
            }),
            ..TunnelOptions::default()
        };
        assert_eq!(o.wire_len(), 10);
        o.hit_switch = Some(SwitchTag(3));
        assert_eq!(o.wire_len(), 14);
        o.promotion = Some(MappingOption {
            vip: Vip(4),
            pip: Pip(5),
        });
        o.misdelivery = Some(MisdeliveryTag {
            vip: Vip(6),
            stale_pip: Pip(7),
        });
        assert_eq!(o.wire_len(), TunnelOptions::MAX_WIRE_LEN);
    }
}
