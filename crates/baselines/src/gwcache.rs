//! GwCache — Sailfish-style caching at the gateway ToR switches only.
//!
//! "Local caches are deployed only on the gateway ToRs. Other switches are
//! not used for caching... unlike the controller-managed cache in Sailfish,
//! GwCache learns the mappings dynamically in the data plane" (§5).

use sv2p_packet::{Packet, PacketKind, Pip, Vip};
use sv2p_topology::SwitchRole;
use sv2p_vnet::{AgentOutput, CacheOp, Strategy, SwitchAgent, SwitchCtx};
use switchv2p::cache::{push_insert_ops, Admission, DirectMappedCache};

/// The GwCache baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct GwCache;

/// Gateway-ToR agent: destination learning + lookup, admit all.
#[derive(Debug)]
struct GwCacheAgent {
    cache: DirectMappedCache,
}

impl SwitchAgent for GwCacheAgent {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput {
        if !matches!(pkt.kind, PacketKind::Data) {
            return AgentOutput::forward();
        }
        let mut out = AgentOutput::forward();
        if !pkt.outer.resolved {
            if let Some((pip, _)) = self.cache.lookup(pkt.inner.dst_vip) {
                pkt.outer.dst_pip = pip;
                pkt.outer.resolved = true;
                out.cache_hit = true;
            }
        } else {
            // Packets leaving the gateways teach the mapping.
            let (vip, pip) = (pkt.inner.dst_vip, pkt.outer.dst_pip);
            let outcome = self.cache.insert(vip, pip, Admission::All);
            if ctx.trace_cache_ops {
                push_insert_ops(&mut out.cache_ops, outcome, CacheOp::Insert { vip, pip });
            }
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.cache.occupancy()
    }

    fn resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    fn entries(&self) -> Vec<(Vip, Pip)> {
        self.cache.entries()
    }

    fn reset(&mut self) {
        self.cache = DirectMappedCache::new(self.cache.capacity());
    }
}

impl Strategy for GwCache {
    fn name(&self) -> &'static str {
        "GwCache"
    }

    fn cache_weight(&self, role: SwitchRole) -> f64 {
        if role == SwitchRole::GatewayTor {
            1.0
        } else {
            0.0
        }
    }

    fn make_switch_agent(&self, _role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
        Box::new(GwCacheAgent {
            cache: DirectMappedCache::new(lines),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_gateway_tors_cache() {
        let s = GwCache;
        for role in SwitchRole::ALL {
            let caches = role == SwitchRole::GatewayTor;
            assert_eq!(s.cache_weight(role) > 0.0, caches, "{role:?}");
        }
    }
}
