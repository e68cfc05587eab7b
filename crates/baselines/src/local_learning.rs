//! LocalLearning — the §3.1 strawman: every switch destination-learns and
//! admits everything, with purely local greedy decisions. No learning
//! packets, no spillover, no promotion, no role awareness.

use sv2p_packet::{Packet, PacketKind, Pip, Vip};
use sv2p_topology::SwitchRole;
use sv2p_vnet::{AgentOutput, CacheOp, Strategy, SwitchAgent, SwitchCtx};
use switchv2p::cache::{push_insert_ops, Admission, DirectMappedCache};

/// The LocalLearning baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalLearning;

/// Per-switch agent: lookup + unconditional destination learning.
#[derive(Debug)]
pub struct LocalLearningAgent {
    cache: DirectMappedCache,
}

impl SwitchAgent for LocalLearningAgent {
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
        }
        if pkt.outer.resolved {
            // Local greedy destination learning, admit all (§3.1).
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

impl Strategy for LocalLearning {
    fn name(&self) -> &'static str {
        "LocalLearning"
    }

    fn cache_weight(&self, _role: SwitchRole) -> f64 {
        1.0
    }

    fn make_switch_agent(&self, _role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
        Box::new(LocalLearningAgent {
            cache: DirectMappedCache::new(lines),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::{InnerHeader, OuterHeader, SwitchTag};
    use sv2p_simcore::{SimRng, SimTime};
    use sv2p_vnet::Placement;

    fn ctx<'a>(placement: &'a Placement, rng: &'a mut SimRng) -> SwitchCtx<'a> {
        SwitchCtx {
            now: SimTime::ZERO,
            tag: SwitchTag(0),
            switch_pip: Pip(9999),
            role: SwitchRole::Spine,
            my_pod: Some(0),
            ingress_host: None,
            dst_attached: false,
            placement,
            rng,
            pod_of: &|_| None,
            pip_of_tag: &|_| Pip(0),
            trace_cache_ops: false,
        }
    }

    fn pkt(dst_vip: u32, dst_pip: u32, resolved: bool) -> Packet {
        Packet {
            outer: OuterHeader {
                src_pip: Pip(1),
                dst_pip: Pip(dst_pip),
                resolved,
            },
            inner: InnerHeader {
                src_vip: Vip(100),
                dst_vip: Vip(dst_vip),
                src_port: 1,
                dst_port: 2,
                ..InnerHeader::default()
            },
            payload: 10,
            ..Packet::default()
        }
    }

    #[test]
    fn learns_from_resolved_then_serves() {
        let placement = Placement::default();
        let mut rng = SimRng::new(1);
        let s = LocalLearning;
        let mut agent = s.make_switch_agent(SwitchRole::Spine, 8);
        // Resolved packet teaches the mapping.
        let mut p1 = pkt(5, 50, true);
        let out = agent.on_packet(&mut ctx(&placement, &mut rng), &mut p1);
        assert!(!out.cache_hit);
        // Unresolved packet for the same VIP now hits.
        let mut p2 = pkt(5, 999, false);
        let out = agent.on_packet(&mut ctx(&placement, &mut rng), &mut p2);
        assert!(out.cache_hit);
        assert_eq!(p2.outer.dst_pip, Pip(50));
        assert!(p2.outer.resolved);
    }

    #[test]
    fn unresolved_miss_learns_nothing() {
        let placement = Placement::default();
        let mut rng = SimRng::new(1);
        let s = LocalLearning;
        let mut agent = s.make_switch_agent(SwitchRole::Tor, 8);
        let mut p = pkt(5, 999, false);
        agent.on_packet(&mut ctx(&placement, &mut rng), &mut p);
        assert_eq!(agent.occupancy(), 0);
    }
}
