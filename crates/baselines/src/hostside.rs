//! Host-driven baselines: Direct (preprogrammed) and OnDemand (first lookup
//! via the gateway, then immediate host-rule offload).

use sv2p_packet::{Pip, Vip};
use sv2p_simcore::FxHashMap;
use sv2p_topology::NodeId;
use sv2p_vnet::{HostAgent, HostResolution, Placement, Strategy};

/// Direct — pure host-driven: every host is preprogrammed with all mappings
/// (the paper's best-network-performance reference; it "ignores the
/// overheads of mapping updates", §5).
#[derive(Debug, Clone, Copy, Default)]
pub struct Direct;

/// Host agent that always resolves from the (pre-installed) full table.
#[derive(Debug, Default)]
struct DirectHostAgent;

impl HostAgent for DirectHostAgent {
    fn resolve(&mut self, _host: NodeId, placement: &Placement, dst_vip: Vip) -> HostResolution {
        match placement.lookup(dst_vip) {
            Some(pip) => HostResolution::Direct(pip),
            // An unplaced VIP: fall back to the gateway, which will drop it.
            None => HostResolution::Gateway,
        }
    }
}

impl Strategy for Direct {
    fn name(&self) -> &'static str {
        "Direct"
    }

    fn make_host_agent(&self) -> Box<dyn HostAgent> {
        Box::new(DirectHostAgent)
    }
}

/// OnDemand — host-driven with a first lookup via the gateway: the first
/// packet to a destination detours through a gateway while the mapping rule
/// is immediately offloaded to the sender host (VL2's on-demand lookup, the
/// Hoverboard model with immediate offloading, Achelous's ALM).
///
/// The host rule is *not* refreshed afterwards: after a migration it serves
/// stale until the (millisecond-scale) control plane catches up, which in
/// the paper's 1 ms migration window means never (§5.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnDemand;

/// Host agent with an unbounded first-miss-filled cache per host; a host
/// that never sent holds none.
#[derive(Debug, Default)]
struct OnDemandHostAgent {
    caches: FxHashMap<NodeId, FxHashMap<Vip, Pip>>,
}

impl HostAgent for OnDemandHostAgent {
    fn resolve(&mut self, host: NodeId, placement: &Placement, dst_vip: Vip) -> HostResolution {
        let cache = self.caches.entry(host).or_default();
        if let Some(&pip) = cache.get(&dst_vip) {
            return HostResolution::Direct(pip);
        }
        // Miss: this packet pays the gateway detour; the rule is installed
        // for everything after it.
        if let Some(pip) = placement.lookup(dst_vip) {
            cache.insert(dst_vip, pip);
        }
        HostResolution::Gateway
    }

    fn reset(&mut self, host: NodeId) {
        self.caches.remove(&host);
    }
}

impl Strategy for OnDemand {
    fn name(&self) -> &'static str {
        "OnDemand"
    }

    fn make_host_agent(&self) -> Box<dyn HostAgent> {
        Box::new(OnDemandHostAgent::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_vnet::MisdeliveryPolicy;

    /// One VM, VM 0, on the server with PIP 10.
    fn placement() -> Placement {
        Placement::from_hosts(vec![(Pip(10), NodeId(1))], 1)
    }

    #[test]
    fn direct_always_resolves_locally() {
        let placement = placement();
        let vm0 = placement.vip_of(0);
        let mut agent = DirectHostAgent;
        for _ in 0..3 {
            assert_eq!(
                agent.resolve(NodeId(3), &placement, vm0),
                HostResolution::Direct(Pip(10))
            );
        }
        assert_eq!(
            agent.resolve(NodeId(3), &placement, Vip(99)),
            HostResolution::Gateway
        );
    }

    #[test]
    fn ondemand_first_miss_then_direct() {
        let mut placement = placement();
        let vm0 = placement.vip_of(0);
        let (host, other) = (NodeId(3), NodeId(4));
        let mut agent = OnDemandHostAgent::default();
        assert_eq!(
            agent.resolve(host, &placement, vm0),
            HostResolution::Gateway,
            "first packet detours"
        );
        assert_eq!(
            agent.resolve(host, &placement, vm0),
            HostResolution::Direct(Pip(10)),
            "subsequent packets go direct"
        );
        // Each host learns for itself.
        assert_eq!(
            agent.resolve(other, &placement, vm0),
            HostResolution::Gateway,
            "another host's first packet detours too"
        );
        // The rule is NOT refreshed on migration: stays stale.
        placement.relocate(0, NodeId(2), Pip(20));
        assert_eq!(
            agent.resolve(host, &placement, vm0),
            HostResolution::Direct(Pip(10)),
            "stale rule after migration"
        );
        // A reset forgets one host's rules only.
        agent.reset(other);
        assert_eq!(
            agent.resolve(host, &placement, vm0),
            HostResolution::Direct(Pip(10))
        );
        assert_eq!(
            agent.resolve(other, &placement, vm0),
            HostResolution::Gateway
        );
    }

    #[test]
    fn strategy_wiring() {
        assert_eq!(Direct.name(), "Direct");
        assert_eq!(OnDemand.name(), "OnDemand");
        assert_eq!(OnDemand.misdelivery_policy(), MisdeliveryPolicy::FollowMe);
    }
}
