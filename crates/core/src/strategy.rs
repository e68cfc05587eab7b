//! The [`SwitchV2P`] strategy: plugs the agent into the simulator.

use sv2p_topology::SwitchRole;
use sv2p_vnet::{MisdeliveryPolicy, Strategy, SwitchAgent};

use crate::agent::SwitchV2PAgent;
use crate::config::SwitchV2PConfig;

/// The paper's system as a pluggable translation scheme.
#[derive(Debug, Clone, Default)]
pub struct SwitchV2P {
    /// Protocol configuration.
    pub config: SwitchV2PConfig,
}

impl SwitchV2P {
    /// A SwitchV2P deployment with the given protocol configuration.
    pub fn new(config: SwitchV2PConfig) -> Self {
        SwitchV2P { config }
    }
}

impl Strategy for SwitchV2P {
    fn name(&self) -> &'static str {
        "SwitchV2P"
    }

    fn make_switch_agent(&self, _role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
        Box::new(SwitchV2PAgent::new(lines, self.config))
    }

    fn cache_weight(&self, role: SwitchRole) -> f64 {
        let (tor, spine, core) = self.config.layer_weights;
        match role {
            SwitchRole::Tor | SwitchRole::GatewayTor => tor,
            SwitchRole::Spine | SwitchRole::GatewaySpine => spine,
            SwitchRole::Core => core,
        }
    }

    fn misdelivery_policy(&self) -> MisdeliveryPolicy {
        // The one scheme without a follow-me rule: old hosts re-forward to
        // the gateway, and the in-network caches repair themselves via tags
        // and invalidation packets (§5.2).
        MisdeliveryPolicy::ToGateway
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_caches_everywhere() {
        let s = SwitchV2P::default();
        for role in SwitchRole::ALL {
            assert_eq!(s.cache_weight(role), 1.0, "{role:?}");
        }
        assert_eq!(s.misdelivery_policy(), MisdeliveryPolicy::ToGateway);
    }

    /// Entries held per layer (ToR, spine, core) after a short run.
    fn entries_by_layer(config: SwitchV2PConfig) -> [usize; 3] {
        use sv2p_netsim::{Engine, FlowKind, FlowSpec, SimConfig};
        use sv2p_simcore::SimTime;
        use sv2p_topology::{FatTreeConfig, NodeKind};

        let s = SwitchV2P::new(config);
        let mut sim = Engine::new(
            SimConfig::default(),
            &FatTreeConfig::scaled_ft8(2),
            &s,
            512,
            4,
        );
        let vms = sim.placement().len();
        sim.add_flows((0..48).map(|i| FlowSpec {
            src_vm: (i * 7) % vms,
            dst_vm: (i * 13 + 29) % vms,
            start: SimTime::from_micros(10 + 3 * i as u64),
            kind: FlowKind::Tcp { bytes: 20_000 },
        }));
        sim.run();
        let mut held = [0; 3];
        for (sw, (_, entries)) in sim.topology().switches().zip(sim.cache_occupancy()) {
            let layer = match sw.kind {
                NodeKind::Tor { .. } => 0,
                NodeKind::Spine { .. } => 1,
                _ => 2,
            };
            held[layer] += entries;
        }
        held
    }

    #[test]
    fn tor_only_restricts_caching() {
        // A layer of weight 0 gets no lines, so its switches hold nothing
        // where the default deployment caches at every layer.
        let [tors, spines, cores] = entries_by_layer(SwitchV2PConfig::tor_only());
        assert!(tors > 0);
        assert_eq!((spines, cores), (0, 0));
        let [_, spines, cores] = entries_by_layer(SwitchV2PConfig::default());
        assert!(spines > 0 && cores > 0, "{spines} {cores}");
    }

    #[test]
    fn agents_receive_their_capacity() {
        let s = SwitchV2P::default();
        let agent = s.make_switch_agent(SwitchRole::Tor, 8);
        assert_eq!(agent.occupancy(), 0);
    }
}
