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

    fn caches_at(&self, role: SwitchRole) -> bool {
        if self.config.tor_only {
            matches!(role, SwitchRole::Tor | SwitchRole::GatewayTor)
        } else {
            true
        }
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
        // Old hosts re-forward to the gateway; the in-network caches repair
        // themselves via tags and invalidation packets (§5.2).
        MisdeliveryPolicy::ToGateway
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_caches_everywhere() {
        let s = SwitchV2P::default();
        for role in [
            SwitchRole::GatewayTor,
            SwitchRole::GatewaySpine,
            SwitchRole::Tor,
            SwitchRole::Spine,
            SwitchRole::Core,
        ] {
            assert!(s.caches_at(role), "{role:?}");
        }
        assert_eq!(s.misdelivery_policy(), MisdeliveryPolicy::ToGateway);
    }

    #[test]
    fn tor_only_restricts_caching() {
        let s = SwitchV2P::new(SwitchV2PConfig::tor_only());
        assert!(s.caches_at(SwitchRole::Tor));
        assert!(s.caches_at(SwitchRole::GatewayTor));
        assert!(!s.caches_at(SwitchRole::Spine));
        assert!(!s.caches_at(SwitchRole::Core));
    }

    #[test]
    fn agents_receive_their_capacity() {
        let s = SwitchV2P::default();
        let agent = s.make_switch_agent(SwitchRole::Tor, 8);
        assert_eq!(agent.occupancy(), 0);
    }
}
