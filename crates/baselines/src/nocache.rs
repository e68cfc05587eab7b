//! NoCache — the pure gateway design (Andromeda's Hoverboard model without
//! host offloading): every packet detours through a translation gateway.

use sv2p_topology::SwitchRole;
use sv2p_vnet::agents::NoopSwitchAgent;
use sv2p_vnet::{MisdeliveryPolicy, Strategy, SwitchAgent};

/// The NoCache baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl Strategy for NoCache {
    fn name(&self) -> &'static str {
        "NoCache"
    }

    fn caches_at(&self, _role: SwitchRole) -> bool {
        false
    }

    fn make_switch_agent(&self, _role: SwitchRole, _lines: usize) -> Box<dyn SwitchAgent> {
        Box::new(NoopSwitchAgent)
    }

    fn misdelivery_policy(&self) -> MisdeliveryPolicy {
        // Andromeda installs a follow-me rule before migrating (§3.3/§5.2).
        MisdeliveryPolicy::FollowMe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_nowhere() {
        let s = NoCache;
        for role in [
            SwitchRole::GatewayTor,
            SwitchRole::GatewaySpine,
            SwitchRole::Tor,
            SwitchRole::Spine,
            SwitchRole::Core,
        ] {
            assert!(!s.caches_at(role));
        }
        assert_eq!(s.misdelivery_policy(), MisdeliveryPolicy::FollowMe);
    }
}
