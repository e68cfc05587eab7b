//! NoCache — the pure gateway design (Andromeda's Hoverboard model without
//! host offloading): every packet detours through a translation gateway,
//! and the old host forwards a misdelivered packet by the follow-me rule
//! installed before the move (§3.3/§5.2). These are the defaults of
//! [`Strategy`], so the scheme is its name.

use sv2p_vnet::Strategy;

/// The NoCache baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl Strategy for NoCache {
    fn name(&self) -> &'static str {
        "NoCache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_topology::SwitchRole;
    use sv2p_vnet::MisdeliveryPolicy;

    #[test]
    fn caches_nowhere() {
        let s = NoCache;
        for role in SwitchRole::ALL {
            assert_eq!(s.cache_weight(role), 0.0, "{role:?}");
        }
        assert_eq!(s.misdelivery_policy(), MisdeliveryPolicy::FollowMe);
    }
}
