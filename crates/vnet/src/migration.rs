//! VM migration plans (§5.2).
//!
//! A migration moves one VM's VIP to a new server at a given instant. The
//! control plane updates the ground truth ([`crate::Placement::relocate`])
//! immediately (updates at the gateway are cheap — that is the gateway
//! design's strength) and
//! installs a *follow-me* rule at the old host so packets in flight are
//! re-forwarded (Andromeda's mechanism). What the in-network caches do about
//! their now-stale entries is the strategy's problem.

use sv2p_packet::{Pip, Vip};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_topology::NodeId;

/// One planned VM migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// When the VM switches location.
    pub at: SimTime,
    /// The VM being moved.
    pub vip: Vip,
    /// Destination server.
    pub to_node: NodeId,
    /// Destination server's PIP.
    pub to_pip: Pip,
    /// Extra processing added at the old host per misdelivered packet
    /// (paper: 10 µs).
    pub old_host_penalty: SimDuration,
}

impl Migration {
    /// A migration with the paper's 10 µs old-host forwarding penalty.
    pub fn new(at: SimTime, vip: Vip, to_node: NodeId, to_pip: Pip) -> Self {
        Migration {
            at,
            vip,
            to_node,
            to_pip,
            old_host_penalty: SimDuration::from_micros(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_penalty_is_10us() {
        let m = Migration::new(SimTime::from_micros(500), Vip(1), NodeId(3), Pip(7));
        assert_eq!(m.old_host_penalty, SimDuration::from_micros(10));
        assert_eq!(m.at, SimTime::from_micros(500));
    }
}
