//! Translation gateways.
//!
//! Gateways are ordinary hosts that hold the full V2P view: they translate
//! with [`crate::Placement::lookup`], the ground truth. An unresolved
//! packet addressed to a gateway is translated after a fixed processing
//! delay ([`GATEWAY_PROCESSING`]) and re-emitted toward the
//! true destination. Senders pick a gateway per flow ("load balancing
//! performed by each server on a per-flow basis", §5); the pick is sticky
//! for the flow's lifetime so a flow's packets share fate.

use sv2p_packet::Pip;
use sv2p_simcore::SimDuration;
use sv2p_topology::{NodeId, NodeKind, Topology};

/// Per-packet translation latency: 40 µs, following Sailfish (paper §5, the
/// evaluation set-up every figure runs).
pub const GATEWAY_PROCESSING: SimDuration = SimDuration::from_micros(40);

/// The gateway fleet and the per-flow balancing rule.
#[derive(Debug, Clone)]
pub struct GatewayDirectory {
    /// (node, pip) of every gateway, in topology order.
    gateways: Vec<(NodeId, Pip)>,
}

impl GatewayDirectory {
    /// Collects all gateway nodes from the topology.
    pub fn from_topology(topo: &Topology) -> Self {
        let gateways = topo
            .nodes()
            .filter(|n| matches!(n.kind, NodeKind::Gateway { .. }))
            .map(|n| (n.id, n.pip))
            .collect();
        GatewayDirectory { gateways }
    }

    /// Number of gateways.
    pub fn len(&self) -> usize {
        self.gateways.len()
    }

    /// True if the fleet is empty (Bluebird / Direct configurations).
    pub fn is_empty(&self) -> bool {
        self.gateways.is_empty()
    }

    /// The gateway a sender uses for a flow, by flow key (per-flow ECMP-style
    /// stickiness).
    pub fn pick(&self, flow_key: u64) -> Pip {
        assert!(!self.gateways.is_empty(), "no gateways deployed");
        // Avalanche the key so sequential flow ids spread.
        let mut h = flow_key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        self.gateways[(h % self.gateways.len() as u64) as usize].1
    }

    /// Iterates over the fleet.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Pip)> + '_ {
        self.gateways.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_topology::FatTreeConfig;

    #[test]
    fn directory_finds_all_gateways() {
        let topo = FatTreeConfig::ft8_10k().build();
        let dir = GatewayDirectory::from_topology(&topo);
        assert_eq!(dir.len(), 40);
    }

    #[test]
    fn pick_is_sticky_and_spreads() {
        let topo = FatTreeConfig::ft8_10k().build();
        let dir = GatewayDirectory::from_topology(&topo);
        assert_eq!(dir.pick(7), dir.pick(7));
        let mut used = std::collections::HashSet::new();
        for key in 0..4000u64 {
            used.insert(dir.pick(key));
        }
        assert!(
            used.len() >= 38,
            "only {} of 40 gateways used by 4000 flows",
            used.len()
        );
    }

    #[test]
    #[should_panic(expected = "no gateways")]
    fn pick_with_no_gateways_panics() {
        let dir = GatewayDirectory { gateways: vec![] };
        dir.pick(0);
    }
}
