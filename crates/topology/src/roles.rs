//! The five switch categories of the paper's Table 1.
//!
//! Roles are derived purely from the topology: a *gateway ToR* is a ToR with
//! at least one gateway attached; a *gateway spine* is a spine directly
//! connected to a gateway ToR (Figure 3: "A3 and A4 function as gateway
//! spines due to their direct attachment to a gateway ToR"). Everything else
//! keeps its layer name. The paper notes roles can be reassigned by the
//! control plane when a gateway moves (§4 "Gateway migration") — that is a
//! recomputation of this classification.

use serde::{Deserialize, Serialize};

use crate::graph::{NodeId, NodeKind, Topology};

/// Table 1 switch categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchRole {
    /// ToR directly connected to one or more gateways.
    GatewayTor,
    /// Spine directly attached to a gateway ToR.
    GatewaySpine,
    /// Regular top-of-rack switch.
    Tor,
    /// Regular pod switch.
    Spine,
    /// Core switch.
    Core,
}

/// Topology layer of a switch, ignoring gateway adjacency — Table 5
/// reports hit distribution by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Layer {
    /// Top-of-rack switches (including gateway ToRs).
    Tor,
    /// Pod switches (including gateway spines).
    Spine,
    /// Core switches.
    Core,
}

impl SwitchRole {
    /// Every role, in Table 1's order.
    pub const ALL: [SwitchRole; 5] = [
        SwitchRole::GatewayTor,
        SwitchRole::GatewaySpine,
        SwitchRole::Tor,
        SwitchRole::Spine,
        SwitchRole::Core,
    ];

    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SwitchRole::GatewayTor => "Gateway ToR",
            SwitchRole::GatewaySpine => "Gateway Spine",
            SwitchRole::Tor => "ToR",
            SwitchRole::Spine => "Spine",
            SwitchRole::Core => "Core",
        }
    }

    /// The topology layer this role sits in.
    pub fn layer(self) -> Layer {
        match self {
            SwitchRole::GatewayTor | SwitchRole::Tor => Layer::Tor,
            SwitchRole::GatewaySpine | SwitchRole::Spine => Layer::Spine,
            SwitchRole::Core => Layer::Core,
        }
    }
}

/// Per-node role table: `roles[node.0] == None` for hosts.
#[derive(Debug, Clone)]
pub struct RoleMap {
    roles: Vec<Option<SwitchRole>>,
}

impl RoleMap {
    /// Classifies every switch in `topo`.
    pub fn classify(topo: &Topology) -> Self {
        let mut roles: Vec<Option<SwitchRole>> = vec![None; topo.node_count()];

        // Pass 1: base layers + gateway ToRs.
        for node in topo.nodes() {
            roles[node.id.0 as usize] = match node.kind {
                NodeKind::Tor { .. } => {
                    let has_gw = topo
                        .neighbors(node.id)
                        .any(|nb| matches!(topo.node(nb).kind, NodeKind::Gateway { .. }));
                    Some(if has_gw {
                        SwitchRole::GatewayTor
                    } else {
                        SwitchRole::Tor
                    })
                }
                NodeKind::Spine { .. } => Some(SwitchRole::Spine),
                NodeKind::Core { .. } => Some(SwitchRole::Core),
                _ => None,
            };
        }
        // Pass 2: spines adjacent to a gateway ToR become gateway spines.
        for node in topo.nodes() {
            if roles[node.id.0 as usize] == Some(SwitchRole::GatewayTor) {
                for nb in topo.neighbors(node.id) {
                    if roles[nb.0 as usize] == Some(SwitchRole::Spine) {
                        roles[nb.0 as usize] = Some(SwitchRole::GatewaySpine);
                    }
                }
            }
        }
        RoleMap { roles }
    }

    /// Role of `node` (`None` for hosts).
    pub fn role(&self, node: NodeId) -> Option<SwitchRole> {
        self.roles[node.0 as usize]
    }

    /// Reassigns a switch's role — the control-plane operation behind
    /// gateway migration (§4: "during gateway migrations, the former
    /// gateway ToR can transition to a standard ToR behavior, while the new
    /// ToR can take on the role of a gateway ToR").
    ///
    /// Panics if `node` is not a switch.
    pub fn set_role(&mut self, node: NodeId, role: SwitchRole) {
        assert!(
            self.roles[node.0 as usize].is_some(),
            "cannot assign a switch role to a host"
        );
        self.roles[node.0 as usize] = Some(role);
    }

    /// Counts switches per role.
    pub fn counts(&self) -> std::collections::HashMap<SwitchRole, usize> {
        let mut map = std::collections::HashMap::new();
        for r in self.roles.iter().flatten() {
            *map.entry(*r).or_insert(0) += 1;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTreeConfig;

    #[test]
    fn ft8_role_census() {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        let roles = RoleMap::classify(&topo);
        let counts = roles.counts();
        // 4 gateway pods: 1 gateway ToR each, all 4 spines become gateway
        // spines; 4 plain pods keep 4 ToRs + 4 spines.
        assert_eq!(counts[&SwitchRole::GatewayTor], 4);
        assert_eq!(counts[&SwitchRole::GatewaySpine], 16);
        assert_eq!(counts[&SwitchRole::Tor], 28);
        assert_eq!(counts[&SwitchRole::Spine], 16);
        assert_eq!(counts[&SwitchRole::Core], 16);
        assert_eq!(counts.values().sum::<usize>(), 80);
    }

    #[test]
    fn hosts_have_no_role() {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        let roles = RoleMap::classify(&topo);
        for s in topo.servers() {
            assert_eq!(roles.role(s.id), None);
        }
        for g in topo.gateways() {
            assert_eq!(roles.role(g.id), None);
        }
    }

    #[test]
    fn layer_collapses_gateway_variants() {
        assert_eq!(SwitchRole::GatewayTor.layer(), Layer::Tor);
        assert_eq!(SwitchRole::GatewaySpine.layer(), Layer::Spine);
        assert_eq!(SwitchRole::Core.layer(), Layer::Core);
    }
}
