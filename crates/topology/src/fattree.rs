//! FatTree topology builder (paper Table 3 and §5.3 scaling).
//!
//! The layout follows the paper's figures: each pod has `racks_per_pod` ToRs
//! fully meshed to `spines_per_pod` pod switches; spine *i* of every pod
//! connects to the core group `[i*m, (i+1)*m)` where `m = cores /
//! spines_per_pod`. Gateways live in a configurable subset of pods ("we
//! deploy gateways in 50% of the pods"), attached to the last ToR of the pod
//! — the *gateway ToR* of Figure 8.

use serde::{Deserialize, Serialize};

use crate::graph::{NodeId, NodeKind, Topology};

/// Where [`FatTreeConfig::wire`] sends the fabric: the nodes and cables in
/// build order.
trait Wiring {
    /// Adds a node and returns its id.
    fn node(&mut self, kind: NodeKind) -> NodeId;
    /// Adds both directions of a cable of class `spec`.
    fn cable(&mut self, a: NodeId, b: NodeId, spec: LinkSpec);
}

impl Wiring for Topology {
    fn node(&mut self, kind: NodeKind) -> NodeId {
        self.push_node(kind)
    }

    fn cable(&mut self, a: NodeId, b: NodeId, _spec: LinkSpec) {
        // A cable's class follows from its ends (`Topology::link_class`).
        self.push_cable(a, b);
    }
}

#[cfg(test)]
impl Wiring for crate::graph::oracle::TableTopology {
    fn node(&mut self, kind: NodeKind) -> NodeId {
        self.add_node(kind, kind.pip())
    }

    fn cable(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.add_cable(a, b, spec);
    }
}

/// Bandwidth + propagation of one cable class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay in nanoseconds.
    pub delay_ns: u64,
}

impl LinkSpec {
    /// 100 Gb/s, 1 µs — the paper's server NIC links.
    pub const HOST_100G: LinkSpec = LinkSpec {
        bandwidth_bps: 100_000_000_000,
        delay_ns: 1_000,
    };
    /// 400 Gb/s, 1 µs — the paper's switch-to-switch links.
    pub const FABRIC_400G: LinkSpec = LinkSpec {
        bandwidth_bps: 400_000_000_000,
        delay_ns: 1_000,
    };
}

/// Everything needed to build a FatTree instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FatTreeConfig {
    /// Number of pods.
    pub pods: u16,
    /// Racks (== ToRs) per pod.
    pub racks_per_pod: u16,
    /// VM-hosting servers per rack.
    pub servers_per_rack: u16,
    /// Pod switches per pod.
    pub spines_per_pod: u16,
    /// Core switches (must be a multiple of `spines_per_pod`).
    pub cores: u16,
    /// Which pods host translation gateways.
    pub gateway_pods: Vec<u16>,
    /// Gateways attached to each gateway pod's gateway ToR. The vector is
    /// parallel to `gateway_pods`, so unequal spreads (Figure 9's 4-gateway
    /// point) are expressible.
    pub gateways_per_pod: Vec<u16>,
    /// Server and gateway NIC links.
    pub host_link: LinkSpec,
    /// Switch-to-switch links.
    pub fabric_link: LinkSpec,
}

/// Table 3 rows, computed from a built config.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Characteristics {
    /// Number of pods.
    pub pods: u16,
    /// Racks per pod.
    pub racks_per_pod: u16,
    /// Total ToR switches.
    pub tor_switches: u32,
    /// Total spine switches.
    pub spine_switches: u32,
    /// Total core switches.
    pub core_switches: u32,
    /// Total switches of all layers.
    pub total_switches: u32,
    /// Total gateways.
    pub gateways: u32,
    /// Total VM-hosting servers.
    pub physical_servers: u32,
}

impl FatTreeConfig {
    /// FT8-10K (Table 3): 8 pods × 4 racks × 4 servers = 128 servers,
    /// 32 ToRs + 32 spines + 16 cores = 80 switches, 40 gateways in pods
    /// {1, 3, 6, 8} (1-indexed, as in Figure 7).
    pub fn ft8_10k() -> Self {
        FatTreeConfig {
            pods: 8,
            racks_per_pod: 4,
            servers_per_rack: 4,
            spines_per_pod: 4,
            cores: 16,
            gateway_pods: vec![0, 2, 5, 7],
            gateways_per_pod: vec![10, 10, 10, 10],
            host_link: LinkSpec::HOST_100G,
            fabric_link: LinkSpec::FABRIC_400G,
        }
    }

    /// FT16-400K (Table 3): 50 pods × 8 racks × 32 servers = 12 800 servers,
    /// 400 ToRs, 16 cores, 250 gateways in 25 pods.
    pub fn ft16_400k() -> Self {
        FatTreeConfig {
            pods: 50,
            racks_per_pod: 8,
            servers_per_rack: 32,
            spines_per_pod: 4,
            cores: 16,
            gateway_pods: (0..50).step_by(2).collect(),
            gateways_per_pod: vec![10; 25],
            host_link: LinkSpec::HOST_100G,
            fabric_link: LinkSpec::FABRIC_400G,
        }
    }

    /// FT32-1M (the million-VM tier past the paper's Table 3): 32 pods ×
    /// 32 racks × 32 servers = 32 768 servers, which at 32 VMs per server
    /// holds 1 048 576 VMs. 1024 ToRs + 128 spines + 16 cores, 160
    /// gateways in every other pod — the same every-other-pod pattern as
    /// FT16-400K.
    pub fn ft32_1m() -> Self {
        FatTreeConfig {
            pods: 32,
            racks_per_pod: 32,
            servers_per_rack: 32,
            spines_per_pod: 4,
            cores: 16,
            gateway_pods: (0..32).step_by(2).collect(),
            gateways_per_pod: vec![10; 16],
            host_link: LinkSpec::HOST_100G,
            fabric_link: LinkSpec::FABRIC_400G,
        }
    }

    /// §5.3 topology scaling: vary the pod count while holding 128 servers
    /// (more pods → fewer servers per rack). `pods` must divide 32 and keep
    /// at least one server per rack: valid values are 1, 2, 4, 8, 16, 32.
    pub fn scaled_ft8(pods: u16) -> Self {
        assert!(
            matches!(pods, 1 | 2 | 4 | 8 | 16 | 32),
            "scaled_ft8 supports pods in {{1,2,4,8,16,32}}, got {pods}"
        );
        let servers_per_rack = 128 / (pods * 4);
        let gateway_pods: Vec<u16> = if pods == 1 {
            vec![0]
        } else {
            (0..pods).step_by(2).collect()
        };
        let n_gw_pods = gateway_pods.len();
        // Keep 40 gateways total, as in FT8-10K.
        let mut gateways_per_pod = vec![(40 / n_gw_pods) as u16; n_gw_pods];
        for slot in gateways_per_pod.iter_mut().take(40 % n_gw_pods) {
            *slot += 1;
        }
        FatTreeConfig {
            pods,
            racks_per_pod: 4,
            servers_per_rack,
            spines_per_pod: 4,
            cores: 16,
            gateway_pods,
            gateways_per_pod,
            host_link: LinkSpec::HOST_100G,
            fabric_link: LinkSpec::FABRIC_400G,
        }
    }

    /// Figure 9: reduce the gateway fleet to `total` boxes, spread round-robin
    /// over the existing gateway pods (pods left with zero are dropped).
    pub fn with_total_gateways(mut self, total: u16) -> Self {
        assert!(total >= 1, "at least one gateway is required");
        let n = self.gateway_pods.len();
        let mut per_pod = vec![0u16; n];
        for i in 0..total as usize {
            per_pod[i % n] += 1;
        }
        let kept: Vec<(u16, u16)> = self
            .gateway_pods
            .iter()
            .copied()
            .zip(per_pod)
            .filter(|&(_, g)| g > 0)
            .collect();
        self.gateway_pods = kept.iter().map(|&(p, _)| p).collect();
        self.gateways_per_pod = kept.iter().map(|&(_, g)| g).collect();
        self
    }

    /// Total gateway count.
    pub fn total_gateways(&self) -> u32 {
        self.gateways_per_pod.iter().map(|&g| g as u32).sum()
    }

    /// Table 3 characteristics.
    pub fn characteristics(&self) -> Characteristics {
        Characteristics {
            pods: self.pods,
            racks_per_pod: self.racks_per_pod,
            tor_switches: self.pods as u32 * self.racks_per_pod as u32,
            spine_switches: self.pods as u32 * self.spines_per_pod as u32,
            core_switches: self.cores as u32,
            total_switches: self.pods as u32
                * (self.racks_per_pod as u32 + self.spines_per_pod as u32)
                + self.cores as u32,
            gateways: self.total_gateways(),
            physical_servers: self.pods as u32
                * self.racks_per_pod as u32
                * self.servers_per_rack as u32,
        }
    }

    /// The rack whose ToR hosts the pod's gateways.
    pub fn gateway_rack(&self) -> u16 {
        self.racks_per_pod - 1
    }

    /// Builds the topology.
    ///
    /// PIP scheme (dotted quads for readability in traces):
    /// servers `10.pod.rack.slot+1`, gateways `172.16.pod.slot`, ToRs
    /// `192.168.pod.rack`, spines `192.169.pod.idx`, cores `192.170.0.idx`.
    /// Each field must fit its byte, so the shape is bounded: at most 256
    /// pods, racks, cores and gateways per pod, 254 servers per rack, and a
    /// pod listed once in `gateway_pods`.
    ///
    /// Build order, which fixes every node and link id: the cores; then pod
    /// by pod its spines (each cabled to its core group), and rack by rack
    /// its ToR (cabled to every spine of the pod) followed by its servers
    /// (each cabled to the ToR); then the gateways in `gateway_pods` order,
    /// each cabled to its pod's gateway ToR. [`Topology`] computes PIPs,
    /// ports and the PIP decode from this order.
    pub fn build(&self) -> Topology {
        self.check();
        let mut topo = Topology::for_config(self);
        self.wire(&mut topo);
        topo
    }

    /// The shape's bounds (see [`Self::build`]).
    fn check(&self) {
        assert!(self.pods >= 1 && self.racks_per_pod >= 1 && self.servers_per_rack >= 1);
        assert!(
            self.spines_per_pod >= 1 && self.cores >= 1,
            "need at least one spine and core"
        );
        assert_eq!(
            self.cores % self.spines_per_pod,
            0,
            "cores must be a multiple of spines_per_pod for group wiring"
        );
        assert_eq!(self.gateway_pods.len(), self.gateways_per_pod.len());
        assert!(self.gateway_pods.iter().all(|&p| p < self.pods));
        assert!(self.pods as u32 <= 256 && self.racks_per_pod as u32 <= 256);
        assert!(self.servers_per_rack < 255 && self.cores as u32 <= 256);
        assert!(
            self.gateways_per_pod.iter().all(|&g| g <= 256),
            "at most 256 gateways per pod: a gateway's slot is one PIP byte"
        );
        let mut listed = vec![false; self.pods as usize];
        for &p in &self.gateway_pods {
            let twice = std::mem::replace(&mut listed[p as usize], true);
            assert!(!twice, "pod {p} listed twice in gateway_pods");
        }
    }

    /// Sends the fabric to `out` in build order.
    fn wire(&self, out: &mut impl Wiring) {
        let m = self.core_group();
        let (fabric, host) = (self.fabric_link, self.host_link);
        let cores: Vec<NodeId> = (0..self.cores)
            .map(|idx| out.node(NodeKind::Core { idx }))
            .collect();
        let mut gateway_tors = Vec::with_capacity(self.pods as usize);
        for pod in 0..self.pods {
            let spines: Vec<NodeId> = (0..self.spines_per_pod)
                .map(|idx| out.node(NodeKind::Spine { pod, idx }))
                .collect();
            // Spine i <-> cores [i*m, (i+1)*m).
            for (i, &sp) in spines.iter().enumerate() {
                for j in 0..m as usize {
                    out.cable(sp, cores[i * m as usize + j], fabric);
                }
            }
            for rack in 0..self.racks_per_pod {
                let tor = out.node(NodeKind::Tor { pod, rack });
                for &sp in &spines {
                    out.cable(tor, sp, fabric);
                }
                for slot in 0..self.servers_per_rack {
                    let server = out.node(NodeKind::Server { pod, rack, slot });
                    out.cable(server, tor, host);
                }
                if rack == self.gateway_rack() {
                    gateway_tors.push(tor);
                }
            }
        }
        // Gateways, attached to the gateway ToR of their pod.
        for (&pod, &count) in self.gateway_pods.iter().zip(&self.gateways_per_pod) {
            for slot in 0..count {
                let gw = out.node(NodeKind::Gateway { pod, slot });
                out.cable(gw, gateway_tors[pod as usize], host);
            }
        }
    }

    /// The table-built topology of the same fabric, the oracle
    /// [`Topology`]'s arithmetic is tested against.
    #[cfg(test)]
    pub(crate) fn build_tables(&self) -> crate::graph::oracle::TableTopology {
        self.check();
        let mut tables = crate::graph::oracle::TableTopology::default();
        self.wire(&mut tables);
        tables.index_ports();
        tables
    }

    /// Core group width: the number of cores each spine connects to.
    pub fn core_group(&self) -> u16 {
        self.cores / self.spines_per_pod
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ft8_matches_table3() {
        let c = FatTreeConfig::ft8_10k().characteristics();
        assert_eq!(c.pods, 8);
        assert_eq!(c.racks_per_pod, 4);
        assert_eq!(c.tor_switches, 32);
        assert_eq!(c.core_switches, 16);
        assert_eq!(c.total_switches, 80);
        assert_eq!(c.gateways, 40);
        assert_eq!(c.physical_servers, 128);
    }

    #[test]
    fn ft16_matches_table3() {
        let c = FatTreeConfig::ft16_400k().characteristics();
        assert_eq!(c.pods, 50);
        assert_eq!(c.racks_per_pod, 8);
        assert_eq!(c.tor_switches, 400);
        assert_eq!(c.core_switches, 16);
        assert_eq!(c.gateways, 250);
        assert_eq!(c.physical_servers, 12800);
    }

    #[test]
    fn ft32_1m_characteristics() {
        let c = FatTreeConfig::ft32_1m().characteristics();
        assert_eq!(c.pods, 32);
        assert_eq!(c.racks_per_pod, 32);
        assert_eq!(c.tor_switches, 1024);
        assert_eq!(c.spine_switches, 128);
        assert_eq!(c.core_switches, 16);
        assert_eq!(c.gateways, 160);
        // 32 768 servers × 32 VMs/server = 1 048 576 VMs.
        assert_eq!(c.physical_servers, 32_768);
        let topo = FatTreeConfig::ft32_1m().build();
        assert_eq!(topo.servers().count() as u32, c.physical_servers);
        assert_eq!(topo.gateways().count() as u32, c.gateways);
    }

    #[test]
    fn build_counts_match_characteristics() {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        let c = cfg.characteristics();
        assert_eq!(topo.switch_count() as u32, c.total_switches);
        assert_eq!(topo.servers().count() as u32, c.physical_servers);
        assert_eq!(topo.gateways().count() as u32, c.gateways);
        // Every VM server has exactly one uplink; ToRs have servers + spines.
        for s in topo.servers() {
            assert_eq!(topo.out_links(s.id).len(), 1);
        }
    }

    #[test]
    fn spine_core_group_wiring() {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        let m = cfg.core_group() as usize;
        assert_eq!(m, 4);
        for sp in topo.nodes() {
            if let NodeKind::Spine { idx, .. } = sp.kind {
                let mut core_neighbors: Vec<u16> = topo
                    .neighbors(sp.id)
                    .filter_map(|n| match topo.node(n).kind {
                        NodeKind::Core { idx } => Some(idx),
                        _ => None,
                    })
                    .collect();
                core_neighbors.sort_unstable();
                let expect: Vec<u16> = (idx * m as u16..(idx + 1) * m as u16).collect();
                assert_eq!(core_neighbors, expect, "spine {:?}", sp.kind);
            }
        }
    }

    #[test]
    fn gateways_attach_to_last_rack_tor() {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        for gw in topo.gateways() {
            let tor = topo.neighbors(gw.id).next().unwrap();
            match topo.node(tor).kind {
                NodeKind::Tor { pod, rack } => {
                    assert!(cfg.gateway_pods.contains(&pod));
                    assert_eq!(rack, cfg.gateway_rack());
                }
                k => panic!("gateway attached to {k:?}"),
            }
        }
    }

    #[test]
    fn scaled_variants_preserve_server_count() {
        for pods in [1u16, 2, 4, 8, 16, 32] {
            let c = FatTreeConfig::scaled_ft8(pods).characteristics();
            assert_eq!(c.physical_servers, 128, "pods={pods}");
            assert_eq!(c.gateways, 40, "pods={pods}");
        }
    }

    #[test]
    fn gateway_reduction_round_robins() {
        let cfg = FatTreeConfig::ft8_10k().with_total_gateways(6);
        assert_eq!(cfg.total_gateways(), 6);
        assert_eq!(cfg.gateways_per_pod, vec![2, 2, 1, 1]);
        let cfg4 = FatTreeConfig::ft8_10k().with_total_gateways(4);
        assert_eq!(cfg4.gateways_per_pod, vec![1, 1, 1, 1]);
        let cfg3 = FatTreeConfig::ft8_10k().with_total_gateways(3);
        assert_eq!(cfg3.gateway_pods.len(), 3);
    }

    #[test]
    #[should_panic(expected = "multiple of spines_per_pod")]
    fn bad_core_count_panics() {
        let mut cfg = FatTreeConfig::ft8_10k();
        cfg.cores = 15;
        cfg.build();
    }

    #[test]
    #[should_panic(expected = "at most 256 gateways per pod")]
    fn a_pod_of_257_gateways_panics() {
        // Slot 256 would spell 172.16.1.0, pod 1's first gateway PIP.
        let cfg = FatTreeConfig {
            gateway_pods: vec![0],
            gateways_per_pod: vec![257],
            ..FatTreeConfig::ft8_10k()
        };
        cfg.build();
    }

    #[test]
    #[should_panic(expected = "pod 2 listed twice in gateway_pods")]
    fn a_gateway_pod_listed_twice_panics() {
        let cfg = FatTreeConfig {
            gateway_pods: vec![2, 5, 2],
            gateways_per_pod: vec![1, 1, 1],
            ..FatTreeConfig::ft8_10k()
        };
        cfg.build();
    }
}
