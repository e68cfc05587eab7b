//! FatTree topology builder (paper Table 3 and §5.3 scaling).
//!
//! The layout follows the paper's figures: each pod has `racks_per_pod` ToRs
//! fully meshed to `spines_per_pod` pod switches; spine *i* of every pod
//! connects to the core group `[i*m, (i+1)*m)` where `m = cores /
//! spines_per_pod`. Gateways live in a configurable subset of pods ("we
//! deploy gateways in 50% of the pods"), attached to the last ToR of the pod
//! — the *gateway ToR* of Figure 8.

use serde::{Deserialize, Serialize};
use sv2p_packet::Pip;

use crate::graph::{NodeId, NodeKind, Topology};

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
    pub fn build(&self) -> Topology {
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

        let m = self.cores / self.spines_per_pod;
        let mut topo = Topology::default();

        // Core switches.
        let cores: Vec<NodeId> = (0..self.cores)
            .map(|idx| topo.add_node(NodeKind::Core { idx }, Pip(0xC0AA_0000 | idx as u32)))
            .collect();

        for pod in 0..self.pods {
            // Spines.
            let spines: Vec<NodeId> = (0..self.spines_per_pod)
                .map(|idx| {
                    topo.add_node(
                        NodeKind::Spine { pod, idx },
                        Pip(0xC0A9_0000 | (pod as u32) << 8 | idx as u32),
                    )
                })
                .collect();
            // Spine i <-> cores [i*m, (i+1)*m).
            for (i, &sp) in spines.iter().enumerate() {
                for j in 0..m as usize {
                    topo.add_cable(
                        sp,
                        cores[i * m as usize + j],
                        self.fabric_link.bandwidth_bps,
                        self.fabric_link.delay_ns,
                    );
                }
            }
            // Racks.
            for rack in 0..self.racks_per_pod {
                let tor = topo.add_node(
                    NodeKind::Tor { pod, rack },
                    Pip(0xC0A8_0000 | (pod as u32) << 8 | rack as u32),
                );
                for &sp in &spines {
                    topo.add_cable(
                        tor,
                        sp,
                        self.fabric_link.bandwidth_bps,
                        self.fabric_link.delay_ns,
                    );
                }
                for slot in 0..self.servers_per_rack {
                    let server = topo.add_node(
                        NodeKind::Server { pod, rack, slot },
                        Pip(0x0A00_0000
                            | (pod as u32) << 16
                            | (rack as u32) << 8
                            | (slot as u32 + 1)),
                    );
                    topo.add_cable(
                        server,
                        tor,
                        self.host_link.bandwidth_bps,
                        self.host_link.delay_ns,
                    );
                }
            }
        }

        // Gateways, attached to the gateway ToR of their pod.
        for (&pod, &count) in self.gateway_pods.iter().zip(&self.gateways_per_pod) {
            let gw_rack = self.gateway_rack();
            let tor_pip = Pip(0xC0A8_0000 | (pod as u32) << 8 | gw_rack as u32);
            let tor = topo
                .node_by_pip(tor_pip)
                .expect("gateway ToR must exist");
            for slot in 0..count {
                let gw = topo.add_node(
                    NodeKind::Gateway { pod, slot },
                    Pip(0xAC10_0000 | (pod as u32) << 8 | slot as u32),
                );
                topo.add_cable(
                    gw,
                    tor,
                    self.host_link.bandwidth_bps,
                    self.host_link.delay_ns,
                );
            }
        }

        topo.index_ports();
        topo
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
        for sp in topo.nodes.iter() {
            if let NodeKind::Spine { idx, .. } = sp.kind {
                let mut core_neighbors: Vec<u16> = topo
                    .neighbors(sp.id)
                    .filter_map(|n| match topo.node(n).kind {
                        NodeKind::Core { idx } => Some(idx),
                        _ => None,
                    })
                    .collect();
                core_neighbors.sort_unstable();
                let expect: Vec<u16> =
                    (idx * m as u16..(idx + 1) * m as u16).collect();
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
}
