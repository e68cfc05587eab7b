//! Controller — centralized cache allocation via the Appendix A.1 program.
//!
//! "The controller periodically fetches the connection matrix statistics
//! from each switch, solves the ILP, and installs the mappings in each
//! switch according to the solution." The experiment loop (halt, collect,
//! solve, install) is driven by the harness between `run_until` chunks; this
//! module provides the [`Controller`] strategy (lookup-only installed
//! caches) and the [`ControllerDriver`] that lowers a traffic matrix to the
//! `sv2p-ilp` placement problem.

use sv2p_ilp::{Demand, PlacementProblem};
use sv2p_packet::{Packet, PacketKind, Pip, Vip};
use sv2p_simcore::FxHashMap;
use sv2p_topology::{NodeId, Routing, SwitchRole, Topology};
use sv2p_vnet::{
    AgentOutput, GatewayDirectory, Placement as VmPlacement, Strategy, SwitchAgent, SwitchCtx,
};

/// The Controller baseline strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Controller;

/// Lookup-only cache filled by control-plane installs.
#[derive(Debug, Default)]
struct InstalledCacheAgent {
    capacity: usize,
    entries: FxHashMap<Vip, Pip>,
}

impl SwitchAgent for InstalledCacheAgent {
    fn on_packet(&mut self, _ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput {
        if !matches!(pkt.kind, PacketKind::Data) || pkt.outer.resolved {
            return AgentOutput::forward();
        }
        match self.entries.get(&pkt.inner.dst_vip) {
            Some(&pip) => {
                pkt.outer.dst_pip = pip;
                pkt.outer.resolved = true;
                AgentOutput::forward_hit()
            }
            None => AgentOutput::forward(),
        }
    }

    fn occupancy(&self) -> usize {
        self.entries.len()
    }

    fn resident_bytes(&self) -> usize {
        self.entries.capacity() * (std::mem::size_of::<(Vip, Pip)>() + 1)
    }

    fn entries(&self) -> Vec<(Vip, Pip)> {
        self.entries.iter().map(|(&v, &p)| (v, p)).collect()
    }

    fn install(&mut self, vip: Vip, pip: Pip) {
        if self.entries.len() < self.capacity || self.entries.contains_key(&vip) {
            self.entries.insert(vip, pip);
        }
    }

    fn clear_installed(&mut self) {
        self.entries.clear();
    }

    fn reset(&mut self) {
        // A reboot wipes installed entries too; the controller re-installs
        // them at its next epoch.
        self.entries.clear();
    }
}

impl Strategy for Controller {
    fn name(&self) -> &'static str {
        "Controller"
    }

    fn cache_weight(&self, _role: SwitchRole) -> f64 {
        1.0
    }

    fn make_switch_agent(&self, _role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
        Box::new(InstalledCacheAgent {
            capacity: lines,
            ..Default::default()
        })
    }
}

/// Gateway processing cost in switch-hop equivalents: the 40 µs translation
/// of §5 over ~2 µs per hop ≈ 20 (the miss cost of Appendix A.1's program).
const GATEWAY_COST_HOPS: f64 = 20.0;

/// Lowers traffic matrices to placement problems and plans installs.
#[derive(Debug, Clone, Copy)]
pub struct ControllerDriver {
    /// Entries per switch.
    pub capacity_per_switch: usize,
}

impl ControllerDriver {
    /// Plans per-switch installs from the observed traffic matrix.
    ///
    /// The paper's controller knows exact future paths; ours approximates
    /// the per-flow ECMP/gateway choices by a deterministic hash of the
    /// (src, dst) pair — the ToR-level placements (where most of the gain
    /// is) are unaffected, spine/core-level ones pick one representative
    /// equal-cost path.
    pub fn plan(
        &self,
        topo: &Topology,
        routing: &Routing,
        dir: &GatewayDirectory,
        placement: &VmPlacement,
        traffic: &FxHashMap<(u32, u32), u64>,
        switch_nodes: &[NodeId],
    ) -> Vec<(NodeId, Vec<(Vip, Pip)>)> {
        let tag_of: FxHashMap<NodeId, usize> = switch_nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();

        // The greedy solver breaks ties by first appearance, so the demands
        // go in (src, dst) order, not in the map's iteration order.
        let mut pairs: Vec<_> = traffic
            .iter()
            .map(|(&pair, &weight)| (pair, weight))
            .collect();
        pairs.sort_unstable();
        let mut demands = Vec::new();
        for ((src, dst), weight) in pairs {
            let (src, dst) = (src as usize, dst as usize);
            if src >= placement.len() || dst >= placement.len() {
                continue;
            }
            let key = (src as u64) << 32 | dst as u64;
            let src_node = placement.node_of(src);
            let dst_node = placement.node_of(dst);
            let gw_pip = dir.pick(key);
            let Some(gw_node) = topo.node_by_pip(gw_pip) else {
                continue;
            };
            let up_path = routing.path(topo, src_node, gw_node, key);
            // Hop position of each switch on the uplink; cost if resolved
            // there = hops so far + hops from there to the destination.
            let mut options = Vec::new();
            let mut hops = 0.0;
            for &n in &up_path {
                if !topo.node(n).kind.is_switch() {
                    continue;
                }
                hops += 1.0;
                if let Some(&sidx) = tag_of.get(&n) {
                    let down = routing.switch_hops(topo, n, dst_node, key) as f64;
                    options.push((sidx, hops + down));
                }
            }
            let to_gw = routing.switch_hops(topo, src_node, gw_node, key) as f64;
            let from_gw = routing.switch_hops(topo, gw_node, dst_node, key) as f64;
            demands.push(Demand {
                weight,
                mapping: dst as u32,
                options,
                miss_cost: to_gw + GATEWAY_COST_HOPS + from_gw,
            });
        }

        let problem = PlacementProblem {
            num_switches: switch_nodes.len(),
            capacity: self.capacity_per_switch,
            demands,
        };
        let solution = problem.solve_greedy();
        solution
            .chosen
            .iter()
            .enumerate()
            .filter(|(_, ms)| !ms.is_empty())
            .map(|(sidx, ms)| {
                let entries = ms
                    .iter()
                    .map(|&vm| {
                        let vm = vm as usize;
                        (placement.vip_of(vm), placement.pip_of(vm))
                    })
                    .collect();
                (switch_nodes[sidx], entries)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::{InnerHeader, OuterHeader, SwitchTag};
    use sv2p_simcore::{SimRng, SimTime};
    use sv2p_topology::FatTreeConfig;

    #[test]
    fn installed_cache_respects_capacity_and_serves() {
        let mut agent = InstalledCacheAgent {
            capacity: 2,
            ..Default::default()
        };
        agent.install(Vip(1), Pip(10));
        agent.install(Vip(2), Pip(20));
        agent.install(Vip(3), Pip(30)); // over capacity: ignored
        assert_eq!(agent.occupancy(), 2);
        agent.install(Vip(1), Pip(11)); // update allowed at capacity
        let placement = VmPlacement::default();
        let mut rng = SimRng::new(1);
        let mut ctx = SwitchCtx {
            now: SimTime::ZERO,
            tag: SwitchTag(0),
            switch_pip: Pip(0),
            role: SwitchRole::Spine,
            my_pod: None,
            ingress_host: None,
            dst_attached: false,
            placement: &placement,
            rng: &mut rng,
            pod_of: &|_| None,
            pip_of_tag: &|_| Pip(0),
            trace_cache_ops: false,
        };
        let mut pkt = Packet {
            outer: OuterHeader {
                src_pip: Pip(1),
                dst_pip: Pip(99),
                resolved: false,
            },
            inner: InnerHeader {
                src_vip: Vip(9),
                dst_vip: Vip(1),
                ..InnerHeader::default()
            },
            ..Packet::default()
        };
        let out = agent.on_packet(&mut ctx, &mut pkt);
        assert!(out.cache_hit);
        assert_eq!(pkt.outer.dst_pip, Pip(11));
        agent.clear_installed();
        assert_eq!(agent.occupancy(), 0);
    }

    #[test]
    fn planner_places_popular_destinations() {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        let routing = Routing::new(&cfg, &topo);
        let dir = GatewayDirectory::from_topology(&topo);
        let placement = VmPlacement::uniform(&topo, 2);
        let switch_nodes: Vec<NodeId> = topo.switches().map(|n| n.id).collect();

        // Everyone talks to VM 7 (incast): the planner should cache VM 7's
        // mapping somewhere useful.
        let mut traffic = FxHashMap::default();
        for src in [1u32, 50, 100, 150, 200] {
            traffic.insert((src, 7u32), 100u64);
        }
        let driver = ControllerDriver {
            capacity_per_switch: 1,
        };
        let plan = driver.plan(&topo, &routing, &dir, &placement, &traffic, &switch_nodes);
        assert!(!plan.is_empty());
        let placed_vips: Vec<Vip> = plan
            .iter()
            .flat_map(|(_, es)| es.iter().map(|&(v, _)| v))
            .collect();
        assert!(
            placed_vips.contains(&placement.vip_of(7)),
            "hot destination must be placed: {plan:?}"
        );
        // Every install maps to the VM's true location.
        for (_, entries) in &plan {
            for &(v, p) in entries {
                let vm = placement.index_of(v).unwrap();
                assert_eq!(p, placement.pip_of(vm));
            }
        }
    }

    #[test]
    fn empty_traffic_plans_nothing() {
        let cfg = FatTreeConfig::scaled_ft8(2);
        let topo = cfg.build();
        let routing = Routing::new(&cfg, &topo);
        let dir = GatewayDirectory::from_topology(&topo);
        let placement = VmPlacement::uniform(&topo, 1);
        let switch_nodes: Vec<NodeId> = topo.switches().map(|n| n.id).collect();
        let driver = ControllerDriver {
            capacity_per_switch: 4,
        };
        let plan = driver.plan(
            &topo,
            &routing,
            &dir,
            &placement,
            &FxHashMap::default(),
            &switch_nodes,
        );
        assert!(plan.is_empty());
    }
}
