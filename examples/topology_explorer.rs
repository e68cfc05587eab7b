//! Topology explorer: build the paper's FatTrees, inspect switch roles,
//! ECMP paths, and the gateway detour that motivates the whole system.
//!
//! ```sh
//! cargo run --release --example topology_explorer
//! ```

use switchv2p_repro::topology::{FatTreeConfig, NodeKind, RoleMap, Routing, SwitchRole};
use switchv2p_repro::vnet::GatewayDirectory;

fn main() {
    for (name, cfg) in [
        ("FT8-10K", FatTreeConfig::ft8_10k()),
        ("FT16-400K", FatTreeConfig::ft16_400k()),
    ] {
        let c = cfg.characteristics();
        println!("== {name} ==");
        println!(
            "  pods {}  racks/pod {}  ToRs {}  spines {}  cores {}  switches {}",
            c.pods,
            c.racks_per_pod,
            c.tor_switches,
            c.spine_switches,
            c.core_switches,
            c.total_switches
        );
        println!("  servers {}  gateways {}", c.physical_servers, c.gateways);

        let topo = cfg.build();
        let roles = RoleMap::classify(&topo);
        let counts = roles.counts();
        print!("  roles:");
        for role in SwitchRole::ALL {
            print!(
                " {}={}",
                role.name(),
                counts.get(&role).copied().unwrap_or(0)
            );
        }
        println!();

        // The gateway detour: an inter-pod packet's direct path vs the path
        // through its flow's gateway.
        let routing = Routing::new(&cfg, &topo);
        let dir = GatewayDirectory::from_topology(&topo);
        let src = topo.servers().next().unwrap().id;
        let dst = topo
            .nodes()
            .find(|n| matches!(n.kind, NodeKind::Server { pod, .. } if pod == c.pods - 1))
            .unwrap()
            .id;
        let gw = topo.node_by_pip(dir.pick(7)).unwrap();
        let direct_hops = routing.switch_hops(&topo, src, dst, 7);
        let detour_hops =
            routing.switch_hops(&topo, src, gw, 7) + routing.switch_hops(&topo, gw, dst, 7);
        println!(
            "  sample inter-pod path: direct {} switches, via gateway {} switches",
            direct_hops, detour_hops
        );
        println!();
    }
    println!("The detour roughly doubles the switches a first packet crosses —");
    println!("that, plus 40 us of gateway processing, is what SwitchV2P removes.");
}
