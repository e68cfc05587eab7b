//! Property tests: ECMP routing over randomized FatTree shapes delivers
//! between every pair of nodes, never loops, and respects the up-down
//! structure.

use proptest::prelude::*;
use sv2p_topology::{FatTreeConfig, LinkSpec, NodeKind, Routing};

fn arb_config() -> impl Strategy<Value = FatTreeConfig> {
    (1u16..6, 1u16..5, 1u16..4, 1u16..4, 1u16..4).prop_map(
        |(pods, racks, servers, spines, core_group)| {
            let gateway_pods: Vec<u16> = (0..pods).step_by(2).collect();
            let n = gateway_pods.len();
            FatTreeConfig {
                pods,
                racks_per_pod: racks,
                servers_per_rack: servers,
                spines_per_pod: spines,
                cores: spines * core_group,
                gateway_pods,
                gateways_per_pod: vec![1; n],
                host_link: LinkSpec::HOST_100G,
                fabric_link: LinkSpec::FABRIC_400G,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_sampled_pair_routes(cfg in arb_config(), key in any::<u64>()) {
        let topo = cfg.build();
        let routing = Routing::new(&cfg, &topo);
        let nodes: Vec<_> = topo.nodes().map(|n| n.id).collect();
        // Sample pairs (full quadratic would be slow for larger shapes).
        for i in (0..nodes.len()).step_by(5) {
            for j in (0..nodes.len()).step_by(7) {
                if i == j {
                    continue;
                }
                let path = routing.path(&topo, nodes[i], nodes[j], key);
                prop_assert_eq!(*path.first().unwrap(), nodes[i]);
                prop_assert_eq!(*path.last().unwrap(), nodes[j]);
                // Paths never revisit a node (loop-freedom).
                let mut seen = std::collections::HashSet::new();
                for n in &path {
                    prop_assert!(seen.insert(*n), "revisit in {:?}", path);
                }
            }
        }
    }

    #[test]
    fn host_paths_are_up_down(cfg in arb_config(), key in any::<u64>()) {
        // Host-to-host paths must ascend then descend: layer sequence has a
        // single peak (ToR=1, Spine=2, Core=3).
        let topo = cfg.build();
        let routing = Routing::new(&cfg, &topo);
        let hosts: Vec<_> = topo
            .nodes()
            .filter(|n| n.kind.is_host())
            .map(|n| n.id)
            .collect();
        let layer = |id| match topo.node(id).kind {
            NodeKind::Tor { .. } => 1i32,
            NodeKind::Spine { .. } => 2,
            NodeKind::Core { .. } => 3,
            _ => 0,
        };
        for i in (0..hosts.len()).step_by(3) {
            for j in (0..hosts.len()).step_by(11) {
                if i == j {
                    continue;
                }
                let path = routing.path(&topo, hosts[i], hosts[j], key);
                let layers: Vec<i32> = path.iter().map(|&n| layer(n)).collect();
                // Strictly rises to one maximum, then strictly falls.
                let peak = *layers.iter().max().unwrap();
                let peak_idx = layers.iter().position(|&l| l == peak).unwrap();
                for w in layers[..=peak_idx].windows(2) {
                    prop_assert!(w[0] < w[1], "non-monotone ascent {:?}", layers);
                }
                for w in layers[peak_idx..].windows(2) {
                    prop_assert!(w[0] > w[1], "non-monotone descent {:?}", layers);
                }
                // Host-to-host stretch is bounded by 5 switches in a 3-tier
                // fabric.
                prop_assert!(layers.len() <= 7, "{:?}", layers);
            }
        }
    }

    #[test]
    fn same_key_same_path(cfg in arb_config(), key in any::<u64>()) {
        let topo = cfg.build();
        let routing = Routing::new(&cfg, &topo);
        let hosts: Vec<_> = topo
            .nodes()
            .filter(|n| n.kind.is_host())
            .map(|n| n.id)
            .collect();
        let a = hosts[0];
        let b = *hosts.last().unwrap();
        if a != b {
            prop_assert_eq!(
                routing.path(&topo, a, b, key),
                routing.path(&topo, a, b, key)
            );
        }
    }
}
