//! Property tests: [`PodPartition`] over randomized FatTree shapes and
//! shard counts. The sharded engine leans on two guarantees proved here
//! against brute force — every node belongs to exactly one shard and a pod
//! never straddles shards, and every link that crosses the cut has a core
//! switch at one end (a packet changes shard only on a spine-core hop).

use proptest::prelude::*;
use sv2p_topology::{FatTreeConfig, LinkSpec, PodPartition};

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cut_links_have_a_podless_end(
        cfg in arb_config(),
        shards in 0u16..10,
    ) {
        let topo = cfg.build();
        let p = PodPartition::new(&topo, shards);
        for l in topo.links().filter(|l| p.shard_of(l.from) != p.shard_of(l.to)) {
            prop_assert!(
                topo.node(l.from).kind.pod().is_none() || topo.node(l.to).kind.pod().is_none(),
                "cut link {:?} joins two pods",
                l.id
            );
        }
    }

    #[test]
    fn partition_is_total_and_clamped(
        cfg in arb_config(),
        shards in 0u16..10,
    ) {
        let topo = cfg.build();
        let p = PodPartition::new(&topo, shards);
        let pods = topo
            .nodes()
            .filter_map(|n| n.kind.pod())
            .max()
            .map(|p| p + 1)
            .unwrap_or(0);
        prop_assert!(p.shards() >= 1);
        prop_assert!(p.shards() <= pods + 1, "more shards than pods + core");
        prop_assert!(p.shards() <= shards.max(1), "more shards than requested");
        // Total: every node belongs to exactly one in-range shard, and no
        // shard is empty.
        let mut sizes = vec![0usize; p.shards() as usize];
        for n in topo.nodes() {
            prop_assert!(p.shard_of(n.id) < p.shards());
            sizes[p.shard_of(n.id) as usize] += 1;
        }
        prop_assert!(sizes.iter().all(|&s| s > 0), "empty shard in {:?}", sizes);
        // Pod atomicity: a pod never straddles shards.
        let mut pod_shard = std::collections::HashMap::new();
        for n in topo.nodes() {
            if let Some(pod) = n.kind.pod() {
                let s = pod_shard.entry(pod).or_insert_with(|| p.shard_of(n.id));
                prop_assert_eq!(*s, p.shard_of(n.id), "pod {} split", pod);
            }
        }
    }
}
