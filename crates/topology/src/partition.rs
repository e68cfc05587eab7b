//! Pod-based topology partitioning for the sharded simulation engine.
//!
//! A [`PodPartition`] assigns every node of a FatTree to a shard: each pod
//! (its ToRs, spines, servers and gateways) is a natural unit of locality,
//! and the core switches — which belong to no pod — form the core shard.
//! Pods are distributed round-robin over the requested shard count, so
//! `shards = pods + 1` gives the finest cut and `shards = 1` the trivial
//! one. Every link that crosses the cut therefore has a core switch at one
//! end.

use crate::graph::{NodeId, Topology};

/// A node-to-shard assignment.
#[derive(Debug, Clone)]
pub struct PodPartition {
    /// Shard of each node, indexed by `NodeId`.
    shard_of_node: Vec<u16>,
    /// Number of shards actually produced (≤ requested).
    shards: u16,
}

impl PodPartition {
    /// Partitions `topo` into at most `shards` shards.
    ///
    /// Shard 0 always holds the core switches and any other podless node;
    /// pods are assigned round-robin to shards `1..shards`. Requesting more
    /// shards than `pods + 1` clamps to `pods + 1`; requesting 0 or 1
    /// yields the trivial single-shard partition.
    pub fn new(topo: &Topology, shards: u16) -> PodPartition {
        let max_pod = topo
            .nodes()
            .filter_map(|n| n.kind.pod())
            .max()
            .map(|p| p as u32 + 1)
            .unwrap_or(0);
        let shards = shards.max(1).min((max_pod + 1).min(u16::MAX as u32) as u16);
        let shard_of_node = topo
            .nodes()
            .map(|n| match n.kind.pod() {
                Some(pod) if shards > 1 => 1 + (pod % (shards - 1)),
                _ => 0,
            })
            .collect();
        PodPartition {
            shard_of_node,
            shards,
        }
    }

    /// Number of shards in the partition.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u16 {
        self.shard_of_node[node.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTreeConfig;

    #[test]
    fn single_shard_owns_everything() {
        let topo = FatTreeConfig::scaled_ft8(2).build();
        let p = PodPartition::new(&topo, 1);
        assert_eq!(p.shards(), 1);
        assert!(topo.nodes().all(|n| p.shard_of(n.id) == 0));
    }

    #[test]
    fn every_cut_link_touches_the_core_shard() {
        // In a FatTree all inter-pod paths run through core, so a link
        // whose ends live in different shards has a podless end.
        let topo = FatTreeConfig::ft8_10k().build();
        for shards in [2u16, 3, 4, 5, 9] {
            let p = PodPartition::new(&topo, shards);
            for l in topo
                .links()
                .filter(|l| p.shard_of(l.from) != p.shard_of(l.to))
            {
                let podless =
                    topo.node(l.from).kind.pod().is_none() || topo.node(l.to).kind.pod().is_none();
                assert!(podless, "cut link {:?} must touch the core shard", l.id);
            }
        }
    }

    #[test]
    fn pods_round_robin_and_core_is_shard_zero() {
        let topo = FatTreeConfig::ft8_10k().build();
        let p = PodPartition::new(&topo, 5);
        assert_eq!(p.shards(), 5);
        let mut sizes = [0usize; 5];
        for n in topo.nodes() {
            match n.kind.pod() {
                None => assert_eq!(p.shard_of(n.id), 0, "core/podless in shard 0"),
                Some(pod) => assert_eq!(p.shard_of(n.id), 1 + pod % 4),
            }
            sizes[p.shard_of(n.id) as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0), "no empty shard: {sizes:?}");
    }

    #[test]
    fn shard_count_clamps_to_pods_plus_one() {
        let topo = FatTreeConfig::scaled_ft8(2).build();
        let pods = topo.nodes().filter_map(|n| n.kind.pod()).max().unwrap() + 1;
        let p = PodPartition::new(&topo, 64);
        assert_eq!(p.shards(), pods + 1);
        let p1 = PodPartition::new(&topo, 0);
        assert_eq!(p1.shards(), 1);
    }
}
