//! Nodes, directed links, and the topology container.

use serde::{Deserialize, Serialize};
use sv2p_simcore::FxHashMap;
use sv2p_packet::Pip;

use crate::fattree::LinkSpec;

/// Index of a node (server, gateway, or switch) in the topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

/// Index of a *directed* link. Every physical cable appears twice, once per
/// direction, because each direction has its own egress queue in the
/// simulator.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LinkId(pub u32);

/// What a node is and where it sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A VM-hosting server.
    Server {
        /// Pod index.
        pod: u16,
        /// Rack index within the pod.
        rack: u16,
        /// Slot within the rack.
        slot: u16,
    },
    /// A translation gateway box, attached to its pod's gateway ToR.
    Gateway {
        /// Pod index.
        pod: u16,
        /// Slot under the gateway ToR.
        slot: u16,
    },
    /// A top-of-rack switch.
    Tor {
        /// Pod index.
        pod: u16,
        /// Rack index within the pod.
        rack: u16,
    },
    /// A pod (aggregation) switch.
    Spine {
        /// Pod index.
        pod: u16,
        /// Spine index within the pod.
        idx: u16,
    },
    /// A core switch.
    Core {
        /// Core index.
        idx: u16,
    },
}

impl NodeKind {
    /// True for switches of any layer.
    pub fn is_switch(self) -> bool {
        matches!(
            self,
            NodeKind::Tor { .. } | NodeKind::Spine { .. } | NodeKind::Core { .. }
        )
    }

    /// True for end hosts (servers and gateways).
    pub fn is_host(self) -> bool {
        matches!(self, NodeKind::Server { .. } | NodeKind::Gateway { .. })
    }

    /// The pod this node belongs to, if it is pod-local.
    pub fn pod(self) -> Option<u16> {
        match self {
            NodeKind::Server { pod, .. }
            | NodeKind::Gateway { pod, .. }
            | NodeKind::Tor { pod, .. }
            | NodeKind::Spine { pod, .. } => Some(pod),
            NodeKind::Core { .. } => None,
        }
    }
}

/// One node of the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Its index.
    pub id: NodeId,
    /// Kind and location.
    pub kind: NodeKind,
    /// Physical address; hosts and gateways always have one, switches get one
    /// too so invalidation packets can be addressed to them (§3.3).
    pub pip: Pip,
}

/// One direction of a physical cable: 16 bytes. Its rate and delay are
/// its class's, shared by every cable of the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectedLink {
    /// Its index.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Index of its `(rate, delay)` class in [`Topology::classes`].
    pub class: u32,
}

/// A static network topology: nodes, directed links, port lists, and address
/// maps. Built once by [`crate::fattree::FatTreeConfig::build`]; never
/// mutated during simulation.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// All directed links, indexed by [`LinkId`].
    pub links: Vec<DirectedLink>,
    /// The distinct `(rate, delay)` pairs of the cables, in order of first
    /// use: a FatTree has two, host and fabric.
    classes: Vec<LinkSpec>,
    /// Egress ports of every node in compressed sparse row form, one flat
    /// list instead of a `Vec` per node: node *n*'s are
    /// `out[out_start[n]..out_start[n + 1]]`, in link-id order. Built by
    /// [`Self::index_ports`].
    out: Vec<LinkId>,
    out_start: Vec<u32>,
    pip_to_node: FxHashMap<Pip, NodeId>,
}

impl Topology {
    /// Adds a node; `pip` must be unique.
    pub fn add_node(&mut self, kind: NodeKind, pip: Pip) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind, pip });
        let prev = self.pip_to_node.insert(pip, id);
        assert!(prev.is_none(), "duplicate PIP {pip}");
        id
    }

    /// Adds both directions of a cable between `a` and `b`, interning its
    /// rate and delay in [`Self::classes`]. The port lists are indexed once
    /// the last cable is in ([`Self::index_ports`]).
    pub fn add_cable(&mut self, a: NodeId, b: NodeId, bandwidth_bps: u64, delay_ns: u64) {
        let spec = LinkSpec { bandwidth_bps, delay_ns };
        let class = match self.classes.iter().position(|&c| c == spec) {
            Some(c) => c,
            None => {
                self.classes.push(spec);
                self.classes.len() - 1
            }
        } as u32;
        for (from, to) in [(a, b), (b, a)] {
            let id = LinkId(self.links.len() as u32);
            self.links.push(DirectedLink { id, from, to, class });
        }
    }

    /// The link classes, indexed by [`DirectedLink::class`].
    pub fn classes(&self) -> &[LinkSpec] {
        &self.classes
    }

    /// Builds the port lists from the links: sorted by sending node, each
    /// node's stay in link-id order (the sort is stable). Call it after the
    /// last [`Self::add_cable`]; [`Self::out_links`] reads what it built.
    pub fn index_ports(&mut self) {
        let links = &self.links;
        let mut out: Vec<LinkId> = links.iter().map(|l| l.id).collect();
        out.sort_by_key(|l| links[l.0 as usize].from);
        self.out_start = (0..=self.nodes.len() as u32)
            .map(|n| out.partition_point(|l| links[l.0 as usize].from.0 < n) as u32)
            .collect();
        self.out = out;
        debug_assert!(
            self.nodes.iter().all(|n| {
                let to: Vec<_> = self.neighbors(n.id).collect();
                to.iter().enumerate().all(|(i, t)| !to[..i].contains(t))
            }),
            "duplicate cable"
        );
    }

    /// The egress ports of `node`.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        debug_assert_eq!(self.out.len(), self.links.len(), "cables added since `index_ports`");
        let n = node.0 as usize;
        &self.out[self.out_start[n] as usize..self.out_start[n + 1] as usize]
    }

    /// Resident bytes of the node and link tables, the port lists and the
    /// PIP index (one control byte per bucket beside each entry). Tables
    /// are sized by length: capacity never filled is not resident.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val as bytes;
        bytes(&*self.nodes) + bytes(&*self.links) + bytes(&*self.classes) + bytes(&*self.out)
            + bytes(&*self.out_start)
            + self.pip_to_node.capacity() * (std::mem::size_of::<(Pip, NodeId)>() + 1)
    }

    /// The node a PIP addresses, if any.
    pub fn node_by_pip(&self, pip: Pip) -> Option<NodeId> {
        self.pip_to_node.get(&pip).copied()
    }

    /// The directed link from `a` to `b`, if adjacent: a scan of `a`'s
    /// ports. Forwarding reads [`crate::Routing`]'s port tables, not this;
    /// its callers are the routing oracle and tests.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.out_links(a)
            .iter()
            .copied()
            .find(|&l| self.link(l).to == b)
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &DirectedLink {
        &self.links[id.0 as usize]
    }

    /// Iterates over all switch nodes.
    pub fn switches(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.kind.is_switch())
    }

    /// Iterates over all VM-hosting servers.
    pub fn servers(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Server { .. }))
    }

    /// Iterates over all gateway boxes.
    pub fn gateways(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Gateway { .. }))
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches().count()
    }

    /// The neighbors of `id` (one hop over any egress port).
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(id)
            .iter()
            .map(|l| self.link(*l).to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::default();
        let h1 = t.add_node(
            NodeKind::Server {
                pod: 0,
                rack: 0,
                slot: 0,
            },
            Pip(1),
        );
        let tor = t.add_node(NodeKind::Tor { pod: 0, rack: 0 }, Pip(100));
        let h2 = t.add_node(
            NodeKind::Server {
                pod: 0,
                rack: 0,
                slot: 1,
            },
            Pip(2),
        );
        t.add_cable(h1, tor, 100, 1000);
        t.add_cable(h2, tor, 100, 1000);
        t.index_ports();
        (t, h1, tor, h2)
    }

    #[test]
    fn cables_create_both_directions() {
        let (t, h1, tor, h2) = tiny();
        assert!(t.link_between(h1, tor).is_some());
        assert!(t.link_between(tor, h1).is_some());
        assert_ne!(t.link_between(h1, tor), t.link_between(tor, h1));
        assert!(t.link_between(h1, h2).is_none());
        assert_eq!(t.out_links(tor).len(), 2);
    }

    #[test]
    fn pip_lookup() {
        let (t, h1, _, _) = tiny();
        assert_eq!(t.node_by_pip(Pip(1)), Some(h1));
        assert_eq!(t.node_by_pip(Pip(999)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate PIP")]
    fn duplicate_pip_panics() {
        let mut t = Topology::default();
        t.add_node(NodeKind::Core { idx: 0 }, Pip(1));
        t.add_node(NodeKind::Core { idx: 1 }, Pip(1));
    }

    #[test]
    fn kind_classification() {
        assert!(NodeKind::Tor { pod: 0, rack: 0 }.is_switch());
        assert!(NodeKind::Core { idx: 0 }.is_switch());
        assert!(NodeKind::Server {
            pod: 0,
            rack: 0,
            slot: 0
        }
        .is_host());
        assert!(NodeKind::Gateway { pod: 0, slot: 0 }.is_host());
        assert_eq!(NodeKind::Core { idx: 3 }.pod(), None);
        assert_eq!(NodeKind::Spine { pod: 5, idx: 0 }.pod(), Some(5));
    }

    #[test]
    fn cables_of_one_rate_and_delay_share_a_class() {
        let (mut t, h1, tor, h2) = tiny();
        let spine = t.add_node(NodeKind::Spine { pod: 0, idx: 0 }, Pip(200));
        t.add_cable(tor, spine, 400, 1000);
        t.index_ports();
        assert_eq!(t.classes().len(), 2);
        let up = |a, b| t.classes()[t.link(t.link_between(a, b).unwrap()).class as usize];
        assert_eq!(up(h1, tor), up(tor, h2));
        assert_eq!(up(spine, tor), LinkSpec { bandwidth_bps: 400, delay_ns: 1000 });
    }

    #[test]
    fn neighbors_iterates_adjacent_nodes() {
        let (t, h1, tor, h2) = tiny();
        let n: Vec<_> = t.neighbors(tor).collect();
        assert_eq!(n, vec![h1, h2]);
    }
}
