//! Nodes, directed links, and the topology container.
//!
//! A FatTree is regular: a node's PIP, its ports and the ToR a host hangs
//! off all follow from where it sits in the build order
//! ([`crate::FatTreeConfig::build`]). So [`Topology`] stores only a kind per
//! node and a far end per directed link, and computes the rest — the PIP
//! decode, the port lists, a host's attachment, a switch's index — with
//! the build order's strides. The table-built topology it replaced is kept
//! as a `#[cfg(test)]` oracle (`oracle::TableTopology`), and every computed
//! answer is tested against it.

use serde::{Deserialize, Serialize};
use sv2p_packet::Pip;

use crate::fattree::{FatTreeConfig, LinkSpec};

/// Index of a node (server, gateway, or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a *directed* link. Every physical cable appears twice, once per
/// direction, because each direction has its own egress queue in the
/// simulator. The two directions are adjacent ids, `2k` and `2k + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The other direction of the same cable.
    #[inline]
    pub fn twin(self) -> LinkId {
        LinkId(self.0 ^ 1)
    }
}

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

// The one record a node stores: 34 096 of them on FT32.
const _: () = assert!(std::mem::size_of::<NodeKind>() == 8);

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

    /// The node's physical address, by the scheme
    /// [`crate::FatTreeConfig::build`] documents. Hosts and gateways always
    /// have one; switches get one too so invalidation packets can be
    /// addressed to them (§3.3).
    pub fn pip(self) -> Pip {
        let at = |hi: u32, x: u16, y: u16| Pip(hi | u32::from(x) << 8 | u32::from(y));
        match self {
            NodeKind::Server { pod, rack, slot } => {
                at(0x0A00_0000 | u32::from(pod) << 16, rack, slot + 1)
            }
            NodeKind::Gateway { pod, slot } => at(0xAC10_0000, pod, slot),
            NodeKind::Tor { pod, rack } => at(0xC0A8_0000, pod, rack),
            NodeKind::Spine { pod, idx } => at(0xC0A9_0000, pod, idx),
            NodeKind::Core { idx } => Pip(0xC0AA_0000 | u32::from(idx)),
        }
    }
}

/// One node of the topology, as [`Topology::node`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Its index.
    pub id: NodeId,
    /// Kind and location.
    pub kind: NodeKind,
    /// Physical address ([`NodeKind::pip`]).
    pub pip: Pip,
}

/// One direction of a physical cable, as [`Topology::link`] reads it. Its
/// rate and delay are its class's, shared by every cable of the class.
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

/// The strides of the build order. Nodes: the cores, then pod by pod its
/// spines and rack by rack a ToR followed by its servers, then the
/// gateways in `gateway_pods` order. Cables (two link ids each): pod by
/// pod each spine's to its core group, then rack by rack the ToR's to each
/// spine and each server's to the ToR, then each gateway's to its ToR.
#[derive(Debug, Clone, Copy)]
struct Shape {
    pods: u32,
    racks: u32,
    servers: u32,
    spines: u32,
    cores: u32,
    /// Cores per spine group.
    m: u32,
    /// Nodes per pod: its spines, ToRs and servers.
    pod_nodes: u32,
    /// Nodes per rack: its ToR and servers.
    rack_nodes: u32,
    /// Links per pod, and per rack.
    pod_links: u32,
    rack_links: u32,
    /// The first gateway's node id, and its uplink's link id.
    first_gateway: u32,
    first_gateway_link: u32,
}

impl Shape {
    fn new(c: &FatTreeConfig) -> Self {
        let (pods, racks, servers) = (
            u32::from(c.pods),
            u32::from(c.racks_per_pod),
            u32::from(c.servers_per_rack),
        );
        let (spines, cores) = (u32::from(c.spines_per_pod), u32::from(c.cores));
        let m = cores / spines;
        let rack_links = 2 * (spines + servers);
        let pod_links = 2 * spines * m + racks * rack_links;
        let pod_nodes = spines + racks * (1 + servers);
        Shape {
            pods,
            racks,
            servers,
            spines,
            cores,
            m,
            pod_nodes,
            rack_nodes: 1 + servers,
            pod_links,
            rack_links,
            first_gateway: cores + pods * pod_nodes,
            first_gateway_link: pods * pod_links,
        }
    }

    #[inline]
    fn pod_base(&self, pod: u32) -> u32 {
        self.cores + pod * self.pod_nodes
    }

    #[inline]
    fn tor(&self, pod: u32, rack: u32) -> u32 {
        self.pod_base(pod) + self.spines + rack * self.rack_nodes
    }

    /// The first link of a rack: its ToR's uplink to spine 0.
    #[inline]
    fn rack_link(&self, pod: u32, rack: u32) -> u32 {
        pod * self.pod_links + 2 * self.spines * self.m + rack * self.rack_links
    }
}

/// The egress ports of one node in link-id order ([`Topology::out_links`]):
/// at most three runs of link ids, each an arithmetic progression. Routing
/// reads a run, or one port of it, without iterating ([`Ports::span`],
/// [`Ports::port`]).
#[derive(Debug, Clone)]
pub struct Ports {
    /// `(first id, step, count)` of each run.
    runs: [(u32, u32, u32); 3],
    /// The iterator's place: its run, and the ports of that run it has
    /// yielded.
    at: usize,
    done: u32,
}

impl Ports {
    const NONE: (u32, u32, u32) = (0, 0, 0);

    /// Port `i` of run `k`, as `first + step * i`, wherever the iterator is.
    #[inline]
    pub fn port(&self, k: usize, i: u32) -> LinkId {
        let (first, step, count) = self.runs[k];
        debug_assert!(i < count, "port {i} of a run of {count}");
        LinkId(first + step * i)
    }

    /// Run `k` as `(first id, step, count)`: port `i` is `first + step * i`.
    #[inline]
    pub fn span(&self, k: usize) -> (u32, u32, u32) {
        self.runs[k]
    }
}

impl Iterator for Ports {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        while let Some(&(_, _, count)) = self.runs.get(self.at) {
            if self.done < count {
                self.done += 1;
                return Some(self.port(self.at, self.done - 1));
            }
            (self.at, self.done) = (self.at + 1, 0);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.runs[self.at..]
            .iter()
            .map(|r| r.2 as usize)
            .sum::<usize>();
        let n = left - self.done as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Ports {}

/// A static FatTree: a kind per node, a far end per directed link, and
/// the build order's strides, from which everything else is computed.
/// Built once by [`crate::fattree::FatTreeConfig::build`]; never mutated
/// during simulation.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Every node's kind, indexed by [`NodeId`].
    kinds: Vec<NodeKind>,
    /// Every directed link's receiving node, indexed by [`LinkId`]. A
    /// link's sender is its twin's receiver.
    to: Vec<NodeId>,
    /// The distinct `(rate, delay)` pairs of the cables, in order of first
    /// use: fabric, then host (one class when the two coincide).
    classes: Vec<LinkSpec>,
    /// The class of a cable with a host at one end.
    host_class: u32,
    shape: Shape,
    /// Per pod: the index among the gateways of its first gateway, and its
    /// gateway count (0 in a pod without gateways).
    gateways: Vec<(u32, u32)>,
}

impl Topology {
    /// An empty topology for `config`'s shape, sized for all of its nodes
    /// and links; [`FatTreeConfig::build`] fills it in build order.
    pub(crate) fn for_config(config: &FatTreeConfig) -> Self {
        let shape = Shape::new(config);
        let mut gateways = vec![(0, 0); config.pods as usize];
        let mut first = 0;
        for (&pod, &count) in config.gateway_pods.iter().zip(&config.gateways_per_pod) {
            gateways[pod as usize] = (first, u32::from(count));
            first += u32::from(count);
        }
        let nodes = shape.first_gateway + first;
        let links = shape.first_gateway_link + 2 * first;
        let mut classes = vec![config.fabric_link];
        if config.host_link != config.fabric_link {
            classes.push(config.host_link);
        }
        Topology {
            kinds: Vec::with_capacity(nodes as usize),
            to: Vec::with_capacity(links as usize),
            host_class: classes.len() as u32 - 1,
            classes,
            shape,
            gateways,
        }
    }

    /// Appends a node.
    pub(crate) fn push_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        NodeId(self.kinds.len() as u32 - 1)
    }

    /// Appends both directions of a cable: `a -> b`, then `b -> a`.
    pub(crate) fn push_cable(&mut self, a: NodeId, b: NodeId) {
        self.to.extend([b, a]);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.to.len()
    }

    /// What `id` is and where it sits: the one load a hop makes per node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.0 as usize]
    }

    /// Node accessor; its PIP is computed from its kind.
    pub fn node(&self, id: NodeId) -> Node {
        let kind = self.kind(id);
        Node {
            id,
            kind,
            pip: kind.pip(),
        }
    }

    /// The node `link` ends at.
    #[inline]
    pub fn link_to(&self, link: LinkId) -> NodeId {
        self.to[link.0 as usize]
    }

    /// The node that transmits on `link`: its twin's receiver.
    #[inline]
    pub fn link_from(&self, link: LinkId) -> NodeId {
        self.to[link.twin().0 as usize]
    }

    /// The class of `link`: the host class if either end is a host, else
    /// the fabric's.
    #[inline]
    pub fn link_class(&self, link: LinkId) -> u32 {
        self.link_class_from(self.kind(self.link_from(link)), link)
    }

    /// [`Self::link_class`] of `link`, sent on by a node of kind `from`.
    /// Only a host or a ToR has a host at one end of a port, so only a
    /// ToR's far end is read.
    #[inline]
    pub fn link_class_from(&self, from: NodeKind, link: LinkId) -> u32 {
        match from {
            NodeKind::Server { .. } | NodeKind::Gateway { .. } => self.host_class,
            NodeKind::Tor { .. } if self.kind(self.link_to(link)).is_host() => self.host_class,
            NodeKind::Tor { .. } | NodeKind::Spine { .. } | NodeKind::Core { .. } => 0,
        }
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> DirectedLink {
        let (from, to) = (self.link_from(id), self.link_to(id));
        DirectedLink {
            id,
            from,
            to,
            class: self.link_class(id),
        }
    }

    /// The link classes, indexed by [`DirectedLink::class`].
    pub fn classes(&self) -> &[LinkSpec] {
        &self.classes
    }

    /// Every node, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes_where(|_| true)
    }

    /// The nodes whose kind passes `keep`, in id order; a PIP is computed
    /// only for those.
    fn nodes_where(&self, keep: fn(NodeKind) -> bool) -> impl Iterator<Item = Node> + '_ {
        let ids = (0..).map(NodeId);
        ids.zip(&self.kinds)
            .filter(move |&(_, &kind)| keep(kind))
            .map(|(id, &kind)| Node {
                id,
                kind,
                pip: kind.pip(),
            })
    }

    /// Every directed link, in id order.
    pub fn links(&self) -> impl Iterator<Item = DirectedLink> + '_ {
        (0..self.to.len() as u32).map(|i| self.link(LinkId(i)))
    }

    /// The egress ports of `node`, in link-id order, as runs
    /// ([`Ports::span`]): a core's down to each pod (run 0); a spine's up to
    /// its core group (0), then down to each rack (1); a ToR's up to each
    /// spine (0), down to each server (1), then to the pod's gateways if it
    /// is the gateway ToR (2); a host's one uplink (0).
    #[inline]
    pub fn out_links(&self, node: NodeId) -> Ports {
        let s = &self.shape;
        let none = Ports::NONE;
        let runs = match self.kind(node) {
            NodeKind::Core { idx } => [(2 * u32::from(idx) + 1, s.pod_links, s.pods), none, none],
            NodeKind::Spine { pod, idx } => {
                let (base, idx) = (u32::from(pod) * s.pod_links, u32::from(idx));
                let down = base + 2 * s.spines * s.m + 2 * idx + 1;
                [
                    (base + 2 * idx * s.m, 2, s.m),
                    (down, s.rack_links, s.racks),
                    none,
                ]
            }
            NodeKind::Tor { pod, rack } => {
                let first = s.rack_link(u32::from(pod), u32::from(rack));
                let (gw, count) = match self.gateways[pod as usize] {
                    gw if u32::from(rack) == s.racks - 1 => gw,
                    _ => (0, 0),
                };
                let servers = first + 2 * s.spines + 1;
                let gateways = s.first_gateway_link + 2 * gw + 1;
                [
                    (first, 2, s.spines),
                    (servers, 2, s.servers),
                    (gateways, 2, count),
                ]
            }
            host => {
                let (_, up) = self.attachment(host).expect("a host");
                [(up.0, 0, 1), none, none]
            }
        };
        Ports {
            runs,
            at: 0,
            done: 0,
        }
    }

    /// Where a host hangs: the ToR it is attached to and its uplink to it
    /// (the ToR's downlink to it is the uplink's [`LinkId::twin`]); `None`
    /// for a switch.
    #[inline]
    pub fn attachment(&self, host: NodeKind) -> Option<(NodeId, LinkId)> {
        let s = &self.shape;
        let (tor, up) = match host {
            NodeKind::Server { pod, rack, slot } => {
                let (pod, rack) = (u32::from(pod), u32::from(rack));
                let up = s.rack_link(pod, rack) + 2 * (s.spines + u32::from(slot));
                (s.tor(pod, rack), up)
            }
            NodeKind::Gateway { pod, slot } => {
                let g = self.gateways[pod as usize].0 + u32::from(slot);
                (
                    s.tor(u32::from(pod), s.racks - 1),
                    s.first_gateway_link + 2 * g,
                )
            }
            _ => return None,
        };
        Some((NodeId(tor), LinkId(up)))
    }

    /// A switch's index in [`Self::switches`] order — the cores, then pod
    /// by pod its spines and ToRs; `None` for a host. [`Self::switch_kind`]
    /// is its inverse.
    #[inline]
    pub fn switch_index(&self, kind: NodeKind) -> Option<u32> {
        let s = &self.shape;
        let pod_first = |pod: u16| s.cores + u32::from(pod) * (s.spines + s.racks);
        match kind {
            NodeKind::Core { idx } => Some(u32::from(idx)),
            NodeKind::Spine { pod, idx } => Some(pod_first(pod) + u32::from(idx)),
            NodeKind::Tor { pod, rack } => Some(pod_first(pod) + s.spines + u32::from(rack)),
            NodeKind::Server { .. } | NodeKind::Gateway { .. } => None,
        }
    }

    /// The switch at `index` in [`Self::switches`] order; `None` past the
    /// last switch.
    pub fn switch_kind(&self, index: u32) -> Option<NodeKind> {
        let s = &self.shape;
        let Some(i) = index.checked_sub(s.cores) else {
            return Some(NodeKind::Core { idx: index as u16 });
        };
        let (pod, i) = (i / (s.spines + s.racks), i % (s.spines + s.racks));
        (pod < s.pods).then(|| match i.checked_sub(s.spines) {
            None => NodeKind::Spine {
                pod: pod as u16,
                idx: i as u16,
            },
            Some(rack) => NodeKind::Tor {
                pod: pod as u16,
                rack: rack as u16,
            },
        })
    }

    /// The node a PIP addresses, if any: the prefix names the kind, the
    /// low bytes its place, and a place out of range names nothing.
    #[inline]
    pub fn node_by_pip(&self, pip: Pip) -> Option<NodeId> {
        let s = &self.shape;
        let [a, b, c, d] = pip.0.to_be_bytes();
        let (b, c, d) = (u32::from(b), u32::from(c), u32::from(d));
        let id = match (a, b) {
            // 10.pod.rack.slot+1
            (10, pod) => {
                let slot = d.wrapping_sub(1);
                (pod < s.pods && c < s.racks && slot < s.servers).then(|| s.tor(pod, c) + 1 + slot)
            }
            // 172.16.pod.slot
            (172, 16) => {
                let &(first, count) = self.gateways.get(c as usize)?;
                (d < count).then(|| s.first_gateway + first + d)
            }
            // 192.168.pod.rack, 192.169.pod.idx, 192.170.0.idx
            (192, 168) => (c < s.pods && d < s.racks).then(|| s.tor(c, d)),
            (192, 169) => (c < s.pods && d < s.spines).then(|| s.pod_base(c) + d),
            (192, 170) => (c << 8 | d < s.cores).then_some(c << 8 | d),
            _ => None,
        };
        id.map(NodeId)
    }

    /// Resident bytes: the kinds, the far ends, the classes and the
    /// per-pod gateway offsets. Tables are sized by length: capacity never
    /// filled is not resident.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val as bytes;
        bytes(&*self.kinds) + bytes(&*self.to) + bytes(&*self.classes) + bytes(&*self.gateways)
    }

    /// The directed link from `a` to `b`, if adjacent: a scan of `a`'s
    /// ports. Forwarding picks a member of a run ([`Ports::span`],
    /// [`Ports::port`]), not this.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.out_links(a).find(|&l| self.link_to(l) == b)
    }

    /// Iterates over all switch nodes.
    pub fn switches(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes_where(NodeKind::is_switch)
    }

    /// Iterates over all VM-hosting servers.
    pub fn servers(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes_where(|k| matches!(k, NodeKind::Server { .. }))
    }

    /// Iterates over all gateway boxes.
    pub fn gateways(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes_where(|k| matches!(k, NodeKind::Gateway { .. }))
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        let s = &self.shape;
        (s.cores + s.pods * (s.spines + s.racks)) as usize
    }

    /// The neighbors of `id` (one hop over any egress port).
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(id).map(|l| self.link_to(l))
    }
}

/// The topology as it was built before it became arithmetic: a node table
/// with stored PIPs, a link table, a PIP hash index and port lists sorted
/// out of the links. Kept as the test oracle — every computed answer of
/// [`Topology`] must equal what these tables say.
#[cfg(test)]
pub(crate) mod oracle {
    use proptest::prelude::*;
    use sv2p_simcore::FxHashMap;

    use super::*;

    /// The table-built topology.
    #[derive(Debug, Default)]
    pub struct TableTopology {
        pub nodes: Vec<Node>,
        pub links: Vec<DirectedLink>,
        pub classes: Vec<LinkSpec>,
        /// Node *n*'s egress ports are `out[out_start[n]..out_start[n + 1]]`.
        out: Vec<LinkId>,
        out_start: Vec<u32>,
        pip_to_node: FxHashMap<Pip, NodeId>,
    }

    impl TableTopology {
        /// Adds a node; `pip` must be unique.
        pub fn add_node(&mut self, kind: NodeKind, pip: Pip) -> NodeId {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node { id, kind, pip });
            let prev = self.pip_to_node.insert(pip, id);
            assert!(prev.is_none(), "duplicate PIP {pip}");
            id
        }

        /// Adds both directions of a cable, interning its rate and delay.
        pub fn add_cable(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
            let class = match self.classes.iter().position(|&c| c == spec) {
                Some(c) => c,
                None => {
                    self.classes.push(spec);
                    self.classes.len() - 1
                }
            } as u32;
            for (from, to) in [(a, b), (b, a)] {
                let id = LinkId(self.links.len() as u32);
                self.links.push(DirectedLink {
                    id,
                    from,
                    to,
                    class,
                });
            }
        }

        /// Builds the port lists: sorted by sending node, each node's in
        /// link-id order (the sort is stable).
        pub fn index_ports(&mut self) {
            let links = &self.links;
            let mut out: Vec<LinkId> = links.iter().map(|l| l.id).collect();
            out.sort_by_key(|l| links[l.0 as usize].from);
            self.out_start = (0..=self.nodes.len() as u32)
                .map(|n| out.partition_point(|l| links[l.0 as usize].from.0 < n) as u32)
                .collect();
            self.out = out;
        }

        /// The egress ports of `node`.
        pub fn out_links(&self, node: NodeId) -> &[LinkId] {
            let n = node.0 as usize;
            &self.out[self.out_start[n] as usize..self.out_start[n + 1] as usize]
        }

        /// The node a PIP addresses, if any.
        pub fn node_by_pip(&self, pip: Pip) -> Option<NodeId> {
            self.pip_to_node.get(&pip).copied()
        }

        /// The directed link from `a` to `b`, if adjacent.
        pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
            self.out_links(a)
                .iter()
                .copied()
                .find(|&l| self.links[l.0 as usize].to == b)
        }
    }

    /// Any valid shape: gateway pods listed out of order, a gateway ToR
    /// with many gateways, core groups wider than one.
    pub fn arb_config() -> impl Strategy<Value = FatTreeConfig> {
        (1u16..7, 1u16..6, 1u16..5, 1u16..4, 1u16..4, any::<u64>()).prop_map(
            |(pods, racks, servers, spines, group, seed)| {
                let mut rng = sv2p_simcore::SimRng::new(seed);
                let mut gateway_pods: Vec<u16> = (0..pods).filter(|_| rng.chance(0.5)).collect();
                if gateway_pods.is_empty() {
                    gateway_pods.push(pods - 1);
                }
                // Shuffle, so the gateways' build order is not pod order.
                for i in (1..gateway_pods.len()).rev() {
                    gateway_pods.swap(i, rng.next_u64_raw() as usize % (i + 1));
                }
                let gateways_per_pod = gateway_pods
                    .iter()
                    .map(|_| 1 + (rng.next_u64_raw() % 12) as u16)
                    .collect();
                FatTreeConfig {
                    pods,
                    racks_per_pod: racks,
                    servers_per_rack: servers,
                    spines_per_pod: spines,
                    cores: spines * group,
                    gateway_pods,
                    gateways_per_pod,
                    host_link: LinkSpec::HOST_100G,
                    fabric_link: LinkSpec::FABRIC_400G,
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::oracle::{arb_config, TableTopology};
    use super::*;

    /// Every answer the arithmetic gives equals the tables': kinds, PIPs
    /// and the PIP decode, links with their classes, port lists in order
    /// and run by run, each host's ToR, uplink and downlink, and each
    /// switch's index and its inverse.
    fn assert_matches_oracle(cfg: &FatTreeConfig) {
        let topo = cfg.build();
        let tables: TableTopology = cfg.build_tables();
        assert_eq!(topo.node_count(), tables.nodes.len());
        assert_eq!(topo.link_count(), tables.links.len());
        assert_eq!(topo.classes(), &tables.classes[..]);
        assert_eq!(topo.nodes().collect::<Vec<_>>(), tables.nodes);
        assert_eq!(topo.links().collect::<Vec<_>>(), tables.links);
        let mut switches = 0;
        for n in &tables.nodes {
            assert_eq!(topo.node_by_pip(n.pip), Some(n.id), "{n:?}");
            let ports: Vec<LinkId> = topo.out_links(n.id).collect();
            assert_eq!(ports, tables.out_links(n.id), "{n:?}");
            assert_eq!(topo.out_links(n.id).len(), ports.len());
            let mut runs = topo.out_links(n.id);
            runs.next(); // the accessors read the runs as built
            let run = |k| {
                let (first, step, count) = runs.span(k);
                (0..count).map(move |i| LinkId(first + step * i))
            };
            let by_run: Vec<LinkId> = (0..3).flat_map(run).collect();
            assert_eq!(by_run, ports, "{n:?}");
            for k in 0..3 {
                for (i, l) in run(k).enumerate() {
                    assert_eq!(runs.port(k, i as u32), l, "{n:?} run {k}");
                }
            }
            if n.kind.is_host() {
                let (tor, up) = topo.attachment(n.kind).expect("host attachment");
                let want_tor = tables.links[tables.out_links(n.id)[0].0 as usize].to;
                assert_eq!(tor, want_tor, "{n:?}");
                assert_eq!(Some(up), tables.link_between(n.id, tor));
                assert_eq!(Some(up.twin()), tables.link_between(tor, n.id));
                assert_eq!(topo.switch_index(n.kind), None);
            } else {
                assert_eq!(topo.attachment(n.kind), None);
                assert_eq!(topo.switch_index(n.kind), Some(switches), "{n:?}");
                assert_eq!(topo.switch_kind(switches), Some(n.kind));
                switches += 1;
            }
        }
        assert_eq!(topo.switch_count(), switches as usize);
        assert_eq!(topo.switch_kind(switches), None);
        let past_the_pods = switches + u32::from(cfg.spines_per_pod) + u32::from(cfg.racks_per_pod);
        assert_eq!(topo.switch_kind(past_the_pods), None);
        assert_names_nothing_else(cfg, &topo, &tables);
    }

    /// PIPs that name nothing answer `None` in both: each prefix with a
    /// place one past its range, a server PIP ending in 0, a gateway PIP
    /// in a pod without gateways, and random addresses.
    fn assert_names_nothing_else(cfg: &FatTreeConfig, topo: &Topology, tables: &TableTopology) {
        let (pods, racks) = (u32::from(cfg.pods), u32::from(cfg.racks_per_pod));
        let (servers, spines) = (
            u32::from(cfg.servers_per_rack),
            u32::from(cfg.spines_per_pod),
        );
        let quad = |a: u32, b: u32, c: u32, d: u32| Pip(a << 24 | b << 16 | c << 8 | d);
        let mut probes = vec![
            quad(10, pods, 0, 1),
            quad(10, 0, racks, 1),
            quad(10, 0, 0, servers + 1),
            quad(10, 0, 0, 0),
            quad(172, 16, pods, 0),
            quad(192, 168, pods, 0),
            quad(192, 168, 0, racks),
            quad(192, 169, pods, 0),
            quad(192, 169, 0, spines),
            quad(192, 170, 0, u32::from(cfg.cores)),
            quad(192, 170, 1, 0),
            quad(172, 17, 0, 0),
            Pip(0),
            Pip(u32::MAX),
        ];
        for pod in 0..cfg.pods {
            let slots = cfg
                .gateway_pods
                .iter()
                .zip(&cfg.gateways_per_pod)
                .find(|&(&p, _)| p == pod)
                .map_or(0, |(_, &g)| u32::from(g));
            probes.push(quad(172, 16, u32::from(pod), slots));
        }
        let mut rng = sv2p_simcore::SimRng::new(u64::from(pods) << 8 | u64::from(racks));
        probes.extend((0..2_000).map(|_| Pip(rng.next_u64_raw() as u32)));
        for pip in probes {
            assert_eq!(topo.node_by_pip(pip), tables.node_by_pip(pip), "{pip}");
        }
        assert_eq!(topo.node_by_pip(quad(10, 0, 0, 0)), None);
    }

    #[test]
    fn named_fabrics_match_their_tables() {
        assert_matches_oracle(&FatTreeConfig::ft8_10k());
        assert_matches_oracle(&FatTreeConfig::ft16_400k());
        assert_matches_oracle(&FatTreeConfig::ft32_1m());
        for pods in [1, 2, 4, 8, 16, 32] {
            assert_matches_oracle(&FatTreeConfig::scaled_ft8(pods));
        }
        for total in [1, 4, 7, 40] {
            assert_matches_oracle(&FatTreeConfig::ft8_10k().with_total_gateways(total));
        }
    }

    #[test]
    fn one_class_when_host_and_fabric_cables_coincide() {
        let cfg = FatTreeConfig {
            host_link: LinkSpec::FABRIC_400G,
            ..FatTreeConfig::scaled_ft8(4)
        };
        assert_matches_oracle(&cfg);
        assert_eq!(cfg.build().classes().len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_fabrics_match_their_tables(cfg in arb_config()) {
            assert_matches_oracle(&cfg);
        }
    }

    #[test]
    fn the_widest_pip_fields_decode() {
        // 256 pods and racks, 254 servers, 256 cores and gateways: every
        // byte of the scheme at its limit.
        let cfg = FatTreeConfig {
            pods: 2,
            racks_per_pod: 256,
            servers_per_rack: 1,
            spines_per_pod: 1,
            cores: 256,
            gateway_pods: vec![1],
            gateways_per_pod: vec![256],
            ..FatTreeConfig::ft8_10k()
        };
        assert_matches_oracle(&cfg);
        let cfg = FatTreeConfig {
            pods: 256,
            racks_per_pod: 1,
            servers_per_rack: 254,
            spines_per_pod: 1,
            cores: 1,
            gateway_pods: vec![255, 0],
            gateways_per_pod: vec![2, 1],
            ..FatTreeConfig::ft8_10k()
        };
        assert_matches_oracle(&cfg);
    }

    #[test]
    #[should_panic(expected = "duplicate PIP")]
    fn the_tables_reject_a_duplicate_pip() {
        let mut t = TableTopology::default();
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
    fn pips_spell_out_the_place() {
        let pip = |k: NodeKind| k.pip().to_string();
        assert_eq!(
            pip(NodeKind::Server {
                pod: 3,
                rack: 2,
                slot: 0
            }),
            "p:10.3.2.1"
        );
        assert_eq!(pip(NodeKind::Gateway { pod: 5, slot: 9 }), "p:172.16.5.9");
        assert_eq!(pip(NodeKind::Tor { pod: 1, rack: 7 }), "p:192.168.1.7");
        assert_eq!(pip(NodeKind::Spine { pod: 4, idx: 2 }), "p:192.169.4.2");
        assert_eq!(pip(NodeKind::Core { idx: 15 }), "p:192.170.0.15");
    }

    #[test]
    fn cables_create_both_directions() {
        let topo = FatTreeConfig::ft8_10k().build();
        let h = topo.servers().next().unwrap().id;
        let (tor, up) = topo.attachment(topo.kind(h)).unwrap();
        assert_eq!(topo.link_between(h, tor), Some(up));
        assert_eq!(topo.link_between(tor, h), Some(up.twin()));
        assert_eq!(topo.link_from(up), h);
        assert_eq!(topo.link_to(up.twin()), h);
        let h2 = topo.servers().nth(4).unwrap().id;
        assert!(topo.link_between(h, h2).is_none());
        // 4 spines + 4 servers.
        assert_eq!(topo.out_links(tor).len(), 8);
    }
}
