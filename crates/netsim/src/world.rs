//! What every shard sees but none of them owns: the immutable [`World`]
//! and the [`Control`] state that only global events and between-run
//! interventions write.

use sv2p_metrics::MigrationRef;
use sv2p_packet::{Pip, SwitchTag, Vip};
use sv2p_simcore::FxHashMap;
use sv2p_topology::{LinkId, NodeId, NodeKind, PodPartition, RoleMap, Routing, Topology};
use sv2p_vnet::{GatewayDirectory, Migration, MisdeliveryPolicy, Placement};

use crate::churn::ChurnMark;
use crate::config::SimConfig;
use crate::faults::FaultEvent;
use crate::flows::FlowSpec;
use crate::link::SerTable;

/// Everything fixed at construction, built once per engine and shared by
/// the driver and every shard behind an `Arc`.
pub(crate) struct World {
    pub cfg: SimConfig,
    pub topo: Topology,
    /// The serialization table of each link class, indexed by
    /// `Topology::link_class`.
    pub ser: Vec<SerTable>,
    pub routing: Routing,
    pub dir: GatewayDirectory,
    /// Per-switch flag, by tag: a switch that actually holds cache lines
    /// (gates `CacheLookup` trace events, so non-caching switches stay
    /// silent). A switch's tag is its index in `Topology::switches` order
    /// ([`World::tag`]); per-switch state is indexed by it.
    pub caching: Vec<bool>,
    pub misdelivery_policy: MisdeliveryPolicy,
    pub strategy_name: String,
    /// Which shard owns each node (one shard when the topology has a
    /// single pod group).
    pub partition: PodPartition,
}

impl World {
    /// The switch tag of a node of kind `kind`, computed from its place;
    /// `None` for a host.
    #[inline]
    pub fn tag_of(&self, kind: NodeKind) -> Option<SwitchTag> {
        self.topo.switch_index(kind).map(|i| SwitchTag(i as u16))
    }

    /// The switch tag of `node` (panics for hosts).
    pub fn tag(&self, node: NodeId) -> SwitchTag {
        self.tag_of(self.topo.kind(node)).expect("switch tag")
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.partition.shard_of(node) as usize
    }
}

/// The one copy of the state that handlers read and never write: the
/// driver writes it at global events and between runs (interventions).
pub(crate) struct Control {
    /// VM placement, and so the ground-truth V2P mapping: handlers resolve
    /// a VIP with `placement.lookup`, and a `Migrate` global event is its
    /// one write (`relocate`).
    pub placement: Placement,
    /// Follow-me rules at old hosts: (old node, vip) -> new pip.
    pub follow_me: FxHashMap<(NodeId, Vip), Pip>,
    /// The latest executed migration of each VIP, written beside
    /// `follow_me`: a stale cache hit on the VIP attributes to it.
    pub last_migration: FxHashMap<Vip, MigrationRef>,
    pub roles: RoleMap,
    /// Per node, the `SwitchReboot` and `GatewayOutage` windows open on
    /// it: a node is blacked out while any is, so overlapping windows
    /// compose.
    pub blackout: Vec<u8>,
    /// Per link, the `LinkDown` windows open on it: a link is down, and
    /// masked out of ECMP, while any is.
    pub link_down: Vec<u8>,
    /// The links with a `LinkDown` window open; while there are none, a
    /// hop skips the per-link test.
    pub links_down: u32,
    /// The links with a `LossRate` window open: their injected loss
    /// probability (the sum of the open windows' rates) and how many are
    /// open. A link leaves the map when its last window closes, so a
    /// healthy link's rate is exactly 0.0, not what subtraction left, and a
    /// run without loss faults never probes it.
    pub loss: FxHashMap<LinkId, (f64, u32)>,
    /// The workload, indexed by flow id.
    pub flows: Vec<FlowSpec>,
    /// Indexed by `Event::Migrate`.
    pub migrations: Vec<Migration>,
    /// Indexed by `Event::FaultStart`/`FaultEnd`.
    pub fault_plan: Vec<FaultEvent>,
    /// Indexed by `Event::ChurnMark`.
    pub churn_marks: Vec<ChurnMark>,
}
