//! Data-center topologies for the SwitchV2P reproduction.
//!
//! Builds the two FatTree networks of the paper's Table 3 (FT8-10K and
//! FT16-400K) plus the scaled variants of §5.3, and provides ECMP up-down
//! routing over them:
//!
//! * [`graph`] — nodes, directed links, and the [`Topology`] that stores a
//!   kind per node and a far end per link and computes PIPs, port lists
//!   and the PIP decode from the build order;
//! * [`fattree`] — the [`FatTreeConfig`] builder (pods × racks × servers,
//!   spines, cores, gateway placement);
//! * [`routing`] — structural ECMP next-hop computation (host → ToR → spine →
//!   core → spine → ToR → host), deterministic per flow key;
//! * [`roles`] — the five switch categories of the paper's Table 1.
//!
//! The topology is pure data: no queues or clocks here (those live in
//! `sv2p-netsim`), which keeps routing properties testable in isolation.
//!
//! ```
//! use sv2p_topology::{FatTreeConfig, Routing};
//!
//! let cfg = FatTreeConfig::ft8_10k();
//! assert_eq!(cfg.characteristics().total_switches, 80);
//! let topo = cfg.build();
//! let routing = Routing::new(&cfg, &topo);
//! // An inter-pod server pair crosses 5 switches (ToR-spine-core-spine-ToR).
//! let a = topo.servers().next().unwrap().id;
//! let b = topo.servers().last().unwrap().id;
//! assert_eq!(routing.switch_hops(&topo, a, b, 7), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fattree;
pub mod graph;
pub mod partition;
pub mod roles;
pub mod routing;

pub use fattree::{FatTreeConfig, LinkSpec};
pub use graph::{LinkId, Node, NodeId, NodeKind, Topology};
pub use partition::PodPartition;
pub use roles::{Layer, RoleMap, SwitchRole};
pub use routing::Routing;
