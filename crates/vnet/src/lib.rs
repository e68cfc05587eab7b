//! The virtual-network layer: everything a gateway-driven virtual network
//! (Andromeda/Zeta-style) needs before any in-network caching exists.
//!
//! * [`mapping`] — the V2P [`MappingDb`]: an epoch-versioned table of
//!   arbitrary VIP → PIP pairs, the served control plane's storage
//!   (`v2p-controlplane`);
//! * [`placement`] — VM placement: which VIPs live on which server
//!   (80 VMs/server in FT8-10K, 32 containers/server in FT16-400K). It is
//!   also the simulator's one V2P ground truth: a VIP resolves to where its
//!   VM lives, so gateways and agents read [`Placement::lookup`];
//! * [`gateway`] — the translation-gateway directory and per-flow gateway
//!   load balancing ("the gateways are replicated, with load balancing
//!   performed by each server on a per-flow basis", §5);
//! * [`agents`] — the data-plane extension points: [`SwitchAgent`] and
//!   [`HostAgent`] traits that SwitchV2P (`switchv2p` crate) and every
//!   baseline (`sv2p-baselines`) implement, plus the [`Strategy`] factory
//!   the simulator consumes;
//! * [`migration`] — VM migration plans and follow-me semantics (§5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod gateway;
pub mod mapping;
pub mod migration;
pub mod placement;

pub use agents::{
    AgentOutput, CacheOp, HostAgent, HostResolution, MisdeliveryPolicy, PacketAction, Strategy,
    SwitchAgent, SwitchCtx,
};
pub use gateway::{GatewayDirectory, GATEWAY_PROCESSING};
pub use mapping::{ApplyError, MappingDb, MappingDelta, MappingOp};
pub use migration::Migration;
pub use placement::Placement;
