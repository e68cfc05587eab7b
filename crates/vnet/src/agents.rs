//! Data-plane extension points.
//!
//! The simulator (`sv2p-netsim`) is translation-scheme agnostic: every
//! scheme — SwitchV2P itself and each baseline of §5 — is a [`Strategy`]
//! that fabricates per-switch [`SwitchAgent`]s and the one [`HostAgent`]
//! that sends for every server of a shard. The trait's defaults are the
//! NoCache baseline, so a scheme overrides only what differs from it:
//! where it caches ([`Strategy::cache_weight`] above 0), its agents, and —
//! SwitchV2P alone — its misdelivery policy. A switch whose role weighs 0 holds no agent at
//! all: the simulator forwards its packets without a call. Agents are
//! sans-IO state machines: they mutate the packet in place (translate, tag,
//! attach/strip options) and return an [`AgentOutput`] describing what the
//! data plane should do next; the simulator owns queues, links, and the
//! clock.
//!
//! The contract carries what an agent reads and nothing else. A factory is
//! told a switch's role (to pick the agent type) and its cache lines; the
//! switch's identity — tag, address, pod and *current* role — arrives with
//! every packet in [`SwitchCtx`], so an agent holds no copy that a
//! control-plane role reassignment (§4 "Gateway migration") could leave
//! behind. A value the paper fixes (§5) is a constant beside the agent that
//! reads it, not a field here.

use sv2p_packet::{Packet, Pip, SwitchTag, Vip};
use sv2p_simcore::{SimDuration, SimRng, SimTime};
use sv2p_topology::{NodeId, SwitchRole};

use crate::placement::Placement;

/// Everything a switch agent may consult while processing one packet:
/// each field is read by at least one scheme.
///
/// The `placement` field is the control-plane ground truth: data-plane
/// designs (SwitchV2P, GwCache, LocalLearning) never read it; it exists for
/// agents that model a switch-local control plane (Bluebird's SFE) or an
/// omniscient controller.
pub struct SwitchCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// This switch's compact identifier (rides in the hit-switch option).
    pub tag: SwitchTag,
    /// This switch's own physical address (source of generated packets).
    pub switch_pip: Pip,
    /// Table 1 category as of this packet. The simulator reads it from the
    /// role map per hop, so it is the only copy: an agent that acts on it
    /// follows `Engine::reassign_switch_role` from the next packet on.
    pub role: SwitchRole,
    /// Pod of this switch (`None` for cores).
    pub my_pod: Option<u16>,
    /// If the packet entered from a directly-attached host port, that host's
    /// PIP (the front-panel port-to-PIP mapping of §3.3).
    pub ingress_host: Option<Pip>,
    /// True if the packet is a learning packet whose outer destination is a
    /// host attached to this switch (ToRs consume it there); false for every
    /// other packet, so the simulator decodes the address only when it
    /// matters.
    pub dst_attached: bool,
    /// Control-plane ground truth: [`Placement::lookup`] is what a VIP
    /// resolves to now (see struct docs).
    pub placement: &'a Placement,
    /// Per-switch deterministic random stream (learning-packet coin flips).
    pub rng: &'a mut SimRng,
    /// Resolves a PIP to its pod, if pod-local (promotion's "leaves the pod"
    /// test).
    pub pod_of: &'a dyn Fn(Pip) -> Option<u16>,
    /// Resolves a switch tag to that switch's PIP (addressing invalidation
    /// packets).
    pub pip_of_tag: &'a dyn Fn(SwitchTag) -> Pip,
    /// True when the simulator's telemetry layer wants [`CacheOp`]s
    /// reported in [`AgentOutput::cache_ops`]. Agents must skip the
    /// bookkeeping entirely when false so disabled tracing allocates
    /// nothing on the hot path.
    pub trace_cache_ops: bool,
}

/// One cache mutation, reported through [`AgentOutput::cache_ops`] when
/// [`SwitchCtx::trace_cache_ops`] is set (telemetry only — the simulator's
/// metrics counters are fed by the dedicated `AgentOutput` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// A mapping was inserted into an empty line.
    Insert {
        /// Virtual address.
        vip: Vip,
        /// Physical address it maps to.
        pip: Pip,
    },
    /// An existing line's mapping was refreshed/overwritten in place.
    Update {
        /// Virtual address.
        vip: Vip,
        /// Physical address it maps to.
        pip: Pip,
    },
    /// A valid mapping was evicted to make room.
    Evict {
        /// Virtual address evicted.
        vip: Vip,
        /// Physical address it mapped to.
        pip: Pip,
    },
    /// A mapping was invalidated (misdelivery tag or invalidation packet).
    Invalidate {
        /// Virtual address invalidated.
        vip: Vip,
    },
    /// A spillover option riding on a packet was accepted here.
    Spill {
        /// Virtual address.
        vip: Vip,
        /// Physical address it maps to.
        pip: Pip,
    },
    /// A promotion option was accepted into this (core) switch.
    Promote {
        /// Virtual address.
        vip: Vip,
        /// Physical address it maps to.
        pip: Pip,
    },
    /// A control plane installed the mapping directly (Controller).
    Install {
        /// Virtual address.
        vip: Vip,
        /// Physical address it maps to.
        pip: Pip,
    },
}

impl CacheOp {
    /// The virtual address the operation touched.
    pub fn vip(self) -> Vip {
        match self {
            CacheOp::Insert { vip, .. }
            | CacheOp::Update { vip, .. }
            | CacheOp::Evict { vip, .. }
            | CacheOp::Invalidate { vip }
            | CacheOp::Spill { vip, .. }
            | CacheOp::Promote { vip, .. }
            | CacheOp::Install { vip, .. } => vip,
        }
    }

    /// The physical address involved, when the operation carries one.
    pub fn pip(self) -> Option<Pip> {
        match self {
            CacheOp::Insert { pip, .. }
            | CacheOp::Update { pip, .. }
            | CacheOp::Evict { pip, .. }
            | CacheOp::Spill { pip, .. }
            | CacheOp::Promote { pip, .. }
            | CacheOp::Install { pip, .. } => Some(pip),
            CacheOp::Invalidate { .. } => None,
        }
    }
}

/// What the data plane should do with the processed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketAction {
    /// Forward normally toward the (possibly rewritten) outer destination.
    Forward,
    /// Hold the packet inside the switch for the given time, then re-inject
    /// it at this switch (models a data-to-control-plane detour such as
    /// Bluebird's SFE; the agent must have already resolved the packet so it
    /// passes straight through on re-entry).
    Delay(SimDuration),
    /// Drop the packet (control-plane queue overflow).
    Drop,
    /// Absorb the packet: it reached its in-network consumer (a learning
    /// packet at the target ToR, an invalidation packet at its target
    /// switch).
    Consume,
}

/// Result of processing one packet at one switch.
#[derive(Debug, Clone)]
pub struct AgentOutput {
    /// Disposition of the processed packet.
    pub action: PacketAction,
    /// Extra protocol packets to inject at this switch (learning packets,
    /// invalidation packets). Ids are assigned by the simulator.
    pub emit: Vec<Packet>,
    /// True if this switch's cache resolved the packet (hit-rate metrics and
    /// Table 5's per-layer hit distribution).
    pub cache_hit: bool,
    /// True if a spillover option riding on the packet was inserted here.
    pub spill_inserted: bool,
    /// True if a promotion option was accepted into this (core) switch.
    pub promotion_inserted: bool,
    /// Cache mutations performed while processing this packet, reported
    /// only when [`SwitchCtx::trace_cache_ops`] was set (empty — and
    /// allocation-free — otherwise).
    pub cache_ops: Vec<CacheOp>,
}

impl AgentOutput {
    /// Plain forwarding, nothing else.
    pub fn forward() -> Self {
        AgentOutput {
            action: PacketAction::Forward,
            emit: Vec::new(),
            cache_hit: false,
            spill_inserted: false,
            promotion_inserted: false,
            cache_ops: Vec::new(),
        }
    }

    /// Forwarding after a local cache hit.
    pub fn forward_hit() -> Self {
        AgentOutput {
            cache_hit: true,
            ..AgentOutput::forward()
        }
    }

    /// Absorb the packet.
    pub fn consume() -> Self {
        AgentOutput {
            action: PacketAction::Consume,
            ..AgentOutput::forward()
        }
    }
}

/// Per-switch translation behavior.
pub trait SwitchAgent {
    /// Processes one packet entering the switch, before routing.
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput;

    /// Number of valid cache entries (capacity audits in tests/benches).
    fn occupancy(&self) -> usize {
        0
    }

    /// Bytes the agent holds behind its own pointers — its cache lines
    /// and tables — beyond the box's inline size (the "nodes" part of the
    /// engine's resident bytes).
    fn resident_bytes(&self) -> usize {
        0
    }

    /// Entries currently cached, as (vip, pip) pairs (diagnostics only).
    fn entries(&self) -> Vec<(Vip, Pip)> {
        Vec::new()
    }

    /// Control-plane installation of one entry (Controller baseline; no-op
    /// for data-plane-managed caches).
    fn install(&mut self, _vip: Vip, _pip: Pip) {}

    /// Control-plane wipe of installed entries before a new epoch's
    /// allocation (Controller baseline; no-op elsewhere).
    fn clear_installed(&mut self) {}

    /// Models a switch reboot: all volatile cache state is lost. The paper
    /// argues SwitchV2P tolerates this by construction ("the opportunistic
    /// nature of the caching approach makes it resilient to switch
    /// failures"); netsim's failure-injection tests exercise the claim.
    fn reset(&mut self) {}
}

/// How a sending host addresses the first hop of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostResolution {
    /// The host knows the mapping: outer dst = this PIP, resolved = true.
    Direct(Pip),
    /// Send unresolved toward a gateway (the simulator picks the concrete
    /// gateway per flow from the [`crate::GatewayDirectory`]).
    Gateway,
    /// Send unresolved with a null outer destination; the first-hop ToR must
    /// translate (Bluebird's model, where ToRs own the mapping table).
    FirstHopTor,
}

/// The sending behavior of servers: one agent serves every server of a
/// shard, told with each call which one is asking. A scheme whose hosts
/// keep state keys it by host, so a host that never sends holds nothing.
pub trait HostAgent {
    /// Decides how `host` addresses a packet for `dst_vip`. Called for
    /// every outgoing packet (agents cache internally if they want
    /// per-flow behavior). `placement` is the ground truth a host that is
    /// programmed with mappings resolves against.
    fn resolve(&mut self, host: NodeId, placement: &Placement, dst_vip: Vip) -> HostResolution;

    /// Models `host` losing its volatile resolution state (e.g. its vswitch
    /// restarting when the rack's ToR reboots). Stateless agents keep the
    /// no-op default; caching agents must drop the host's cached mappings
    /// so a reboot leaves the whole rack cold, mirroring
    /// [`SwitchAgent::reset`].
    fn reset(&mut self, _host: NodeId) {}
}

/// What the old host does with a packet that arrived for a VM that moved
/// away (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisdeliveryPolicy {
    /// Forward to the VM's new location via the follow-me rule installed at
    /// migration time (NoCache / OnDemand in the paper's Table 4).
    FollowMe,
    /// Forward to a gateway, unresolved; the in-network caches are repaired
    /// by misdelivery tags and invalidation packets (SwitchV2P).
    ToGateway,
}

/// A complete translation scheme. Every default is the NoCache baseline —
/// no cache lines, switches that only forward, hosts that send through a
/// gateway, a follow-me rule for misdelivered packets — so a scheme states
/// only how it differs.
pub trait Strategy {
    /// Scheme name as used in the paper's figures ("SwitchV2P", "NoCache"…).
    fn name(&self) -> &'static str;

    /// Relative share of the aggregate cache budget a switch of this role
    /// receives: switch *i* gets `total * w_i / sum(w)` lines, so equal
    /// weights are the paper's homogeneous split ("the cache size per
    /// switch is 1/#switches of the total cache", §5) and unequal ones §4's
    /// heterogeneous allocation. A weight of 0, the default, means no cache
    /// lines: a weight above 0 is what marks where a scheme caches.
    fn cache_weight(&self, _role: SwitchRole) -> f64 {
        0.0
    }

    /// Builds the agent for one switch whose role weighs above 0; every
    /// other switch holds no agent and is never asked for. `role` is the
    /// switch's role at construction and only selects the agent type;
    /// `lines` is its direct-mapped cache capacity in entries (0 only when
    /// the whole budget is). A scheme that gives any role a weight above 0
    /// overrides this; the default, NoCache's, is never called.
    fn make_switch_agent(&self, role: SwitchRole, _lines: usize) -> Box<dyn SwitchAgent> {
        unreachable!(
            "{} weighs {role:?} above 0 but builds no switch agent: a scheme that \
             caches must override make_switch_agent",
            self.name()
        )
    }

    /// Builds the agent that sends for every server of a shard. Defaults
    /// to the plain gateway-driven host.
    fn make_host_agent(&self) -> Box<dyn HostAgent> {
        Box::new(GatewayHostAgent)
    }

    /// Misdelivery handling after VM migration. Defaults to the follow-me
    /// rule installed before the move (§3.3, §5.2).
    fn misdelivery_policy(&self) -> MisdeliveryPolicy {
        MisdeliveryPolicy::FollowMe
    }
}

/// The default host behavior of every gateway-driven scheme: always send
/// unresolved packets toward the per-flow gateway.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayHostAgent;

impl HostAgent for GatewayHostAgent {
    fn resolve(&mut self, _host: NodeId, _placement: &Placement, _dst_vip: Vip) -> HostResolution {
        HostResolution::Gateway
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_host_agent_always_defers() {
        let mut agent = GatewayHostAgent;
        let placement = Placement::default();
        for vip in 0..5 {
            assert_eq!(
                agent.resolve(NodeId(1), &placement, Vip(vip)),
                HostResolution::Gateway
            );
        }
    }

    #[test]
    fn output_constructors() {
        assert_eq!(AgentOutput::forward().action, PacketAction::Forward);
        assert!(!AgentOutput::forward().cache_hit);
        assert!(AgentOutput::forward_hit().cache_hit);
        assert_eq!(AgentOutput::consume().action, PacketAction::Consume);
    }
}
