//! The packet-level network data plane: what NS3 provided for the paper.
//!
//! An [`Engine`] wires together:
//!
//! * the FatTree topology and ECMP routing (`sv2p-topology`);
//! * store-and-forward links with per-egress-port drop-tail queues
//!   ([`link`]);
//! * switches that run a per-switch [`sv2p_vnet::SwitchAgent`] fabricated by
//!   the experiment's [`sv2p_vnet::Strategy`] (SwitchV2P or any baseline)
//!   where the scheme's cache weight for their role is above 0, and only
//!   forward everywhere else;
//! * servers that drive TCP/UDP flows ([`flows`]) through the shard's one
//!   [`sv2p_vnet::HostAgent`], deliver to hosted VMs, and re-forward
//!   misdeliveries;
//! * translation gateways with the paper's 40 µs processing delay;
//! * VM migrations with follow-me rules (§5.2);
//! * full metrics recording (`sv2p-metrics`).
//!
//! The simulator is strategy-agnostic: nothing in this crate knows how
//! SwitchV2P caches — it only honors the [`sv2p_vnet::AgentOutput`] verdicts.
//!
//! # One engine
//!
//! [`Engine`] is the only engine. It holds
//!
//! * the immutable **world** (`world::World`: topology, each link class's
//!   serialization table, routing, gateway directory, switch tags, caching
//!   flags, strategy name and misdelivery policy, partition), built once
//!   and shared behind an `Arc`;
//! * one copy of the **control state** (`world::Control`: the placement,
//!   which is the V2P ground truth, follow-me rules, roles, fault flags,
//!   flow specs and the migration/fault/churn tables), which only global
//!   events and between-run interventions write;
//! * a `Vec` of shard-owned **model state** (`sim::Shard`: links, agents,
//!   RNG streams, transport machines and gateway queues), one per shard of
//!   the pod partition;
//! * the driver's **master** (`effects::Master`: the one calendar, the one
//!   packet arena and the run's one set of recorders — the order-free
//!   `sv2p_metrics::Counters` ledger, the traffic matrix, the
//!   order-sensitive `sv2p_metrics::Metrics` and the tracer).
//!
//! Handlers (`sim`) take the world and the control state by reference and
//! write everything they record, and every packet body, to the master, on
//! the spot. Every event sits on its calendar under the same
//! `(time, seq)` key at every shard count; with several shards (`sharded`,
//! an equivalence oracle) they interleave event by event, each event
//! running on the shard that owns it, and a packet whose link ends on
//! another shard stays in the one arena, its arrival on the one calendar.
//! Everything runs on the caller's thread. `shards` is the only selector.
//!
//! [`Engine::counters`] reads the master's ledger afresh on each call, with
//! the running TCP machines' statistics added, and [`Engine::summary`]
//! derives from that and the master's `sv2p_metrics::Metrics`: reads take
//! `&self`, are valid at any pause of the run, and never depend on another
//! read having been made first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod churn;
pub mod config;
mod effects;
pub mod engine;
pub mod faults;
pub mod flows;
pub mod link;
mod sharded;
mod sim;
mod world;

pub use arena::{PacketArena, PacketRef};
pub use churn::{ChurnMark, ChurnPlan, ChurnSpec};
pub use config::SimConfig;
pub use engine::Engine;
pub use faults::{FaultEvent, FaultPlan};
pub use flows::{FlowKind, FlowSpec};
