//! Umbrella crate for the SwitchV2P reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests (and downstream users who want the whole system) can
//! depend on a single package:
//!
//! * [`core`] — the SwitchV2P protocol (the paper's contribution);
//! * [`baselines`] — NoCache, LocalLearning, GwCache, Bluebird, OnDemand,
//!   Direct, Controller;
//! * [`netsim`] — the packet-level data-center simulator;
//! * [`topology`] — FatTree topologies and ECMP routing;
//! * [`vnet`] — the virtual-network substrate (mappings, gateways,
//!   migration, strategy traits);
//! * [`transport`] — TCP/UDP models;
//! * [`traces`] — the §5 workload generators;
//! * [`metrics`] — measurement and summaries;
//! * [`packet`] — packet model and wire format;
//! * [`simcore`] — the discrete-event engine;
//! * [`telemetry`] — event tracing, sampling, run manifests, self-profiles
//!   (`*.profile.jsonl`), and the `sv2p trace|profile` inspector;
//! * [`controlplane`] — the servable V2P control plane (`sv2p-ctld`);
//! * [`ilp`] — cache-placement optimization (Controller baseline);
//! * [`p4model`] — the Tofino resource model (Table 6).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment map.

#![forbid(unsafe_code)]

pub use sv2p_baselines as baselines;
pub use sv2p_ilp as ilp;
pub use sv2p_metrics as metrics;
pub use sv2p_netsim as netsim;
pub use sv2p_p4model as p4model;
pub use sv2p_packet as packet;
pub use sv2p_simcore as simcore;
pub use sv2p_telemetry as telemetry;
pub use sv2p_topology as topology;
pub use sv2p_traces as traces;
pub use sv2p_transport as transport;
pub use sv2p_vnet as vnet;
pub use switchv2p as core;
pub use v2p_controlplane as controlplane;
