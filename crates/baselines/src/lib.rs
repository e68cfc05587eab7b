//! The baseline V2P translation systems of the paper's §5 evaluation.
//!
//! | Baseline | Paper reference | Where mappings live |
//! |---|---|---|
//! | [`NoCache`] | Andromeda's Hoverboard w/o offloading | gateways only |
//! | [`LocalLearning`] | §3.1's strawman | every switch, local greedy |
//! | [`GwCache`] | Sailfish | gateway ToR switches |
//! | [`Bluebird`] | Bluebird (NSDI'22) | ToR route caches + switch control plane |
//! | [`OnDemand`] | VL2 / Hoverboard immediate offload / Achelous ALM | sender hosts, filled on first miss |
//! | [`Direct`] | preprogrammed host-driven | all sender hosts |
//! | [`controller`] | Appendix A.1/A.2 ILP | switches, centrally installed |
//!
//! Each implements `sv2p_vnet::Strategy` and plugs into the same simulator
//! as SwitchV2P itself. The trait's defaults are NoCache, so each states
//! only where it caches (`cache_weight`) and which agents it runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bluebird;
pub mod controller;
pub mod gwcache;
pub mod hostside;
pub mod local_learning;
pub mod nocache;

pub use bluebird::Bluebird;
pub use controller::{Controller, ControllerDriver};
pub use gwcache::GwCache;
pub use hostside::{Direct, OnDemand};
pub use local_learning::LocalLearning;
pub use nocache::NoCache;
