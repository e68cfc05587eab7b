//! **SwitchV2P** — topology-aware in-network caching of virtual-to-physical
//! address mappings (Zeno, Chen, Silberstein; ACM SIGCOMM 2024).
//!
//! Virtual networks translate every tenant packet's virtual destination into
//! a physical address. Gateway-driven designs update mappings cheaply but add
//! a gateway detour to the data path; host-driven designs forward fast but
//! make updates expensive. SwitchV2P escapes the tradeoff by letting the
//! network switches *transparently cache* the mappings they observe in
//! passing traffic, entirely in the data plane:
//!
//! * every switch holds a small direct-mapped cache of `VIP → PIP` entries
//!   with one access bit per line ([`cache`]);
//! * switches behave by topology role (paper Table 1): gateway ToRs learn
//!   destinations and emit *learning packets* toward senders' ToRs; ToRs
//!   learn sources; spines learn destinations conservatively and *promote*
//!   hot entries to cores; cores admit only promotions ([`agent`]);
//! * evicted entries *spill over* onto passing packets so another switch can
//!   keep them;
//! * after a VM migration, *misdelivery tags* and targeted *invalidation
//!   packets* (rate-limited by a timestamp vector) lazily repair stale
//!   entries (§3.3).
//!
//! The [`SwitchV2P`] type implements `sv2p_vnet::Strategy`, pluggable into
//! the `sv2p-netsim` simulator next to the baselines in `sv2p-baselines`.
//!
//! ```
//! use switchv2p::{SwitchV2P, SwitchV2PConfig};
//! use sv2p_vnet::Strategy;
//!
//! let scheme = SwitchV2P::new(SwitchV2PConfig::default());
//! assert_eq!(scheme.name(), "SwitchV2P");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod cache;
pub mod config;
pub mod strategy;

pub use agent::{SwitchV2PAgent, BASE_RTT, P_LEARN};
pub use cache::{Admission, DirectMappedCache, InsertOutcome};
pub use config::{InvalidationMode, SwitchV2PConfig};
pub use strategy::SwitchV2P;
