//! Servable V2P control plane.
//!
//! SwitchV2P's premise is that the *data plane* caches V2P mappings in
//! network switches — but every cache needs an authority to fill and
//! invalidate it. This crate is that authority, as a servable library:
//!
//! * [`api`] — the batched, epoch-versioned request/reply vocabulary
//!   ([`CtlOp`]: `Lookup` / `Install` / `Invalidate` / `Migrate` /
//!   `Snapshot` / `Stats`).
//! * [`state`] — [`StripedControlPlane`], `RwLock`-striped concurrent state
//!   for serving many connections; its `execute_shared` is the one batch
//!   interpreter.
//! * [`service`] — [`LocalControlPlane`], the mapping table the simulator
//!   embeds: read by reference, written through `apply`.
//! * [`wire`] — a hand-rolled, deterministic, length-prefixed wire codec
//!   (no serde; canonical little-endian encoding, property-tested).
//! * [`transport`] — a `std::net` TCP server ([`CtlServer`]) and blocking
//!   client ([`CtlClient`]).
//!
//! Two binaries front the library: `sv2p-ctld` (the daemon) and
//! `sv2p-ctlbench` (a closed-loop load generator that checks the daemon's
//! counters against its own).
//!
//! The design invariant: the simulator and the served path keep their
//! mappings in the **same** [`sv2p_vnet::MappingDb`], so an op log sent
//! through the server ends in the state, epoch and counters that folding
//! it over one `MappingDb` gives (asserted by `tests/served_equiv.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod service;
pub mod state;
pub mod transport;
pub mod wire;

pub use api::{CtlOp, CtlReply, RejectReason, ReplyBatch, RequestBatch, ServiceStats};
pub use service::LocalControlPlane;
pub use state::{StripedControlPlane, DEFAULT_STRIPES};
pub use transport::{CtlClient, CtlServer};

use sv2p_packet::{Pip, Vip};

/// Where `sv2p-ctld` listens and `sv2p-ctlbench` connects unless told
/// otherwise with `--addr`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:5770";

/// The deterministic VIP for seeded-table slot `i` (shared by `sv2p-ctld`
/// and `sv2p-ctlbench` so a preloaded server answers the bench's keys).
pub fn seed_vip(i: u32) -> Vip {
    Vip(i)
}

/// The deterministic PIP initially mapped to seeded-table slot `i`.
pub fn seed_pip(i: u32) -> Pip {
    Pip(0x0A00_0000 | (i & 0x00FF_FFFF))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_layout_is_deterministic() {
        assert_eq!(seed_vip(5), Vip(5));
        assert_eq!(seed_pip(0), Pip(0x0A00_0000));
        assert_eq!(seed_pip(7), Pip(0x0A00_0007));
    }
}
