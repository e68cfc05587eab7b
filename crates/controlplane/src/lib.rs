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
//! * [`wire`] — a hand-rolled, deterministic, length-prefixed wire codec
//!   (no serde; canonical little-endian encoding, property-tested).
//! * [`transport`] — a `std::net` TCP server ([`CtlServer`]) and blocking
//!   client ([`CtlClient`]).
//!
//! Two binaries front the library: `sv2p-ctld` (the daemon) and
//! `sv2p-ctlbench` (a closed-loop load generator that checks the daemon's
//! counters against its own).
//!
//! The design invariant: an op log sent through the server ends in the
//! state, epoch and counters that folding it over one
//! [`sv2p_vnet::MappingDb`] gives (asserted by `tests/served_equiv.rs`).
//! The simulator shares nothing with this crate: its VIPs are dense, so its
//! ground truth is `sv2p_vnet::Placement`, and it keeps no table to serve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod state;
pub mod transport;
pub mod wire;

pub use api::{CtlOp, CtlReply, RejectReason, ReplyBatch, RequestBatch, ServiceStats};
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
