//! Packet model and wire format for the SwitchV2P reproduction.
//!
//! SwitchV2P tunnels tenant packets IPv4-in-IPv4 (RFC 1853) and piggybacks its
//! protocol state — spillover mappings, promotions, misdelivery tags, the
//! hit-switch identifier — in tunnel-header options, the way the paper uses
//! the Geneve option field. This crate provides:
//!
//! * [`addr`] — virtual ([`Vip`]) and physical ([`Pip`]) address types;
//! * [`packet`] — the structured [`Packet`] the simulator moves around;
//! * [`options`] — the typed tunnel options ([`TunnelOptions`]);
//! * [`wire`] — a byte-level encode/decode of the full outer + shim + inner
//!   layout over plain slices, round-trip property-tested, so every
//!   piggybacked field provably fits an on-wire representation. It owns the
//!   layout's sizes: [`Packet::wire_size`], [`TunnelOptions::wire_len`] and
//!   `sv2p-p4model`'s PHV read its constants ([`wire::HEADER_OVERHEAD`]).
//!   In a debug build the simulator also runs every packet it forwards
//!   through it (`certify_wire` in `sv2p-netsim`'s `sim.rs`): the encoding
//!   must be exactly [`Packet::wire_size`] bytes and decode to a wire-equal
//!   packet.
//!
//! The simulator itself forwards structured packets (parsing per hop would
//! only burn cycles, so a release build never encodes one), but the wire
//! module keeps the protocol honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod options;
pub mod packet;
pub mod wire;

pub use addr::{Pip, SwitchTag, Vip};
pub use options::{MappingOption, MisdeliveryTag, TunnelOptions};
pub use packet::{FlowId, InnerHeader, OuterHeader, Packet, PacketId, PacketKind, TcpFlags};
