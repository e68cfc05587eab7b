//! Observability layer for the SwitchV2P reproduction.
//!
//! Four machine-readable surfaces, all JSONL (one JSON object per line,
//! hand-rolled because the vendored `serde` is a marker-only stub):
//!
//! * **Traces** — [`TraceEvent`]s recorded by the simulator at every
//!   packet-lifecycle point (send, switch ingress, cache lookup, gateway
//!   detour, misdelivery, delivery, drop) and at every cache mutation
//!   (insert/evict/invalidate/spillover/promotion), keyed by flow id,
//!   switch id and virtual time. Collected by a [`Tracer`]: a boolean gate
//!   plus a bounded ring buffer, so a disabled tracer costs one branch per
//!   emission point and allocates nothing.
//! * **Samples** — periodic [`Sample`] snapshots of queue depths, per-layer
//!   cache occupancy, windowed hit rate and gateway load, driven by a
//!   virtual-time timer inside the simulator (zero events when disabled).
//! * **Manifests** — one [`RunManifest`] per experiment run, recording what
//!   ran (strategy, topology, seed, config) and how fast (wall-clock,
//!   events processed, events/sec, peak calendar-queue size). Wall-clock
//!   time appears *only* here; traces and samples carry virtual time
//!   exclusively, which is what makes same-seed runs byte-identical.
//!
//! * **Profiles** — engine self-profiling reports ([`profile`]): wall-clock
//!   phase accounting and log-linear histograms, emitted as
//!   `*.profile.jsonl` by `--profile DIR`. Like manifests, wall-clock
//!   lives only here; the deterministic counter
//!   sections are pinned by the same byte-identity discipline as traces.
//!
//! The `sv2p` binary (this crate's `src/bin/`) inspects them: `sv2p trace`
//! filters trace files by flow/switch/kind and reconstructs a packet's
//! hop-by-hop path with per-hop latency (the reusable logic lives in
//! [`inspect`]); `sv2p profile` renders a profile report as a
//! phase-breakdown table with histogram tails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Defines one wire vocabulary: the enum, its `ALL` list in wire order,
/// `as_str`, and `parse` as the inverse over `ALL`. Every name a trace or
/// profile line can carry is written down exactly once, in one such table
/// ([`event`]'s four and [`profile`]'s two); the simulator maps its own
/// enums onto these with exhaustive matches (`sv2p-netsim`'s `sim.rs`).
macro_rules! wire_names {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $wire:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every value, in wire order (inspector summaries iterate this
            /// so output order never depends on hash-map iteration).
            pub const ALL: [$name; [$($wire),+].len()] = [$($name::$variant),+];

            /// Stable wire name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)+
                }
            }

            /// Inverse of [`Self::as_str`].
            pub fn parse(s: &str) -> Option<$name> {
                Self::ALL.into_iter().find(|v| v.as_str() == s)
            }
        }
    };
}

pub mod event;
pub mod inspect;
pub mod json;
pub mod manifest;
pub mod profile;

pub use event::{Cause, EventKind, Layer, Op, Sample, TraceEvent, Tracer, SAMPLE_EVERY_NS};
pub use inspect::{parse_events, reconstruct_path, Hop, PathReport};
pub use manifest::RunManifest;
pub use profile::{
    deterministic_projection, HistKind, Histogram, Phase, ProfileDoc, ProfileMeta, Profiler,
};
