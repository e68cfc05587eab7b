//! Discrete-event simulation core for the SwitchV2P reproduction.
//!
//! This crate replaces the NS3 scheduler used by the paper's artifact with a
//! small, deterministic, single-threaded event engine:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution.
//! * [`EventQueue`] — a timing-wheel calendar with stable FIFO ordering
//!   among simultaneous events, so runs are bit-for-bit repeatable.
//! * [`FxHashMap`] / [`FxHashSet`] — seedless deterministic fast hashing
//!   for hot per-packet maps (std's SipHash + random seed is the wrong
//!   trade inside a simulator).
//! * [`Divisor`] — an exact `%` by a divisor fixed at construction, by a
//!   multiply instead of a hardware divide.
//! * [`SimRng`] — a seedable, splittable pseudo-random stream so that every
//!   component draws from an independent, reproducible sequence.
//!
//! The calendar is synchronous, and one calendar orders a whole run: the
//! several shards of `sv2p-netsim`'s `Engine` take their events from it one
//! at a time, under the same `(time, seq)` keys as one shard. Parallelism
//! lives one level up, across runs — see the `sv2p-bench` crate.
//!
//! ```
//! use sv2p_simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_at(SimTime::from_micros(40), "gateway done");
//! q.schedule_in(SimDuration::from_micros(1), "link arrival");
//! let first = q.pop().unwrap();
//! assert_eq!(first.payload, "link arrival");
//! assert_eq!(q.now(), SimTime::from_micros(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod div;
pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use div::Divisor;
pub use event::{EventQueue, ScheduledEvent};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
