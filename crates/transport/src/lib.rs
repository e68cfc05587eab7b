//! Transport state machines for the packet-level simulator.
//!
//! The paper's FCT results ride on NS3's TCP; here a compact, well-tested
//! window-based TCP stands in:
//!
//! * [`TcpSender`] — slow start, congestion avoidance, NewReno-style fast
//!   retransmit/recovery, RFC 6298 RTO with Karn's algorithm, configurable
//!   duplicate-ACK threshold (the paper leans on Linux's tolerance of up to
//!   300 reordered packets, §4 — `TcpConfig::reorder_tolerant` mirrors that);
//! * [`TcpReceiver`] — cumulative ACKing over an interval set, with
//!   reordering detection for the §4 reordering analysis;
//! * [`udp`] — constant-bit-rate and burst schedules for the Video,
//!   Microbursts, and incast workloads.
//!
//! Everything is sans-IO: state machines emit segment descriptors and timer
//! deadlines; the host model in `sv2p-netsim` turns them into packets.
//!
//! ```
//! use sv2p_simcore::SimTime;
//! use sv2p_transport::{TcpConfig, TcpReceiver, TcpSender};
//!
//! let mut tx = TcpSender::new(TcpConfig::default(), 2_500);
//! let mut rx = TcpReceiver::new();
//! let now = SimTime::ZERO;
//! // The initial window covers the whole 2.5 kB flow (3 segments).
//! let ops = tx.start(now);
//! assert_eq!(ops.segments.len(), 3);
//! for seg in ops.segments {
//!     let ack = rx.on_data(seg.seq, seg.len);
//!     tx.on_ack(now, ack);
//! }
//! assert!(tx.is_complete());
//! assert_eq!(rx.bytes_delivered, 2_500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tcp;
pub mod udp;

pub use tcp::{Segment, SenderOps, TcpConfig, TcpReceiver, TcpSender};
pub use udp::UdpSchedule;
