//! Flow specifications and runtime flow state.

use sv2p_packet::FlowId;
use sv2p_simcore::SimTime;
use sv2p_transport::{TcpReceiver, TcpSender, UdpSchedule};

/// What kind of traffic a flow carries.
#[derive(Debug, Clone)]
pub enum FlowKind {
    /// A TCP transfer of `bytes` (Hadoop / WebSearch / Alibaba RPCs).
    Tcp {
        /// Flow size in bytes.
        bytes: u64,
    },
    /// A UDP flow following a precomputed schedule (Video / Microbursts /
    /// incast).
    Udp {
        /// When each datagram leaves the sender.
        schedule: UdpSchedule,
    },
}

/// One flow of the workload, as produced by the trace generators.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Sending VM (index into the placement).
    pub src_vm: usize,
    /// Destination VM (index into the placement).
    pub dst_vm: usize,
    /// When the flow starts.
    pub start: SimTime,
    /// Payload profile.
    pub kind: FlowKind,
}

impl FlowSpec {
    pub(crate) fn is_tcp(&self) -> bool {
        matches!(self.kind, FlowKind::Tcp { .. })
    }

    /// Datagrams in the UDP schedule (0 for TCP flows).
    pub(crate) fn udp_total(&self) -> usize {
        match &self.kind {
            FlowKind::Udp { schedule } => schedule.len(),
            FlowKind::Tcp { .. } => 0,
        }
    }
}

/// Source port of flow `flow` (gives distinct ECMP keys per flow).
pub(crate) fn src_port(flow: FlowId) -> u16 {
    1024 + (flow.0 % 50_000) as u16
}

/// A flow's transport state as one shard holds it. The sender side evolves
/// where ACKs are delivered (the source VM's host), the receiver side on
/// the destination VM's host, so a flow is live on at most two shards;
/// when a migration re-homes an endpoint the state moves with it.
#[derive(Debug, Default)]
pub(crate) struct FlowXport {
    /// TCP sender machine (None for UDP flows, and before the flow starts).
    pub tcp_tx: Option<TcpSender>,
    /// TCP receiver machine.
    pub tcp_rx: TcpReceiver,
    /// Retransmission-timer generation: each arm bumps it, and a pending
    /// `RtoTimer` event only fires if it still carries the current value.
    /// A plain counter, so the whole timer state travels with the flow
    /// when a migration moves it to another shard; it may wrap, since only
    /// equality with the one pending event is ever asked.
    pub rto_gen: u32,
    /// Datagrams delivered so far (UDP completion tracking).
    pub udp_delivered: usize,
    pub completed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_simcore::SimDuration;

    #[test]
    fn udp_flow_tracks_schedule_length() {
        let schedule = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_micros(500),
            48_000_000,
            1000,
        );
        let n = schedule.len();
        let f = FlowSpec {
            src_vm: 0,
            dst_vm: 1,
            start: SimTime::ZERO,
            kind: FlowKind::Udp { schedule },
        };
        assert!(!f.is_tcp());
        assert_eq!(f.udp_total(), n);
    }

    #[test]
    fn ports_are_flow_distinct() {
        assert_ne!(src_port(FlowId(1)), src_port(FlowId(2)));
    }
}
