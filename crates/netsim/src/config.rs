//! What an experiment varies. The paper's §5 set-up is not here: each of
//! its values is a constant beside the code that reads it
//! (`PORT_BUFFER_BYTES`, `MISDELIVERY_PENALTY` and the TCP profile in `sim`,
//! `sv2p_vnet::GATEWAY_PROCESSING`, `switchv2p::BASE_RTT`).

use sv2p_simcore::SimTime;

/// Parameters an experiment sets.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Experiment seed; forked into independent per-component streams.
    pub seed: u64,
    /// Gateway overload model: how many packets may wait for translation
    /// while one is in service. `0` (the default, and every figure but
    /// `churn`) models an infinitely parallel gateway — every packet is
    /// translated after exactly `GATEWAY_PROCESSING`. A non-zero cap turns
    /// each gateway into a single-server queue that sheds arrivals (drop
    /// cause `gateway-shed`) once the queue is full.
    pub gateway_queue_cap: u32,
    /// Record the per-(src,dst) packet matrix (Controller baseline input).
    pub record_traffic_matrix: bool,
    /// Hard stop; events after this instant are not executed.
    pub end_of_time: Option<SimTime>,
    /// Structured tracing and time-series sampling (off by default; when
    /// off the layer costs one branch per emission point).
    pub telemetry: bool,
    /// Engine self-profiling: wall-clock phase timers + occupancy
    /// histograms (off by default; when off the profiler costs one branch
    /// per phase boundary and the engines never read the host clock).
    /// Profiling never alters simulation state — a profiled run's traces
    /// and summaries are byte-identical to an unprofiled run's.
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            gateway_queue_cap: 0,
            record_traffic_matrix: false,
            end_of_time: None,
            telemetry: false,
            profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{MISDELIVERY_PENALTY, PORT_BUFFER_BYTES};
    use sv2p_simcore::SimDuration;
    use sv2p_transport::TcpConfig;

    #[test]
    fn defaults_match_paper_setup() {
        assert_eq!(sv2p_vnet::GATEWAY_PROCESSING, SimDuration::from_micros(40));
        assert_eq!(PORT_BUFFER_BYTES, 32 * 1024 * 1024);
        assert_eq!(switchv2p::BASE_RTT, SimDuration::from_micros(12));
        assert_eq!(MISDELIVERY_PENALTY, SimDuration::from_micros(10));
        assert_eq!(TcpConfig::reorder_tolerant().dupack_threshold, 300);
        assert_eq!(SimConfig::default().gateway_queue_cap, 0);
    }
}
