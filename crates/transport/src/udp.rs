//! UDP send schedules.
//!
//! The Video trace is constant-bit-rate ("64 senders at 48 Mbps"), the
//! Microbursts trace is bursts of back-to-back datagrams, and the migration
//! experiment is a steady incast. None need feedback, so a schedule — the
//! list of (send time, payload) pairs — is the whole transport.

use sv2p_simcore::{SimDuration, SimTime};

/// A precomputed datagram schedule for one UDP flow.
#[derive(Debug, Clone, Default)]
pub struct UdpSchedule {
    /// (send time, payload bytes) in nondecreasing time order.
    pub sends: Vec<(SimTime, u32)>,
}

impl UdpSchedule {
    /// Constant bit rate: `rate_bps` of payload from `start` for `duration`,
    /// in `payload`-byte datagrams (the last one may be short).
    pub fn cbr(start: SimTime, duration: SimDuration, rate_bps: u64, payload: u32) -> Self {
        assert!(payload > 0 && rate_bps > 0);
        let total_bytes =
            (rate_bps as u128 * duration.as_nanos() as u128 / 8 / 1_000_000_000) as u64;
        let interval = SimDuration::from_secs_f64(payload as f64 * 8.0 / rate_bps as f64);
        let mut sends = Vec::new();
        let mut sent = 0u64;
        let mut t = start;
        while sent < total_bytes {
            let len = payload.min((total_bytes - sent) as u32);
            sends.push((t, len));
            sent += len as u64;
            t += interval;
        }
        UdpSchedule { sends }
    }

    /// A burst of `count` back-to-back datagrams at `at`, spaced by the
    /// sender NIC's serialization time.
    pub fn burst(at: SimTime, count: u32, payload: u32, nic_bps: u64) -> Self {
        let gap = SimDuration::serialization(payload + sv2p_packet::wire::HEADER_OVERHEAD, nic_bps);
        let sends = (0..count)
            .map(|i| (at + gap.saturating_mul(i as u64), payload))
            .collect();
        UdpSchedule { sends }
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.sends.iter().map(|&(_, b)| b as u64).sum()
    }

    /// Number of datagrams.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_hits_target_rate() {
        // 48 Mbps for 10 ms = 60 kB.
        let s = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_millis(10),
            48_000_000,
            1000,
        );
        assert_eq!(s.total_bytes(), 60_000);
        assert_eq!(s.len(), 60);
        // Inter-packet gap = 1000*8/48e6 s = 166.67 us.
        let gap = s.sends[1].0 - s.sends[0].0;
        assert!((gap.as_micros_f64() - 166.67).abs() < 0.5, "gap {gap}");
    }

    #[test]
    fn cbr_short_tail() {
        let s = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_micros(250),
            48_000_000,
            1000,
        );
        // 1500 B total -> 1000 + 500.
        assert_eq!(s.total_bytes(), 1500);
        assert_eq!(s.sends.len(), 2);
        assert_eq!(s.sends[1].1, 500);
    }

    #[test]
    fn burst_is_back_to_back_at_line_rate() {
        let s = UdpSchedule::burst(SimTime::from_micros(5), 10, 1000, 100_000_000_000);
        assert_eq!(s.len(), 10);
        let gap = s.sends[1].0 - s.sends[0].0;
        // (1000+60) B at 100G = 84.8 ns, rounded up.
        assert_eq!(gap.as_nanos(), 85);
        assert_eq!(s.sends[9].0, SimTime::from_micros(5) + gap * 9);
    }

    #[test]
    fn empty_schedule() {
        let s = UdpSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s.total_bytes(), 0);
    }
}
