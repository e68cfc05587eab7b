//! RTO-driven recovery: the sender behavior the fault-injection subsystem
//! leans on when a blackout or outage eats entire windows of packets.

use sv2p_simcore::SimTime;
use sv2p_transport::{TcpConfig, TcpSender};

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

#[test]
fn total_blackout_recovers_via_backed_off_rtos() {
    let cfg = TcpConfig::reorder_tolerant();
    let mut tx = TcpSender::new(cfg, 3 * cfg.mss as u64);
    let ops = tx.start(SimTime::ZERO);
    assert!(!ops.segments.is_empty());
    let first_deadline = ops.arm_rto.expect("initial window arms the timer");

    // The network is dark: every RTO must retransmit the lowest
    // unacknowledged byte and back the timer off exponentially (clamped),
    // never giving up.
    let mut now = first_deadline;
    let mut last_gap = None;
    for round in 0..8 {
        let ops = tx.on_rto(now);
        assert_eq!(ops.segments.len(), 1, "round {round}");
        let seg = ops.segments.into_iter().next().expect("one segment");
        assert_eq!(seg.seq, 0, "una is what gets retransmitted");
        assert!(seg.retransmit);
        let deadline = ops.arm_rto.expect("timer must be re-armed");
        let gap = deadline.as_nanos() - now.as_nanos();
        if let Some(prev) = last_gap {
            assert!(gap >= prev, "backoff must not shrink while dark");
        }
        assert!(
            gap <= cfg.max_rto.as_nanos(),
            "backoff must clamp at max_rto"
        );
        last_gap = Some(gap);
        now = deadline;
    }
    assert_eq!(tx.timeouts, 8);
    assert!(tx.retransmits >= 8);
    assert!(!tx.is_complete());

    // The fault clears: the receiver finally acks everything in order and
    // the flow completes despite the long outage.
    let ops = tx.on_ack(
        now + sv2p_simcore::SimDuration::from_micros(10),
        3 * cfg.mss as u64,
    );
    assert!(tx.is_complete());
    assert!(ops.segments.is_empty());
}

#[test]
fn partial_loss_window_resumes_where_it_left_off() {
    let cfg = TcpConfig::reorder_tolerant();
    let mut tx = TcpSender::new(cfg, 20 * cfg.mss as u64);
    let ops = tx.start(SimTime::ZERO);
    let sent: u64 = ops.segments.map(|s| s.len as u64).sum();
    assert!(sent > 0);

    // One MSS got through before the loss window; the rest vanished.
    let _ = tx.on_ack(us(100), cfg.mss as u64);
    let ops = tx.on_rto(us(1_500));
    let seg = ops.segments.into_iter().next().expect("a retransmission");
    assert_eq!(seg.seq, cfg.mss as u64, "resumes at new una");
    assert!(seg.retransmit);

    // Post-fault acks drain the flow to completion.
    let mut now = us(2_000);
    let mut acked = 2 * cfg.mss as u64;
    let mut guard = 0;
    while !tx.is_complete() {
        acked = (acked + cfg.mss as u64).min(20 * cfg.mss as u64);
        let _ = tx.on_ack(now, acked);
        now += sv2p_simcore::SimDuration::from_micros(20);
        guard += 1;
        assert!(guard < 1000, "sender must converge after the fault");
    }
    assert!(tx.timeouts >= 1);
}
