//! A read of an [`Engine`] is a read: right whenever it is made — before
//! or after a `summary()`, at a pause or at the end — and changing
//! nothing, at one shard and at several.

use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_topology::FatTreeConfig;
use sv2p_vnet::Migration;
use switchv2p::SwitchV2P;

const FAULT_AT: SimTime = SimTime::from_micros(300);
const FAULT_END: SimTime = SimTime::from_micros(500);

/// 120 TCP flows, a loss window and a mid-run migration of a busy
/// destination, so every part of the ledger (windows, drops, stale
/// exposure, retransmissions) has something in it.
fn engine(shards: u16) -> Engine {
    let (ft, strategy) = (FatTreeConfig::scaled_ft8(2), SwitchV2P::default());
    let mut sim = Engine::new(SimConfig::default(), &ft, &strategy, 4096, 4, shards);
    assert_eq!(sim.shards() > 1, shards > 1, "the fabric must really shard");
    let vms = sim.placement().len();
    sim.add_flows((0..120).map(|i| FlowSpec {
        src_vm: (i * 7 + 1) % vms,
        dst_vm: if i % 4 == 0 { 0 } else { (i * 13 + 29) % vms },
        start: SimTime::from_micros(5 * i as u64),
        kind: FlowKind::Tcp {
            bytes: 20_000 + 997 * i as u64,
        },
    }));
    let loss = FaultEvent::LossRate {
        link: None,
        rate: 0.01,
        from: FAULT_AT,
        until: FAULT_END,
    };
    sim.apply_fault_plan(FaultPlan::from_events([loss]).expect("valid plan"));
    let (at, vip) = (SimTime::from_micros(250), sim.placement().vip_of(0));
    let to = sim.topology().servers().last().expect("servers exist");
    sim.add_migration(Migration::new(at, vip, to.id, to.pip));
    sim
}

/// Everything an experiment reads besides the summary.
fn reads(sim: &Engine) -> (Vec<u64>, Vec<u64>, String) {
    let pods = (0..2).map(|p| sim.pod_bytes(p)).collect();
    let switches = sim.per_switch_bytes().iter().map(|r| r.2).collect();
    let recovery = format!("{:?}", sim.recovery_report(FAULT_AT, FAULT_END));
    (pods, switches, recovery)
}

#[test]
fn reads_do_not_wait_for_a_summary() {
    for shards in [1, 4] {
        let mut sim = engine(shards);
        sim.run();
        let before = reads(&sim);
        assert!(before.0.iter().sum::<u64>() > 0, "pod bytes read 0");
        sim.summary();
        assert_eq!(before, reads(&sim), "shards {shards}");
    }
}

#[test]
fn a_second_summary_is_byte_equal_to_the_first() {
    for shards in [1, 4] {
        let mut sim = engine(shards);
        sim.run();
        let first = format!("{:?}", sim.summary());
        assert_eq!(first, format!("{:?}", sim.summary()), "shards {shards}");
    }
}

#[test]
fn a_summary_at_a_pause_freezes_nothing() {
    for shards in [1, 4] {
        let mut straight = engine(shards);
        straight.run();
        let expected = format!("{:?}", straight.summary());

        let mut paused = engine(shards);
        paused.run_until(SimTime::from_micros(50));
        assert!(paused.summary().data_packets_sent > 0);
        paused.run();
        let end = paused.summary();
        assert!(end.stale_cache_hits > 0 && end.retransmissions > 0);
        assert!(end.data_packets_delivered <= end.data_packets_sent);
        assert_eq!(expected, format!("{end:?}"), "shards {shards}");
    }
}
