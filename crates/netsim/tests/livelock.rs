//! A VM migrates away from a server while a peer on that server still
//! sends to it. The old host forwards the misdelivered packets with its own
//! address as outer source — it *is* the sender — so its ToR must still
//! recognise them as misdeliveries, or it serves its stale entry again and
//! hands each packet back to the old host for ever.

use sv2p_netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_topology::FatTreeConfig;
use sv2p_vnet::Migration;
use switchv2p::{SwitchV2P, SwitchV2PConfig};

/// Stale hits the run may take. The ToR serves its stale entry to the
/// packets in flight until the first re-forward, tagged by the old host,
/// reaches it: 160 stale hits in this run. Untagged, every packet of the
/// flow loops between the host and its ToR until the horizon: 231 628.
const STALE_HIT_BOUND: u64 = 1_000;

#[test]
fn a_sender_on_the_old_host_of_its_migrated_peer_completes() {
    let cfg = SimConfig {
        // The horizon ends a livelocked run; a healthy one drains long
        // before it.
        end_of_time: Some(SimTime::from_millis(20)),
        ..SimConfig::default()
    };
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let mut sim = Engine::new(cfg, &FatTreeConfig::scaled_ft8(2), &strategy, 4096, 4);
    let (src, dst) = (0, 1);
    let (server, dst_vip) = {
        let p = sim.placement();
        assert_eq!(p.node_of(src), p.node_of(dst), "the two VMs share a server");
        (p.node_of(dst), p.vip_of(dst))
    };
    let target = sim.topology().servers().last().expect("a server");
    assert_ne!(target.id, server, "the move must leave the server");
    sim.add_flows([FlowSpec {
        src_vm: src,
        dst_vm: dst,
        start: SimTime::from_micros(10),
        kind: FlowKind::Tcp { bytes: 1_000_000 },
    }]);
    // Mid-flow: by then the old ToR has learnt the destination from its
    // ACKs and serves the flow's packets from its cache.
    sim.add_migration(Migration::new(
        SimTime::from_micros(80),
        dst_vip,
        target.id,
        target.pip,
    ));
    sim.run();

    let s = sim.summary();
    assert_eq!(s.migrations, 1);
    assert!(
        s.misdelivered_packets > 0,
        "the move must misdeliver: {s:?}"
    );
    assert_eq!(sim.flows_outstanding(), 0, "the flow must complete: {s:?}");
    assert!(
        s.stale_cache_hits < STALE_HIT_BOUND,
        "{} stale hits against {} invalidation packets",
        s.stale_cache_hits,
        s.invalidation_packets
    );
}
