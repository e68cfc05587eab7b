//! Failure injection and robustness: the paper claims SwitchV2P's caches
//! are purely opportunistic — "switch failures do not affect the
//! correctness of packet forwarding" (§1/§2.1). These tests reboot switches
//! mid-run and check that nothing but performance can change.

use switchv2p_repro::baselines::NoCache;
use switchv2p_repro::core::SwitchV2P;
use switchv2p_repro::netsim::{FlowKind, FlowSpec, SimConfig, Engine};
use switchv2p_repro::simcore::{SimDuration, SimTime};
use switchv2p_repro::topology::FatTreeConfig;
use switchv2p_repro::traces::{hadoop, HadoopConfig};
use switchv2p_repro::vnet::{Migration, Strategy};

fn workload(vms: usize, flows: usize) -> Vec<FlowSpec> {
    hadoop(&HadoopConfig {
        vms,
        flows,
        hosts: 128,
        ..HadoopConfig::default()
    })
    .into_iter()
    .map(|f| FlowSpec {
        src_vm: f.src_vm,
        dst_vm: f.dst_vm,
        start: SimTime::from_nanos(f.start_ns),
        kind: FlowKind::Tcp { bytes: f.bytes() },
    })
    .collect()
}

#[test]
fn reboot_storm_does_not_affect_correctness() {
    // Run the same workload twice: once undisturbed, once with every switch
    // cache wiped repeatedly mid-run. All flows must still complete and
    // deliver the same bytes; only latency may differ.
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = SwitchV2P::default();

    let run = |reboots: bool| {
        let mut sim = Engine::new(SimConfig::default(), &ft, &strategy, 256, 4);
        let vms = sim.placement().len();
        sim.add_flows(workload(vms, 600));
        if reboots {
            let mut t = SimTime::from_micros(200);
            for _ in 0..5 {
                sim.run_until(t);
                sim.fail_all_switches();
                t += SimDuration::from_micros(200);
            }
        }
        sim.run();
        sim.summary()
    };

    let clean = run(false);
    let stormy = run(true);
    assert_eq!(clean.flows, clean.flows_completed);
    assert_eq!(stormy.flows, stormy.flows_completed, "{stormy:?}");
    // Every tenant byte still arrives (completion implies full delivery);
    // exact packet counts may differ because timing and retransmissions do.
    assert_eq!(clean.flows, stormy.flows);
    // Reboots may shift performance either way (cold caches vs. retries
    // re-hitting warmed ones) but the system keeps functioning.
    assert!(stormy.hit_rate > 0.0 && clean.hit_rate > 0.0);
}

#[test]
fn single_switch_failure_is_invisible_to_tenants() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = SwitchV2P::default();
    let mut sim = Engine::new(SimConfig::default(), &ft, &strategy, 256, 4);
    let vms = sim.placement().len();
    sim.add_flows(workload(vms, 300));
    sim.run_until(SimTime::from_micros(300));
    let victims: Vec<_> = sim.topology().switches().map(|n| n.id).take(4).collect();
    for v in victims {
        sim.fail_switch(v);
    }
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows, s.flows_completed);
    assert_eq!(s.packets_dropped, 0);
}

#[test]
fn migration_under_switchv2p_loses_no_packets_with_tcp() {
    // A TCP flow spanning a migration: misdeliveries are re-forwarded, TCP
    // fills any gaps, and every byte lands exactly once.
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = SwitchV2P::default();
    let mut sim = Engine::new(SimConfig::default(), &ft, &strategy, 256, 4);
    let dst_vm = 3usize;
    let vip = sim.placement().vip_of(dst_vm);
    let target = sim
        .topology()
        .servers()
        .last()
        .map(|n| (n.id, n.pip))
        .unwrap();
    sim.add_flows([FlowSpec {
        src_vm: sim.placement().len() - 1,
        dst_vm,
        start: SimTime::ZERO,
        kind: FlowKind::Tcp { bytes: 2_000_000 },
    }]);
    sim.add_migration(Migration::new(
        SimTime::from_micros(120),
        vip,
        target.0,
        target.1,
    ));
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, 1, "{s:?}");
    assert!(s.misdelivered_packets > 0, "migration mid-flow must misdeliver");
}

#[test]
fn smaller_caches_mean_more_reordering() {
    // §4: "we observed increased packet reordering in configurations with
    // smaller cache sizes, but it is rare with larger caches."
    let ft = FatTreeConfig::scaled_ft8(2);
    let run = |seed: u64, cache: usize| {
        let strategy = SwitchV2P::default();
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = Engine::new(cfg, &ft, &strategy, cache, 4);
        let vms = sim.placement().len();
        sim.add_flows(workload(vms, 800));
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows, s.flows_completed);
        (s.reordered_segments, s.retransmissions, s.data_packets_sent)
    };
    for seed in 1..=8 {
        let (reorder_small, rtx_small, sent_small) = run(seed, 8);
        let (reorder_large, _, _) = run(seed, 2048);
        assert!(
            reorder_small >= reorder_large,
            "seed {seed}: small-cache reordering {reorder_small} < large-cache {reorder_large}"
        );
        // The reorder-tolerant TCP profile must absorb it without
        // (significant) spurious retransmissions. They come as one
        // go-back-N burst of a few dozen segments or not at all, so the
        // bound is a share of the traffic, held on every seed: 0.1 %.
        assert!(
            rtx_small * 1000 < sent_small,
            "seed {seed}: reordering caused {rtx_small} retransmissions in {sent_small} packets \
             despite RACK-style tolerance"
        );
    }
}

#[test]
fn nocache_and_switchv2p_deliver_identical_byte_counts() {
    // Translation schemes must be invisible at the transport layer.
    let ft = FatTreeConfig::scaled_ft8(2);
    let deliver = |strategy: &dyn Strategy, cache: usize| {
        let mut sim = Engine::new(SimConfig::default(), &ft, strategy, cache, 4);
        let vms = sim.placement().len();
        sim.add_flows(workload(vms, 400));
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows, s.flows_completed);
        s.flows
    };
    assert_eq!(deliver(&NoCache, 0), deliver(&SwitchV2P::default(), 256));
}
