//! End-to-end behavior of each baseline inside the full simulator: the
//! defining property of every §5 comparison system, checked on a small
//! FatTree.

use sv2p_baselines::{Bluebird, Direct, GwCache, LocalLearning, NoCache, OnDemand};
use sv2p_netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_topology::FatTreeConfig;
use sv2p_traces::{hadoop, HadoopConfig};
use sv2p_vnet::Strategy;

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

fn run(strategy: &dyn Strategy, cache: usize, flows: usize) -> sv2p_metrics::RunSummary {
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(SimConfig::default(), &ft, strategy, cache, 4);
    let vms = sim.placement().len();
    sim.add_flows(workload(vms, flows));
    sim.run();
    sim.summary()
}

#[test]
fn nocache_sends_every_packet_through_gateways() {
    let s = run(&NoCache, 0, 300);
    assert_eq!(s.flows, s.flows_completed);
    assert_eq!(s.gateway_packets, s.data_packets_sent);
    assert_eq!(s.hit_rate, 0.0);
}

#[test]
fn direct_never_touches_gateways() {
    let s = run(&Direct, 0, 300);
    assert_eq!(s.flows, s.flows_completed);
    assert_eq!(s.gateway_packets, 0);
    // Direct paths are the stretch floor among all schemes.
    let nocache = run(&NoCache, 0, 300);
    assert!(s.avg_stretch < nocache.avg_stretch);
}

#[test]
fn ondemand_pays_the_detour_once_per_destination() {
    let s = run(&OnDemand, 0, 300);
    assert_eq!(s.flows, s.flows_completed);
    // Only first-to-a-destination packets reach gateways: far fewer than
    // total, far more than zero (each (host, dst) pair misses once).
    assert!(s.gateway_packets > 0);
    assert!(
        (s.gateway_packets as f64) < 0.2 * s.data_packets_sent as f64,
        "OnDemand gateway share {}/{}",
        s.gateway_packets,
        s.data_packets_sent
    );
}

#[test]
fn ondemand_nodes_part_grows_with_the_rules_its_hosts_learnt() {
    let nodes = |sim: &Engine| sim.resident_bytes()[3];
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(SimConfig::default(), &ft, &OnDemand, 0, 4);
    let vms = sim.placement().len();
    sim.add_flows(workload(vms, 300));
    let before = nodes(&sim);
    assert_eq!(before.0, "nodes");
    sim.run();
    // Each gateway detour is a host's first packet to a destination, and
    // the host keeps that destination's rule from then on.
    let learnt = sim.summary().gateway_packets as usize;
    let grown = nodes(&sim).1 - before.1;
    let rule = std::mem::size_of::<(sv2p_packet::Vip, sv2p_packet::Pip)>();
    assert!(
        grown >= learnt * rule,
        "nodes grew {grown} B for {learnt} learnt rules"
    );
}

#[test]
fn gwcache_hits_only_at_gateway_tors() {
    let s = run(&GwCache, 512, 500);
    assert_eq!(s.flows, s.flows_completed);
    assert!(s.hit_rate > 0.0);
    assert!(
        (s.hit_share_tor - 1.0).abs() < 1e-9,
        "GwCache hit at a non-ToR layer: {s:?}"
    );
}

#[test]
fn local_learning_hits_everywhere_but_less_effectively() {
    let ll = run(&LocalLearning, 512, 500);
    assert_eq!(ll.flows, ll.flows_completed);
    assert!(ll.hit_rate > 0.0);
    // The strawman replicates entries along the downlink path, so it does
    // get spine hits — the inefficiency is in WHERE entries sit relative to
    // future uplink paths, visible as a lower hit rate than GwCache at the
    // same budget (GwCache concentrates its budget at the 2 gateway ToRs).
    let gw = run(&GwCache, 512, 500);
    assert!(
        ll.hit_rate <= gw.hit_rate + 0.05,
        "LocalLearning {} vs GwCache {}",
        ll.hit_rate,
        gw.hit_rate
    );
}

#[test]
fn bluebird_resolves_at_tors_without_gateways() {
    let s = run(&Bluebird, 1024, 150);
    assert_eq!(s.gateway_packets, 0, "Bluebird has no gateways");
    assert_eq!(s.flows, s.flows_completed, "{s:?}");
    // Control-plane detours are not cache hits; hits only appear once the
    // 2 ms insertion latency has passed, so with a ~4 ms trace some arrive.
    assert!(s.hit_rate <= 1.0);
}

/// A control-plane detour holds a packet inside its ToR and re-injects it
/// there: it is no hop. An inter-pod packet crosses five switches, detoured
/// or not, so with every packet of a short flow detoured (the 2 ms
/// insertion latency has not passed) the stretch is exactly five.
#[test]
fn bluebird_detour_is_not_a_hop() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(SimConfig::default(), &ft, &Bluebird, 1024, 4);
    let (src_vm, dst_vm) = (0, sim.placement().len() - 1);
    let (src, dst) = (
        sim.placement().node_of(src_vm),
        sim.placement().node_of(dst_vm),
    );
    assert_eq!(sim.routing().switch_hops(sim.topology(), src, dst, 0), 5);
    sim.add_flows([FlowSpec {
        src_vm,
        dst_vm,
        start: SimTime::ZERO,
        kind: FlowKind::Tcp { bytes: 100_000 },
    }]);
    sim.run();
    let s = sim.summary();
    assert_eq!((s.flows_completed, s.packets_dropped), (1, 0), "{s:?}");
    assert_eq!(s.avg_stretch, 5.0, "{s:?}");
}

#[test]
fn bluebird_first_packets_are_slower_than_direct() {
    // The SFE detour (8.5 µs + 20 Gb/s queue) must show up in first-packet
    // latency relative to Direct, which resolves at the host for free.
    let bb = run(&Bluebird, 1024, 150);
    let d = run(&Direct, 0, 150);
    assert!(
        bb.avg_first_packet_latency_us > d.avg_first_packet_latency_us,
        "Bluebird {} !> Direct {}",
        bb.avg_first_packet_latency_us,
        d.avg_first_packet_latency_us
    );
}
