//! Cross-crate integration tests: the full stack (traces → netsim →
//! strategies → metrics) on a small FatTree, checking the paper's
//! qualitative claims hold end-to-end.

use switchv2p_repro::baselines::{Direct, GwCache, LocalLearning, NoCache, OnDemand};
use switchv2p_repro::core::{SwitchV2P, SwitchV2PConfig};
use switchv2p_repro::metrics::RunSummary;
use switchv2p_repro::netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use switchv2p_repro::simcore::SimTime;
use switchv2p_repro::topology::FatTreeConfig;
use switchv2p_repro::traces::{hadoop, HadoopConfig};
use switchv2p_repro::vnet::Strategy;

/// A small Hadoop-like workload on the 2-pod FatTree (512 VMs).
fn mini_hadoop(vms: usize, flows: usize) -> Vec<FlowSpec> {
    let cfg = HadoopConfig {
        vms,
        flows,
        hosts: 128,
        ..HadoopConfig::default()
    };
    hadoop(&cfg)
        .into_iter()
        .map(|f| FlowSpec {
            src_vm: f.src_vm,
            dst_vm: f.dst_vm,
            start: SimTime::from_nanos(f.start_ns),
            kind: FlowKind::Tcp { bytes: f.bytes() },
        })
        .collect()
}

/// Runs `strategy` over the mini workload and returns the summary.
fn run(strategy: &dyn Strategy, total_cache: usize) -> RunSummary {
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(SimConfig::default(), &ft, strategy, total_cache, 4);
    let vms = sim.placement().len();
    sim.add_flows(mini_hadoop(vms, 1200));
    sim.run();
    sim.summary()
}

#[test]
fn all_strategies_complete_the_workload() {
    let cache = 256; // 50% of the 512-VM address space
    for strategy in [
        &NoCache as &dyn Strategy,
        &LocalLearning,
        &GwCache,
        &OnDemand,
        &Direct,
        &SwitchV2P::default(),
    ] {
        let s = run(strategy, cache);
        assert_eq!(
            s.flows,
            s.flows_completed,
            "{}: {}/{} flows completed ({s:?})",
            strategy.name(),
            s.flows_completed,
            s.flows
        );
    }
}

#[test]
fn switchv2p_beats_nocache_on_fct_and_first_packet() {
    let nocache = run(&NoCache, 0);
    let sv2p = run(&SwitchV2P::default(), 256);
    assert!(sv2p.hit_rate > 0.3, "hit rate {}", sv2p.hit_rate);
    assert!(
        sv2p.avg_fct_us < nocache.avg_fct_us,
        "FCT {} !< {}",
        sv2p.avg_fct_us,
        nocache.avg_fct_us
    );
    assert!(
        sv2p.avg_first_packet_latency_us < nocache.avg_first_packet_latency_us,
        "first-packet {} !< {}",
        sv2p.avg_first_packet_latency_us,
        nocache.avg_first_packet_latency_us
    );
    // No negative effects: stretch must not exceed NoCache's (§5.1: "packet
    // routes are at most as long as in the NoCache system").
    assert!(sv2p.avg_stretch <= nocache.avg_stretch + 1e-9);
}

#[test]
fn switchv2p_reduces_gateway_load_and_network_bytes() {
    let nocache = run(&NoCache, 0);
    let sv2p = run(&SwitchV2P::default(), 256);
    assert!(
        (sv2p.gateway_packets as f64) < 0.7 * nocache.gateway_packets as f64,
        "gateway packets {} vs {}",
        sv2p.gateway_packets,
        nocache.gateway_packets
    );
    assert!(
        sv2p.total_switch_bytes < nocache.total_switch_bytes,
        "bytes {} !< {}",
        sv2p.total_switch_bytes,
        nocache.total_switch_bytes
    );
}

#[test]
fn direct_is_the_latency_floor() {
    let direct = run(&Direct, 0);
    let sv2p = run(&SwitchV2P::default(), 256);
    assert_eq!(direct.hit_rate, 1.0, "Direct never touches gateways");
    assert!(
        direct.avg_first_packet_latency_us <= sv2p.avg_first_packet_latency_us,
        "Direct {} vs SwitchV2P {}",
        direct.avg_first_packet_latency_us,
        sv2p.avg_first_packet_latency_us
    );
}

#[test]
fn switchv2p_beats_local_learning() {
    // The paper's central ablation (§3.1): topology-aware caching must beat
    // the local greedy strawman at equal aggregate cache size.
    let local = run(&LocalLearning, 64);
    let sv2p = run(&SwitchV2P::default(), 64);
    assert!(
        sv2p.hit_rate > local.hit_rate,
        "SwitchV2P {} !> LocalLearning {}",
        sv2p.hit_rate,
        local.hit_rate
    );
}

#[test]
fn larger_caches_do_not_hurt() {
    let small = run(&SwitchV2P::default(), 8);
    let large = run(&SwitchV2P::default(), 512);
    assert!(
        large.hit_rate >= small.hit_rate,
        "hit rate {} < {}",
        large.hit_rate,
        small.hit_rate
    );
}

#[test]
fn runs_are_reproducible() {
    let a = run(&SwitchV2P::default(), 128);
    let b = run(&SwitchV2P::default(), 128);
    assert_eq!(a.avg_fct_us, b.avg_fct_us);
    assert_eq!(a.gateway_packets, b.gateway_packets);
    assert_eq!(a.total_switch_bytes, b.total_switch_bytes);
    assert_eq!(a.learning_packets, b.learning_packets);
}

#[test]
fn tor_only_ablation_still_helps_fct() {
    // §4: "using a ToR-only cache for Hadoop reduces the FCT".
    let nocache = run(&NoCache, 0);
    let tor_only = run(&SwitchV2P::new(SwitchV2PConfig::tor_only()), 256);
    assert!(tor_only.hit_rate > 0.0);
    assert!(tor_only.avg_fct_us < nocache.avg_fct_us);
}
