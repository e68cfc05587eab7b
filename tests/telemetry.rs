//! Telemetry integration tests: same-seed runs render byte-identical
//! JSONL (manifests are the only place wall-clock may appear), and the
//! inspector reconstructs a packet's full journey — gateway detour,
//! in-network cache hit, delivery — from the rendered trace alone.

use std::collections::HashSet;

use switchv2p_repro::core::SwitchV2P;
use switchv2p_repro::netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use switchv2p_repro::simcore::SimTime;
use switchv2p_repro::telemetry::inspect::{kind_counts, parse_events, reconstruct_path};
use switchv2p_repro::telemetry::{EventKind, TraceEvent};
use switchv2p_repro::topology::FatTreeConfig;
use switchv2p_repro::traces::{hadoop, HadoopConfig};

/// A traced SwitchV2P run over a small Hadoop-like workload (repeating
/// destinations, so first sightings detour via gateways and later packets
/// hit in-network caches). Returns the rendered (events, samples) JSONL.
fn traced_run(seed: u64) -> (String, String) {
    let ft = FatTreeConfig::scaled_ft8(2);
    let cfg = SimConfig {
        seed,
        telemetry: true,
        ..SimConfig::default()
    };
    let strategy = SwitchV2P::default();
    let mut sim = Engine::new(cfg, &ft, &strategy, 256, 4);
    let vms = sim.placement().len();
    let flows: Vec<FlowSpec> = hadoop(&HadoopConfig {
        vms,
        flows: 600,
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
    .collect();
    sim.add_flows(flows);
    sim.run();
    (
        sim.tracer().render_events_jsonl(),
        sim.tracer().render_samples_jsonl(),
    )
}

#[test]
fn same_seed_runs_render_identical_jsonl() {
    let (ea, sa) = traced_run(7);
    let (eb, sb) = traced_run(7);
    assert!(!ea.is_empty(), "traced run must record events");
    assert_eq!(ea, eb, "same seed, same trace bytes");
    assert_eq!(sa, sb, "same seed, same sample bytes");
    // A different seed perturbs the trace (ECMP hashing, start jitter).
    let (ec, _) = traced_run(8);
    assert_ne!(ea, ec, "different seed must change the trace");
}

#[test]
fn inspector_reconstructs_detour_and_cache_hit_paths() {
    // Go through the rendered JSONL, exactly as `sv2p trace` would.
    let (text, _) = traced_run(1);
    let events = parse_events(&text);
    assert!(!events.is_empty());
    assert!(!kind_counts(&events).is_empty());

    // Both packets below are picked by their own id and from those whose
    // whole journey, send to delivery, the trace retains: an ACK detours
    // and hits caches too, but has no delivery record.
    let pkts_of = |kind: EventKind| -> HashSet<u64> {
        let of_kind = events.iter().filter(|e| e.kind == kind);
        of_kind.filter_map(|e| e.pkt).collect()
    };
    let (sent, delivered) = (pkts_of(EventKind::PacketSent), pkts_of(EventKind::Delivery));
    let whole = |e: &&TraceEvent| {
        e.pkt
            .is_some_and(|p| sent.contains(&p) && delivered.contains(&p))
    };

    // A first-sighting packet that detoured through a translation gateway.
    let gw = events
        .iter()
        .filter(|e| e.kind == EventKind::GatewayIngress)
        .find(whole)
        .expect("some first sighting detours via a gateway");
    let detour = reconstruct_path(&events, gw.flow.unwrap(), gw.pkt).expect("detour path");
    assert!(detour.visited_gateway, "{detour:?}");
    assert!(detour.delivered, "{detour:?}");
    assert!(detour.total_latency_ns.unwrap_or(0) > 0);
    // Hops replay in virtual-time order with consistent per-hop latency.
    assert!(detour.hops.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    let span = detour.hops.last().unwrap().t_ns - detour.hops[0].t_ns;
    let dt_sum: u64 = detour.hops.iter().map(|h| h.dt_ns).sum();
    assert_eq!(span, dt_sum, "per-hop latencies must sum to the span");

    // A later packet whose destination an in-network cache resolved.
    let hit = events
        .iter()
        .filter(|e| e.kind == EventKind::CacheLookup && e.hit == Some(true))
        .find(whole)
        .expect("a later packet hits an in-network cache");
    let served = reconstruct_path(&events, hit.flow.unwrap(), hit.pkt).expect("hit path");
    assert_eq!(
        served.hit_node, hit.node,
        "the report names the switch that served the hit"
    );
    assert!(
        !served.visited_gateway,
        "a cache-resolved packet skips the gateway detour"
    );
    assert!(served.delivered, "{served:?}");
}
