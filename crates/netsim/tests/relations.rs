//! Relations between runs: pairs of runs that differ in something that
//! must not reach what they compute, so they compute the same bytes. Each
//! is asserted on a small SwitchV2P scenario with telemetry on, at shards 1
//! and 4.

use sv2p_metrics::RunSummary;
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_telemetry::TelemetryConfig;
use sv2p_topology::{FatTreeConfig, NodeKind};
use sv2p_vnet::Migration;
use switchv2p::{SwitchV2P, SwitchV2PConfig};

/// When the first flow starts; every fault window below closes before it.
const FIRST_FLOW_US: u64 = 500;

fn engine(shards: u16, profile: bool) -> Engine {
    let cfg = SimConfig {
        telemetry: TelemetryConfig::enabled(),
        profile,
        ..SimConfig::default()
    };
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let mut sim = Engine::new(
        cfg,
        &FatTreeConfig::scaled_ft8(2),
        &strategy,
        4096,
        4,
        shards,
    );
    assert_eq!(sim.shards() > 1, shards > 1, "the fabric must really shard");
    let vms = sim.placement().len();
    sim.add_flows((0..24).map(|i| FlowSpec {
        src_vm: (i * 7) % vms,
        dst_vm: (i * 13 + 29) % vms,
        start: SimTime::from_micros(FIRST_FLOW_US + 3 * i as u64),
        kind: FlowKind::Tcp { bytes: 40_000 },
    }));
    sim
}

/// `(summary, trace events JSONL, events executed)` of a finished run.
fn outcome(mut sim: Engine) -> (RunSummary, String, u64) {
    sim.run();
    (
        sim.summary(),
        sim.tracer().render_events_jsonl(),
        sim.events_executed(),
    )
}

#[test]
fn profiling_on_computes_what_profiling_off_does() {
    for shards in [1, 4] {
        let off = outcome(engine(shards, false));
        let on = outcome(engine(shards, true));
        assert_eq!(
            format!("{:?}", on.0),
            format!("{:?}", off.0),
            "shards {shards}: summary"
        );
        assert!(on.1 == off.1, "shards {shards}: trace JSONL");
        assert_eq!(on.2, off.2, "shards {shards}: events executed");
    }
}

/// Every kind of fault, overlapping, on the first flow's source ToR and its
/// uplink (and fabric-wide), every window closed before the first flow
/// starts.
fn closed_plan(sim: &Engine) -> FaultPlan {
    let topo = sim.topology();
    // The first flow's source is VM 0.
    let host = sim.placement().node_of(0);
    let tor = topo.link(topo.out_links[host.0 as usize][0]).to;
    let uplink = topo.out_links[tor.0 as usize]
        .iter()
        .copied()
        .find(|&l| matches!(topo.node(topo.link(l).to).kind, NodeKind::Spine { .. }))
        .expect("a ToR has an uplink");
    let gateway = topo.gateways().next().expect("a gateway").id;
    let us = SimTime::from_micros;
    FaultPlan::from_events([
        FaultEvent::LossRate {
            link: None,
            rate: 0.1,
            from: us(10),
            until: us(300),
        },
        FaultEvent::LossRate {
            link: Some(uplink),
            rate: 0.2,
            from: us(50),
            until: us(350),
        },
        FaultEvent::LinkDown {
            link: uplink,
            at: us(100),
            up_at: us(400),
        },
        FaultEvent::SwitchReboot {
            node: tor,
            at: us(120),
            blackout: SimDuration::from_micros(200),
        },
        FaultEvent::GatewayOutage {
            node: gateway,
            at: us(20),
            up_at: us(450),
        },
    ])
    .expect("a well-formed plan")
}

#[test]
fn a_plan_closed_before_the_first_flow_is_no_plan() {
    for shards in [1, 4] {
        let plain = outcome(engine(shards, false));
        let mut sim = engine(shards, false);
        sim.apply_fault_plan(closed_plan(&sim));
        let faulted = outcome(sim);
        // What the plan leaves is the count of faults it injected.
        assert_eq!(faulted.0.fault_count, 10);
        let faulted_summary = RunSummary {
            fault_count: plain.0.fault_count,
            ..faulted.0
        };
        assert_eq!(
            format!("{faulted_summary:?}"),
            format!("{:?}", plain.0),
            "shards {shards}: summary"
        );
        assert!(faulted.1 == plain.1, "shards {shards}: trace JSONL");
    }
}

/// The placement is the simulator's only V2P truth and keeps no epoch, so a
/// VM moved away and back before its first packet leaves nothing but the
/// two migrations behind: the run counts them and executes their two
/// events, and computes the same bytes otherwise.
#[test]
fn a_vm_migrated_away_and_back_before_its_first_packet_never_moved() {
    for shards in [1, 4] {
        let plain = outcome(engine(shards, false));
        let mut sim = engine(shards, false);
        // Flow 0's destination.
        let vm = 29;
        let (vip, home, home_pip) = {
            let p = sim.placement();
            (p.vip_of(vm), p.node_of(vm), p.pip_of(vm))
        };
        let away = sim.topology().servers().last().expect("a server");
        assert_ne!(away.id, home, "the move must leave the VM's server");
        let (away, away_pip) = (away.id, away.pip);
        let us = SimTime::from_micros;
        sim.add_migration(Migration::new(us(100), vip, away, away_pip));
        sim.add_migration(Migration::new(us(200), vip, home, home_pip));
        let moved = outcome(sim);
        assert_eq!(moved.0.migrations, 2);
        let moved_summary = RunSummary {
            migrations: plain.0.migrations,
            ..moved.0
        };
        assert_eq!(
            format!("{moved_summary:?}"),
            format!("{:?}", plain.0),
            "shards {shards}: summary"
        );
        assert!(moved.1 == plain.1, "shards {shards}: trace JSONL");
        assert_eq!(moved.2, plain.2 + 2, "shards {shards}: events executed");
    }
}
