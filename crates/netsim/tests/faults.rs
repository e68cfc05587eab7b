//! Fault-injection integration tests: reboot storms, link failures, gateway
//! outages, stochastic loss — and the determinism contract for all of them.

use proptest::prelude::*;
use sv2p_baselines::NoCache;
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{FlowKind, FlowSpec, SimConfig, Engine};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_topology::{FatTreeConfig, LinkId, NodeId, SwitchRole};
use sv2p_vnet::{Migration, Strategy};
use switchv2p::{SwitchV2P, SwitchV2PConfig};

fn sim_with(strategy: &dyn Strategy, cache_entries: usize) -> Engine {
    let ft = FatTreeConfig::scaled_ft8(2);
    Engine::new(SimConfig::default(), &ft, strategy, cache_entries, 4)
}

/// `n` TCP flows spread over distinct VM pairs and start times.
fn tcp_flows(sim: &Engine, n: usize, bytes: u64) -> Vec<FlowSpec> {
    let vms = sim.placement().len();
    (0..n)
        .map(|i| FlowSpec {
            src_vm: (i * 7) % vms,
            dst_vm: (i * 13 + 29) % vms,
            start: SimTime::from_micros(2 * i as u64),
            kind: FlowKind::Tcp { bytes },
        })
        .filter(|f| f.src_vm != f.dst_vm)
        .collect()
}

#[test]
fn reboot_storm_loses_no_flows_with_switchv2p() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let mut sim = sim_with(&strategy, 4096);
    let flows = tcp_flows(&sim, 40, 100_000);
    let n = flows.len() as u64;
    sim.add_flows(flows);

    // Let the cache hierarchy warm up mid-transfer...
    sim.run_until(SimTime::from_micros(150));
    let warm: usize = sim.cache_occupancy().iter().map(|&(_, o)| o).sum();
    assert!(warm > 0, "caches must have warmed before the storm");

    // ...then reboot every switch at once: all volatile state is gone.
    sim.fail_all_switches();
    let cold: usize = sim.cache_occupancy().iter().map(|&(_, o)| o).sum();
    assert_eq!(cold, 0, "the storm must cold-start every cache");

    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, n, "{s:?}");
    assert!(s.fault_count >= 1, "the storm must be annotated in metrics");
}

#[test]
fn stochastic_loss_is_absorbed_by_retransmission() {
    let mut sim = sim_with(&NoCache, 0);
    let plan = FaultPlan::from_events([FaultEvent::LossRate {
        link: None,
        rate: 0.001,
        from: SimTime::ZERO,
        until: SimTime::from_millis(500),
    }])
    .unwrap();
    sim.apply_fault_plan(plan);
    let flows = tcp_flows(&sim, 25, 60_000);
    let n = flows.len() as u64;
    sim.add_flows(flows);
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, n, "{s:?}");
    assert!(s.drops_loss > 0, "0.1% fabric loss must hit something: {s:?}");
    assert!(
        s.retransmissions > 0,
        "losses must be repaired by TCP retransmission: {s:?}"
    );
}

#[test]
fn gateway_outage_rides_the_rto_until_restoration() {
    let mut sim = sim_with(&NoCache, 0);
    let gws: Vec<NodeId> = sim.topology().gateways().map(|n| n.id).collect();
    assert!(!gws.is_empty());
    let plan = FaultPlan::from_events(gws.iter().map(|&node| FaultEvent::GatewayOutage {
        node,
        at: SimTime::ZERO,
        up_at: SimTime::from_micros(300),
    }))
    .unwrap();
    sim.apply_fault_plan(plan);
    let flows = tcp_flows(&sim, 10, 20_000);
    let n = flows.len() as u64;
    sim.add_flows(flows);
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, n, "{s:?}");
    assert!(s.drops_blackout > 0, "the outage must eat resolutions: {s:?}");
    assert!(
        s.retransmissions > 0,
        "senders must recover via RTO retries: {s:?}"
    );
}

#[test]
fn downed_uplink_rehashes_onto_surviving_port() {
    // Fail one ToR-to-spine uplink for the whole run: ECMP must shift every
    // flow onto the surviving uplink with zero unroutable drops.
    let mut sim = sim_with(&NoCache, 0);
    let tor = sim
        .topology()
        .switches()
        .find(|n| sim.roles().role(n.id) == Some(SwitchRole::Tor))
        .map(|n| n.id)
        .expect("a plain ToR exists");
    let uplinks: Vec<LinkId> = sim.topology().out_links[tor.0 as usize]
        .iter()
        .copied()
        .filter(|&l| {
            let to = sim.topology().link(l).to;
            sim.topology().node(to).kind.is_switch()
        })
        .collect();
    assert!(uplinks.len() >= 2, "scaled_ft8(2) ToRs have 2 uplinks");
    let plan = FaultPlan::from_events([FaultEvent::LinkDown {
        link: uplinks[0],
        at: SimTime::ZERO,
        up_at: SimTime::from_millis(100),
    }])
    .unwrap();
    sim.apply_fault_plan(plan);
    let flows = tcp_flows(&sim, 20, 30_000);
    let n = flows.len() as u64;
    sim.add_flows(flows);
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, n, "{s:?}");
    assert_eq!(
        s.drops_unroutable, 0,
        "a surviving port must absorb all rerouted traffic: {s:?}"
    );
}

#[test]
fn host_uplink_down_drops_unroutable_then_recovers() {
    let mut sim = sim_with(&NoCache, 0);
    let src = sim.placement().node_of(0);
    let uplink = sim.topology().out_links[src.0 as usize][0];
    let plan = FaultPlan::from_events([FaultEvent::LinkDown {
        link: uplink,
        at: SimTime::ZERO,
        up_at: SimTime::from_micros(200),
    }])
    .unwrap();
    sim.apply_fault_plan(plan);
    sim.add_flows([FlowSpec {
        src_vm: 0,
        dst_vm: sim.placement().len() - 1,
        start: SimTime::ZERO,
        kind: FlowKind::Tcp { bytes: 20_000 },
    }]);
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, 1, "{s:?}");
    assert!(s.drops_unroutable > 0, "{s:?}");
    assert!(s.retransmissions > 0, "{s:?}");
}

/// `run_until(t)` parks with the next event just past `t`. A plan applied
/// then for an instant in `(now(), t]` is what `apply_fault_plan`'s "may be
/// called mid-run" invites, and so is a flow added for such an instant:
/// both must take effect at their instants, never a calendar rotation
/// later, and the clock must not run backwards. A flow or a migration dated
/// *before* `now()` takes effect at `now()`, in either build profile.
#[test]
fn interventions_behind_a_parked_run_take_effect_on_time() {
    let ft = FatTreeConfig::scaled_ft8(4);
    let mut sim = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4);
    let start = SimTime::from_nanos(10_050);
    let mut flows = tcp_flows(&sim, 12, 20_000);
    for f in &mut flows {
        f.start = start;
    }
    let late = FlowSpec {
        start: SimTime::from_micros(6),
        ..flows[0].clone()
    };
    let past = FlowSpec {
        start: SimTime::from_micros(10),
        ..flows[1].clone()
    };
    let n = flows.len() as u64 + 2;
    sim.add_flows(flows);

    sim.run_until(SimTime::from_nanos(10_010));
    assert_eq!(sim.events_executed(), 0, "nothing is due before the flows start");
    let gws: Vec<NodeId> = sim.topology().gateways().map(|g| g.id).collect();
    let outage = FaultPlan::from_events(gws.iter().map(|&node| FaultEvent::GatewayOutage {
        node,
        at: SimTime::from_micros(5),
        up_at: SimTime::from_micros(300),
    }))
    .unwrap();
    sim.apply_fault_plan(outage);
    sim.add_flows([late]);

    // The two interventions are the next two events, in time order.
    sim.run_until(SimTime::from_micros(5));
    assert_eq!(sim.now(), SimTime::from_micros(5), "the outage starts first");
    sim.run_until(SimTime::from_micros(6));
    assert_eq!(sim.now(), SimTime::from_micros(6), "then the added flow");

    let mut last = sim.now();
    for step in 1..=150 {
        sim.run_until(SimTime::from_micros(10 * step));
        assert!(sim.now() >= last, "clock ran backwards: {:?} after {last:?}", sim.now());
        last = sim.now();
        if step == 100 {
            // Interventions dated before `now` (a debug-build panic once,
            // a profile-dependent clamp in release) take effect at once:
            // they are the next two events.
            assert!(sim.now() > SimTime::from_micros(20));
            let (before, vip) = (sim.events_executed(), sim.placement().vip_of(3));
            let to = sim.topology().servers().last().expect("servers exist");
            let (to_node, to_pip) = (to.id, to.pip);
            sim.add_migration(Migration::new(SimTime::from_micros(20), vip, to_node, to_pip));
            sim.add_flows([past.clone()]);
            sim.run_until(last);
            assert_eq!((sim.now(), sim.events_executed()), (last, before + 2));
            assert_eq!(sim.placement().pip_of(3), to_pip);
        }
    }
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows_completed, n, "{s:?}");
    assert_eq!(s.migrations, 1, "{s:?}");
    assert!(
        s.drops_blackout > 0,
        "the outage must be in force when the flows start: {s:?}"
    );
}

/// The failures-experiment plan in miniature: a reboot, a link failure and a
/// loss window together. Same seed + same plan must give byte-identical
/// summaries.
#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let strategy = SwitchV2P::new(SwitchV2PConfig::default());
        let mut sim = sim_with(&strategy, 4096);
        let tor = sim
            .topology()
            .switches()
            .find(|n| sim.roles().role(n.id) == Some(SwitchRole::Tor))
            .map(|n| n.id)
            .unwrap();
        let uplink = sim.topology().out_links[tor.0 as usize][0];
        let plan = FaultPlan::from_events([
            FaultEvent::SwitchReboot {
                node: tor,
                at: SimTime::from_micros(100),
                blackout: SimDuration::from_micros(50),
            },
            FaultEvent::LinkDown {
                link: uplink,
                at: SimTime::from_micros(120),
                up_at: SimTime::from_micros(400),
            },
            FaultEvent::LossRate {
                link: None,
                rate: 0.002,
                from: SimTime::from_micros(50),
                until: SimTime::from_micros(600),
            },
        ])
        .unwrap();
        sim.apply_fault_plan(plan);
        let flows = tcp_flows(&sim, 20, 40_000);
        sim.add_flows(flows);
        sim.run();
        format!("{:?}", sim.summary())
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any bounded fault plan is deadlock-free: every fault window closes,
    /// so TCP's RTO eventually pushes all traffic through and the event
    /// queue drains (run() returns and the summary is reachable).
    #[test]
    fn arbitrary_fault_plans_never_wedge_the_run(
        events in proptest::collection::vec(
            (0u8..4, any::<u32>(), 0u64..400, 1u64..300, 0.0f64..0.25),
            0..6,
        )
    ) {
        let mut sim = sim_with(&NoCache, 0);
        let switches: Vec<NodeId> = sim.topology().switches().map(|n| n.id).collect();
        let gateways: Vec<NodeId> = sim.topology().gateways().map(|n| n.id).collect();
        let n_links = sim.topology().links.len();
        let mut plan = FaultPlan::new();
        for &(kind, idx, start_us, dur_us, rate) in &events {
            let at = SimTime::from_micros(start_us);
            let end = SimTime::from_micros(start_us + dur_us);
            let ev = match kind {
                0 => FaultEvent::SwitchReboot {
                    node: switches[idx as usize % switches.len()],
                    at,
                    blackout: SimDuration::from_micros(dur_us),
                },
                1 => FaultEvent::LinkDown {
                    link: LinkId((idx as usize % n_links) as u32),
                    at,
                    up_at: end,
                },
                2 => FaultEvent::GatewayOutage {
                    node: gateways[idx as usize % gateways.len()],
                    at,
                    up_at: end,
                },
                _ => FaultEvent::LossRate {
                    link: None,
                    rate,
                    from: at,
                    until: end,
                },
            };
            plan.push(ev).expect("generated events are well-formed");
        }
        sim.apply_fault_plan(plan);
        let flows = tcp_flows(&sim, 6, 10_000);
        let n = flows.len() as u64;
        sim.add_flows(flows);
        sim.run();
        let s = sim.summary();
        prop_assert_eq!(s.flows, n);
        prop_assert_eq!(s.flows_completed, n);
    }
}
