//! Gateway migration (§4): "changing the location of the gateway in the
//! network would require modifying the roles of the ToR switches... the
//! former gateway ToR can transition to a standard ToR behavior, while the
//! new ToR can take on the role of a gateway ToR. The cache state does not
//! require migration; instead, it is rebuilt at the destination."
//!
//! These tests exercise the control-plane role reassignment through the
//! simulator and check the behavioral switch-over.

use switchv2p_repro::core::{SwitchV2P, SwitchV2PConfig};
use switchv2p_repro::netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use switchv2p_repro::simcore::SimTime;
use switchv2p_repro::topology::{FatTreeConfig, SwitchRole};
use switchv2p_repro::traces::{hadoop, HadoopConfig};
use switchv2p_repro::vnet::Strategy;

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
fn role_swap_mid_run_keeps_the_network_correct() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = SwitchV2P::default();
    let mut sim = Engine::new(SimConfig::default(), &ft, &strategy, 256, 4);
    let vms = sim.placement().len();
    sim.add_flows(workload(vms, 500));

    // Identify the gateway ToR and a plain ToR.
    let (mut gw_tor, mut plain_tor) = (None, None);
    for sw in sim.topology().switches() {
        match sim.roles().role(sw.id) {
            Some(SwitchRole::GatewayTor) if gw_tor.is_none() => gw_tor = Some(sw.id),
            Some(SwitchRole::Tor) if plain_tor.is_none() => plain_tor = Some(sw.id),
            _ => {}
        }
    }
    let (gw_tor, plain_tor) = (gw_tor.unwrap(), plain_tor.unwrap());

    // Mid-run, the operator migrates the gateway: swap the two ToRs' roles.
    // The old gateway ToR keeps its agent and its cache and changes
    // behaviour through the role alone (agents read it per packet, as they
    // do the switch's tag); the new gateway ToR's cache is rebuilt cold.
    sim.run_until(SimTime::from_micros(400));
    sim.reassign_switch_role(gw_tor, SwitchRole::Tor);
    sim.reassign_switch_role(plain_tor, SwitchRole::GatewayTor);
    sim.replace_switch_agent(
        plain_tor,
        strategy.make_switch_agent(SwitchRole::GatewayTor, 8),
    );
    sim.run();
    let s = sim.summary();
    assert_eq!(s.flows, s.flows_completed, "{s:?}");
    assert!(s.hit_rate > 0.0);
}

#[test]
fn reassigned_gateway_tor_changes_learning_behavior() {
    // Behavioral check at the protocol level: after the role change, the
    // same switch stops source learning and starts destination learning —
    // Table 1's defining difference between ToR and gateway ToR.
    use switchv2p_repro::core::SwitchV2PAgent;
    use switchv2p_repro::packet::{InnerHeader, OuterHeader, Packet, Pip, SwitchTag, Vip};
    use switchv2p_repro::simcore::SimRng;
    use switchv2p_repro::vnet::{Placement, SwitchAgent, SwitchCtx};

    let placement = Placement::default();
    let pod_of = |_: Pip| None;
    let pip_of_tag = |_: SwitchTag| Pip(0);
    fn make_ctx<'a>(
        role: SwitchRole,
        placement: &'a Placement,
        rng: &'a mut SimRng,
        pod_of: &'a dyn Fn(Pip) -> Option<u16>,
        pip_of_tag: &'a dyn Fn(SwitchTag) -> Pip,
    ) -> SwitchCtx<'a> {
        SwitchCtx {
            now: SimTime::ZERO,
            tag: SwitchTag(1),
            switch_pip: Pip(9000),
            role,
            my_pod: Some(0),
            ingress_host: None,
            dst_attached: false,
            placement,
            rng,
            pod_of,
            pip_of_tag,
            trace_cache_ops: false,
        }
    }
    let resolved_pkt = || Packet {
        outer: OuterHeader {
            src_pip: Pip(11),
            dst_pip: Pip(22),
            resolved: true,
        },
        inner: InnerHeader {
            src_vip: Vip(1),
            dst_vip: Vip(2),
            src_port: 5,
            dst_port: 80,
            ..InnerHeader::default()
        },
        payload: 100,
        visited_gateway: true,
        ..Packet::default()
    };

    // As a plain ToR: learns the SOURCE mapping.
    let mut rng = SimRng::new(1);
    let mut tor = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
    let mut c = make_ctx(SwitchRole::Tor, &placement, &mut rng, &pod_of, &pip_of_tag);
    tor.on_packet(&mut c, &mut resolved_pkt());
    let _ = c;
    assert_eq!(tor.cache.peek(Vip(1)), Some(Pip(11)));
    assert_eq!(tor.cache.peek(Vip(2)), None);

    // The migrated-in gateway ToR (fresh agent, §4: rebuilt cold): learns
    // the DESTINATION mapping.
    let mut gw = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
    assert_eq!(gw.occupancy(), 0, "cache starts cold at the destination");
    let mut c = make_ctx(
        SwitchRole::GatewayTor,
        &placement,
        &mut rng,
        &pod_of,
        &pip_of_tag,
    );
    gw.on_packet(&mut c, &mut resolved_pkt());
    assert_eq!(gw.cache.peek(Vip(2)), Some(Pip(22)));
    assert_eq!(gw.cache.peek(Vip(1)), None);
}
