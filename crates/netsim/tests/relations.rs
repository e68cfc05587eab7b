//! Relations between runs: pairs of runs that differ in something that
//! must not reach what they compute, so they compute the same bytes. Most
//! are asserted on a small SwitchV2P scenario with telemetry on: 24 TCP
//! flows, the first at 500 µs.

use proptest::prelude::*;
use sv2p_baselines::{Bluebird, Direct, GwCache, NoCache};
use sv2p_metrics::{Counters, RunSummary};
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_packet::Packet;
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_telemetry::{deterministic_projection, ProfileMeta};
use sv2p_topology::{FatTreeConfig, NodeId, NodeKind};
use sv2p_traces::{hadoop, HadoopConfig};
use sv2p_transport::UdpSchedule;
use sv2p_vnet::{AgentOutput, Migration, Strategy, SwitchAgent, SwitchCtx};
use switchv2p::{InvalidationMode, SwitchV2P, SwitchV2PConfig};

/// When the first flow starts; every fault window below closes before it.
const FIRST_FLOW_US: u64 = 500;

fn cfg_with_telemetry() -> SimConfig {
    SimConfig {
        telemetry: true,
        ..SimConfig::default()
    }
}

/// The scenario's engine with no flows registered yet.
fn bare(strategy: &dyn Strategy, profile: bool) -> Engine {
    let cfg = SimConfig {
        profile,
        ..cfg_with_telemetry()
    };
    Engine::new(cfg, &FatTreeConfig::scaled_ft8(2), strategy, 4096, 4)
}

/// The scenario's 24 flows.
fn flows(vms: usize) -> Vec<FlowSpec> {
    (0..24)
        .map(|i| FlowSpec {
            src_vm: (i * 7) % vms,
            dst_vm: (i * 13 + 29) % vms,
            start: SimTime::from_micros(FIRST_FLOW_US + 3 * i as u64),
            kind: FlowKind::Tcp { bytes: 40_000 },
        })
        .collect()
}

fn engine_with(strategy: &dyn Strategy, profile: bool) -> Engine {
    let mut sim = bare(strategy, profile);
    sim.add_flows(flows(sim.placement().len()));
    sim
}

fn engine(profile: bool) -> Engine {
    engine_with(&SwitchV2P::new(SwitchV2PConfig::default()), profile)
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

/// Every observable of a finished run: summary, trace events and samples
/// (JSONL), and events executed.
fn everything(mut sim: Engine) -> (String, String, String, u64) {
    sim.run();
    (
        format!("{:?}", sim.summary()),
        sim.tracer().render_events_jsonl(),
        sim.tracer().render_samples_jsonl(),
        sim.events_executed(),
    )
}

#[test]
fn profiling_on_computes_what_profiling_off_does() {
    let off = outcome(engine(false));
    let on = outcome(engine(true));
    assert_eq!(format!("{:?}", on.0), format!("{:?}", off.0), "summary");
    assert!(on.1 == off.1, "trace JSONL");
    assert_eq!(on.2, off.2, "events executed");
}

/// Every kind of fault, overlapping, on the first flow's source ToR and its
/// uplink (and fabric-wide), every window closed before the first flow
/// starts.
fn closed_plan(sim: &Engine) -> FaultPlan {
    let topo = sim.topology();
    // The first flow's source is VM 0.
    let host = sim.placement().node_of(0);
    let tor = topo.link(topo.out_links(host).next().unwrap()).to;
    let uplink = topo
        .out_links(tor)
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
    let plain = outcome(engine(false));
    let mut sim = engine(false);
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
        "summary"
    );
    assert!(faulted.1 == plain.1, "trace JSONL");
}

/// The placement is the simulator's only V2P truth and keeps no epoch, so a
/// VM moved away and back before its first packet leaves nothing but the
/// two migrations behind: the run counts them and executes their two
/// events, and computes the same bytes otherwise.
#[test]
fn a_vm_migrated_away_and_back_before_its_first_packet_never_moved() {
    let plain = outcome(engine(false));
    let mut sim = engine(false);
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
        "summary"
    );
    assert!(moved.1 == plain.1, "trace JSONL");
    assert_eq!(moved.2, plain.2 + 2, "events executed");
}

/// The flows registered at a pause before the first of them starts are
/// the flows registered up front. (The samples differ by construction:
/// each reads the calendar, which holds the flows in one run and not yet
/// in the other.)
#[test]
fn flows_added_at_a_pause_before_the_first_start_are_flows_added_up_front() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let plain = outcome(engine(false));
    for pause_us in [50, 250, 450, FIRST_FLOW_US - 1] {
        let mut sim = bare(&strategy, false);
        sim.run_until(SimTime::from_micros(pause_us));
        sim.add_flows(flows(sim.placement().len()));
        let paused = outcome(sim);
        assert_eq!(
            format!("{:?}", paused.0),
            format!("{:?}", plain.0),
            "pause at {pause_us} us: summary"
        );
        assert!(paused.1 == plain.1, "pause at {pause_us} us: trace JSONL");
    }
}

/// The sampler re-arms itself only while other events are pending, so an
/// engine whose calendar drained before anything was registered has no
/// sample queued; a registration restarts it on its grid, and the run is
/// sampled where an up-front registration's run is.
#[test]
fn a_registration_after_the_calendar_drained_restarts_the_sampler() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let instants = |sim: &Engine| -> Vec<u64> {
        let t = sim.tracer().samples.iter().map(|s| s.t_ns);
        t.filter(|&t| t >= 300_000).collect()
    };
    let mut up_front = engine(false);
    up_front.run();
    let mut late = bare(&strategy, false);
    late.run_until(SimTime::from_micros(250));
    assert_eq!(
        late.tracer().samples.len(),
        1,
        "the t = 0 sample, then none"
    );
    late.add_flows(flows(late.placement().len()));
    late.run();
    assert!(instants(&up_front).len() > 10, "the run spans many periods");
    assert_eq!(instants(&late), instants(&up_front));
}

/// Reassigning every switch, mid-run, to the role it already holds changes
/// nothing at all.
#[test]
fn reassigning_every_switch_its_own_role_is_nothing() {
    let plain = everything(engine(false));
    let mut sim = engine(false);
    sim.run_until(SimTime::from_micros(FIRST_FLOW_US + 40));
    let switches: Vec<NodeId> = sim.topology().switches().map(|n| n.id).collect();
    for sw in switches {
        let role = sim.roles().role(sw).expect("a switch has a role");
        sim.reassign_switch_role(sw, role);
    }
    assert!(
        everything(sim) == plain,
        "summary, events, samples, events executed"
    );
}

/// An agent that forwards every packet untouched: what a switch whose role
/// weighs 0 does without one.
struct Forward;

impl SwitchAgent for Forward {
    fn on_packet(&mut self, _: &mut SwitchCtx<'_>, _: &mut Packet) -> AgentOutput {
        AgentOutput::forward()
    }
}

/// Every observable of a finished traced and profiled run: summary,
/// ledger, per-switch bytes and occupancy, trace events and samples
/// (JSONL), and the profile report's deterministic projection.
fn observables(sim: &mut Engine) -> [String; 5] {
    sim.run();
    let meta = ProfileMeta {
        bin: "relations".into(),
        label: "forward".into(),
        seed: 0,
        events_executed: sim.events_executed(),
        host_cores: 1,
        peak_rss_bytes: 0,
    };
    let report = sim.profiler().render_report(&meta);
    [
        format!("{:?}", sim.summary()),
        format!("{:?}", sim.counters()),
        format!("{:?} {:?}", sim.per_switch_bytes(), sim.cache_occupancy()),
        sim.tracer().render_events_jsonl() + &sim.tracer().render_samples_jsonl(),
        deterministic_projection(&report).expect("profile report projects"),
    ]
}

/// A switch whose role weighs 0 holds no agent, and a hop through it skips
/// the agent call; giving each such switch an agent that only forwards
/// changes nothing a run computes — hop counts, switch bytes and ingress
/// records included — for NoCache and for each scheme that caches at some
/// roles only, on a Hadoop slice.
#[test]
fn a_forward_only_agent_is_no_agent() {
    let tor_only = SwitchV2P::new(SwitchV2PConfig::tor_only());
    let schemes: [&dyn Strategy; 4] = [&NoCache, &GwCache, &Bluebird, &tor_only];
    for scheme in schemes {
        let build = || {
            let cfg = SimConfig {
                profile: true,
                ..cfg_with_telemetry()
            };
            let mut sim = Engine::new(cfg, &FatTreeConfig::scaled_ft8(2), scheme, 4096, 4);
            let vms = sim.placement().len();
            let slice = hadoop(&HadoopConfig {
                vms,
                flows: 60,
                hosts: 128,
                ..HadoopConfig::default()
            });
            sim.add_flows(slice.iter().map(|f| FlowSpec {
                src_vm: f.src_vm,
                dst_vm: f.dst_vm,
                start: SimTime::from_nanos(f.start_ns),
                kind: FlowKind::Tcp { bytes: f.bytes() },
            }));
            sim
        };
        let mut agentless = build();
        let weighs_0 = |sim: &Engine, sw| scheme.cache_weight(sim.roles().role(sw).unwrap()) == 0.0;
        let plain = observables(&mut agentless);
        let mut forwarding = build();
        let switches = forwarding.topology().switches().map(|sw| sw.id);
        let idle: Vec<NodeId> = switches.filter(|&sw| weighs_0(&forwarding, sw)).collect();
        for sw in idle {
            forwarding.replace_switch_agent(sw, Box::new(Forward));
        }
        let name = scheme.name();
        let what = [
            "summary",
            "counters",
            "per-switch rows",
            "trace JSONL",
            "projection",
        ];
        for ((a, b), what) in plain.iter().zip(&observables(&mut forwarding)).zip(what) {
            assert!(a == b, "{name}: {what}");
        }
        // Not vacuous: packets crossed switches that hold no agent.
        let rows = agentless.per_switch_bytes();
        let crossed = rows
            .iter()
            .filter(|&&(sw, _, b)| b > 0 && weighs_0(&agentless, sw));
        assert!(crossed.count() > 0, "{name}");
    }
}

/// NoCache sends every data packet through a gateway, and Direct, which
/// resolves at the sending host, sends none.
#[test]
fn nocache_sends_every_data_packet_through_a_gateway_and_direct_none() {
    let (nocache, _, _) = outcome(engine_with(&NoCache, false));
    assert_eq!(nocache.packets_dropped, 0);
    assert!(nocache.data_packets_sent > 0);
    assert_eq!(nocache.gateway_packets, nocache.data_packets_sent);
    let (direct, _, _) = outcome(engine_with(&Direct, false));
    assert!(direct.data_packets_sent > 0);
    assert_eq!(direct.gateway_packets, 0);
}

/// A retransmission timer is filed once per RTO, not once per ACK: on one
/// long TCP flow alone, the calendar never holds more than one event per
/// packet in flight (its arrival or its gateway service) plus three. Those
/// are the flow's start, its one filed timer, and the orphan its first ACK
/// leaves: the RTO shrinks from its initial 1 ms to the 500 us minimum
/// there, a deadline moved earlier files anew, and the 1 ms filing stays
/// behind to pop as a no-op. Measured: a peak of 2 007 pending against
/// 2 005 in flight. A timer filed per ACK would add one RTO's worth of ACKs,
/// about 2 000 more.
#[test]
fn one_flow_keeps_one_timer_on_the_calendar() {
    let mut sim = Engine::new(
        SimConfig::default(),
        &FatTreeConfig::scaled_ft8(2),
        &SwitchV2P::new(SwitchV2PConfig::default()),
        4096,
        4,
    );
    let vms = sim.placement().len();
    sim.add_flows(vec![FlowSpec {
        src_vm: 0,
        dst_vm: vms / 2 + 1,
        start: SimTime::from_micros(FIRST_FLOW_US),
        kind: FlowKind::Tcp { bytes: 4_000_000 },
    }]);
    sim.run();
    assert_eq!(sim.summary().flows_completed, 1);
    let (queue, arena) = (sim.peak_queue(), sim.peak_arena());
    assert!(arena > 1_000, "the flow keeps a window in flight: {arena}");
    assert!(queue <= arena + 3, "{queue} pending, {arena} in flight");
}

/// Without migrations nothing is ever misdelivered, so the invalidation
/// machinery has nothing to do: SwitchV2P without invalidation packets is
/// SwitchV2P with its timestamp vector.
#[test]
fn without_migrations_invalidation_none_is_the_default_switchv2p() {
    let plain = everything(engine(false));
    let none = SwitchV2P::new(SwitchV2PConfig {
        invalidation: InvalidationMode::None,
        ..SwitchV2PConfig::default()
    });
    assert!(SwitchV2PConfig::default().invalidation != InvalidationMode::None);
    assert!(everything(engine_with(&none, false)) == plain);
}

// ----------------------------------------------------------------------
// Pausing: a run paused anywhere, and read there, is the run straight
// through.
// ----------------------------------------------------------------------

fn tcp_udp_mix(vms: usize, n: usize) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec {
            src_vm: (i * 7) % vms,
            dst_vm: (i * 13 + 29) % vms,
            start: SimTime::from_micros(2 * i as u64),
            kind: if i % 3 == 0 {
                FlowKind::Udp {
                    schedule: UdpSchedule::cbr(
                        SimTime::from_micros(2 * i as u64),
                        SimDuration::from_micros(40),
                        48_000_000,
                        1000,
                    ),
                }
            } else {
                FlowKind::Tcp { bytes: 60_000 }
            },
        })
        .filter(|f| f.src_vm != f.dst_vm)
        .collect()
}

/// A ToR reboot, one of its uplinks down and fabric-wide loss: six global
/// events, at 50, 100, 120, 150, 400 and 600 us.
fn reboot_linkdown_loss_plan(probe: &Engine) -> FaultPlan {
    let tor = probe
        .topology()
        .switches()
        .next()
        .map(|n| n.id)
        .expect("switches exist");
    let uplink = probe.topology().out_links(tor).next().unwrap();
    FaultPlan::from_events([
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
    .unwrap()
}

/// A migration of placement VM `vm` to server `srv` (shifted to the next
/// server when `srv` already hosts the VM, so every migration moves) at
/// `at_us`.
fn migration_for(probe: &Engine, vm: usize, srv: usize, at_us: u64) -> Migration {
    let servers: Vec<_> = probe.topology().servers().map(|n| (n.id, n.pip)).collect();
    let vm = vm % probe.placement().len();
    let mut pick = servers[srv % servers.len()];
    if pick.0 == probe.placement().node_of(vm) {
        pick = servers[(srv + 1) % servers.len()];
    }
    Migration::new(
        SimTime::from_micros(at_us),
        probe.placement().vip_of(vm),
        pick.0,
        pick.1,
    )
}

/// What a pause reads: `(summary, events executed)`.
type Reads = (String, u64);

/// The telemetry-on SwitchV2P scenario with a fixed fault plan and a fixed
/// cross-pod migration, run to each of `pauses` in turn and then to the end,
/// reading at every stop; at pause `register_at`, four more flows (due
/// already or not yet, as the pause falls) and a second migration are
/// registered. Returns the final reads with the telemetry JSONL (events,
/// then samples).
fn run_with_pauses(pauses: &[SimTime], register_at: usize) -> (Reads, String) {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(cfg_with_telemetry(), &ft, &strategy, 4096, 4);
    let (vms, n_servers) = (sim.placement().len(), sim.topology().servers().count());
    sim.apply_fault_plan(reboot_linkdown_loss_plan(&sim));
    sim.add_flows(tcp_udp_mix(vms, 30));
    sim.add_migration(migration_for(&sim, 1, n_servers - 1, 150));

    let reads = |sim: &Engine| (format!("{:?}", sim.summary()), sim.events_executed());
    let mut peak_arena = 0;
    for (i, &t) in pauses.iter().enumerate() {
        sim.run_until(t);
        if i == register_at {
            sim.add_flows((0..4).map(|j| FlowSpec {
                src_vm: (j * 11 + 3) % vms,
                dst_vm: (j * 17 + 40) % vms,
                start: SimTime::from_micros(200 + 50 * j as u64),
                kind: FlowKind::Tcp { bytes: 30_000 },
            }));
            sim.add_migration(migration_for(&sim, 9, n_servers / 2, 350));
        }
        let read = reads(&sim);
        assert_eq!(read, reads(&sim), "a read changed the next");
        assert!(sim.peak_arena() >= peak_arena, "a high-water mark fell");
        peak_arena = sim.peak_arena();
    }
    sim.run();
    let end = reads(&sim);
    let jsonl = sim.tracer().render_events_jsonl() + &sim.tracer().render_samples_jsonl();
    (end, jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A pause sees only the calendar: wherever `run_until` stops — at a
    /// global event's own instant (the plan's are listed; the sampler fires
    /// every 100 us), or at any other nanosecond of the busy first
    /// millisecond — every read there, a registration there, and the rest
    /// of the run are those of a run straight through (but for the one stop
    /// a mid-run registration needs).
    #[test]
    fn pauses_see_what_a_straight_run_sees(
        pauses in proptest::collection::vec((0u64..1_000_000, 0usize..16), 1..=6),
        register_at in 0usize..6,
    ) {
        // Half the pauses snap to a global event's instant.
        const GLOBALS_US: [u64; 8] = [50, 100, 120, 150, 200, 350, 400, 600];
        let mut pauses: Vec<SimTime> = pauses
            .into_iter()
            .map(|(ns, g)| GLOBALS_US.get(g).map_or(ns, |us| us * 1_000))
            .map(SimTime::from_nanos)
            .collect();
        pauses.sort();
        let register_at = register_at % pauses.len();
        let straight = run_with_pauses(&pauses[register_at..=register_at], 0);
        let paused = run_with_pauses(&pauses, register_at);
        prop_assert_eq!(&paused.0, &straight.0, "final reads");
        prop_assert!(paused.1 == straight.1, "telemetry JSONL");
    }
}

/// The scenario under 3 % loss on every link for the whole run: senders
/// time out and retransmit, receivers see gaps, and a receiver that has
/// every byte still gets segments whose ACK was lost (dozens of them; and
/// hundreds of timer events pop after their sender finished).
fn lossy() -> Engine {
    let mut sim = engine(false);
    sim.apply_fault_plan(
        FaultPlan::from_events([FaultEvent::LossRate {
            link: None,
            rate: 0.03,
            from: SimTime::ZERO,
            until: SimTime::from_millis(1_000),
        }])
        .expect("a well-formed plan"),
    );
    sim
}

/// What a read sees: the summary and the merged ledger.
fn ledger(sim: &Engine) -> (String, Counters) {
    (format!("{:?}", sim.summary()), sim.counters())
}

/// A flow's TCP machines are dropped as each side finishes, their
/// statistics folded into the ledger, while late duplicates and timer
/// events of it are still pending: at every pause, with some flows finished
/// and some running, the reads are those of a run straight to that instant,
/// and the retransmission and reordering counts never fall.
#[test]
fn finished_flows_read_at_every_pause_as_a_straight_run() {
    // The loss window outlasts the flows: pause between the first start
    // and the last completion.
    let first = SimTime::from_micros(FIRST_FLOW_US).as_nanos();
    let (mut probe, mut end) = (lossy(), first);
    while probe.flows_outstanding() > 0 {
        end += 20_000;
        probe.run_until(SimTime::from_nanos(end));
    }
    let mut paused = lossy();
    let (mut last, mut between) = (Counters::default(), false);
    for i in 1..=12 {
        // Denser early, where most flows finish.
        let t = SimTime::from_nanos(first + (end - first) * i * i / 144);
        paused.run_until(t);
        let read = ledger(&paused);
        let mut to_t = lossy();
        to_t.run_until(t);
        assert_eq!(read, ledger(&to_t), "at {t:?}");
        let c = &read.1;
        assert!(c.retransmissions >= last.retransmissions, "at {t:?}");
        assert!(c.reordered_segments >= last.reordered_segments, "at {t:?}");
        let done = paused.summary().flows_completed;
        between |= done > 0 && paused.flows_outstanding() > 0 && c.retransmissions > 0;
        last = read.1;
    }
    assert!(between, "no pause fell among finished and running flows");
    paused.run();
    let mut straight = lossy();
    straight.run();
    let read = ledger(&paused);
    assert_eq!(read, ledger(&straight), "at the end");
    assert!(
        read.1.retransmissions > 0 && read.1.reordered_segments > 0,
        "{:?}",
        read.1
    );
    assert_eq!(paused.summary().flows_completed, 24);
}

/// `per_switch_bytes` and `cache_occupancy` rows follow
/// `topology().switches()` enumeration order (ascending `NodeId`), one row
/// per switch, so figure output never depends on a map's order.
#[test]
fn switch_observables_follow_ascending_node_id_order() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let mut sim = Engine::new(cfg_with_telemetry(), &ft, &strategy, 1024, 4);
    sim.add_flows(tcp_udp_mix(sim.placement().len(), 12));
    sim.run();

    let ids: Vec<NodeId> = sim
        .per_switch_bytes()
        .iter()
        .map(|&(id, _, _)| id)
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0].0 < w[1].0),
        "per_switch_bytes rows must be strictly ascending by NodeId"
    );
    let expected: Vec<NodeId> = sim.topology().switches().map(|n| n.id).collect();
    assert_eq!(ids, expected, "rows must mirror topology().switches()");
    let tags: Vec<u16> = sim
        .cache_occupancy()
        .iter()
        .map(|&(tag, _)| tag.0)
        .collect();
    assert_eq!(
        tags,
        (0..expected.len() as u16).collect::<Vec<_>>(),
        "one occupancy row per switch, in switches() order"
    );
    assert!(sim.cache_occupancy().iter().any(|&(_, occ)| occ > 0));
}
