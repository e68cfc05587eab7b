//! The engine's determinism contract across shard counts: every observable
//! — summary, telemetry samples, trace stream, per-switch counters — at
//! shards 2/4/8 is byte-identical to shards 1 of the same engine. (What
//! shards 1 itself computes is pinned across commits by
//! `crates/bench/tests/golden.rs`.) This file is the oracle's whole suite:
//! nothing else runs more than one shard but `benchmark/`'s two-shard cell,
//! and the oracle goes with that cell (ROADMAP item 6).

use proptest::prelude::*;
use sv2p_baselines::NoCache;
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_packet::{Packet, PacketKind, Pip, Vip};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_telemetry::TelemetryConfig;
use sv2p_topology::{FatTreeConfig, LinkId, NodeId, SwitchRole};
use sv2p_transport::UdpSchedule;
use sv2p_vnet::agents::NoopSwitchAgent;
use sv2p_vnet::{AgentOutput, Migration, MisdeliveryPolicy, Strategy, SwitchAgent, SwitchCtx};
use switchv2p::{SwitchV2P, SwitchV2PConfig};

fn cfg_with_telemetry() -> SimConfig {
    SimConfig {
        telemetry: TelemetryConfig::enabled(),
        ..SimConfig::default()
    }
}

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

/// Runs the same workload on one shard (the oracle) and on `shards`, and
/// asserts every observable matches.
fn assert_equivalent(
    cfg: SimConfig,
    strategy: &dyn Strategy,
    cache_entries: usize,
    shards: u16,
    plan: Option<FaultPlan>,
) {
    assert_equivalent_full(cfg, strategy, cache_entries, shards, plan, Vec::new(), None);
}

/// [`assert_equivalent`] plus migrations and an optional churn plan.
fn assert_equivalent_full(
    cfg: SimConfig,
    strategy: &dyn Strategy,
    cache_entries: usize,
    shards: u16,
    plan: Option<FaultPlan>,
    migrations: Vec<Migration>,
    churn: Option<&ChurnPlan>,
) {
    let ft = FatTreeConfig::scaled_ft8(2);

    let mut oracle = Engine::sharded(cfg, &ft, strategy, cache_entries, 4, 1);
    let flows = tcp_udp_mix(oracle.placement().len(), 30);
    if let Some(p) = plan.clone() {
        oracle.apply_fault_plan(p);
    }
    oracle.add_flows(flows.clone());
    for &m in &migrations {
        oracle.add_migration(m);
    }
    if let Some(c) = churn {
        oracle.apply_churn_plan(c);
    }
    oracle.run();

    let mut sharded = Engine::sharded(cfg, &ft, strategy, cache_entries, 4, shards);
    assert!(
        sharded.shards() >= 2,
        "this topology must support real sharding"
    );
    if let Some(p) = plan {
        sharded.apply_fault_plan(p);
    }
    sharded.add_flows(flows);
    for &m in &migrations {
        sharded.add_migration(m);
    }
    if let Some(c) = churn {
        sharded.apply_churn_plan(c);
    }
    sharded.run();

    // Raw telemetry first (summary() folds shard counters).
    assert_eq!(
        oracle.tracer().samples,
        sharded.tracer().samples,
        "telemetry samples must match"
    );
    assert_eq!(
        oracle.tracer().render_events_jsonl(),
        sharded.tracer().render_events_jsonl(),
        "trace streams must match byte-for-byte"
    );
    assert_eq!(oracle.events_executed(), sharded.events_executed());
    assert_eq!(oracle.traffic_matrix(), sharded.traffic_matrix());
    let sum_o = format!("{:?}", oracle.summary());
    let sum_s = format!("{:?}", sharded.summary());
    assert_eq!(sum_o, sum_s, "summaries must match byte-for-byte");
    assert_eq!(oracle.per_switch_bytes(), sharded.per_switch_bytes());
    assert_eq!(oracle.cache_occupancy(), sharded.cache_occupancy());
    assert!(sharded.window_count() > 0 && oracle.window_count() == 0);
}

#[test]
fn switchv2p_matches_oracle_across_shard_counts() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    for shards in [2, 4, 8] {
        assert_equivalent(cfg_with_telemetry(), &strategy, 4096, shards, None);
    }
}

#[test]
fn nocache_matches_oracle_without_telemetry() {
    assert_equivalent(SimConfig::default(), &NoCache, 0, 4, None);
}

/// The inner destination that marks a copy, so no spine copies it again.
const COPY_VIP: Vip = Vip(u32::MAX);

/// A spine that sends a same-size copy of every tenant packet it sees to a
/// server in another pod. The copy is offered before the original, so
/// where the original goes down to a ToR the copy goes up to a core —
/// across the cut — and, the two links being alike and idle, both arrive
/// in the same nanosecond.
struct CopyUp {
    /// A server in each pod.
    servers: [Pip; 2],
}

impl SwitchAgent for CopyUp {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput {
        let mut out = AgentOutput::forward();
        if matches!(pkt.kind, PacketKind::Data) && pkt.inner.dst_vip != COPY_VIP {
            let mut copy = pkt.clone();
            copy.inner.dst_vip = COPY_VIP;
            copy.outer.dst_pip = *self
                .servers
                .iter()
                .find(|&&pip| (ctx.pod_of)(pip) != ctx.my_pod)
                .expect("a server in another pod");
            copy.outer.resolved = true;
            out.emit.push(copy);
        }
        out
    }
}

/// NoCache with copying spines; a copy dies at the server it reaches (no
/// VM there has its VIP, and no follow-me rule knows it).
struct CopyingSpines(CopyUp);

impl Strategy for CopyingSpines {
    fn name(&self) -> &'static str {
        "CopyingSpines"
    }
    fn caches_at(&self, _role: SwitchRole) -> bool {
        false
    }
    fn make_switch_agent(&self, role: SwitchRole, _lines: usize) -> Box<dyn SwitchAgent> {
        match role {
            SwitchRole::Spine | SwitchRole::GatewaySpine => Box::new(CopyUp {
                servers: self.0.servers,
            }),
            _ => Box::new(NoopSwitchAgent),
        }
    }
    fn misdelivery_policy(&self) -> MisdeliveryPolicy {
        MisdeliveryPolicy::FollowMe
    }
}

/// The one ordering interleaved shards add: a packet crossing the cut is
/// keyed when its link accepts it, not when it reaches the far shard's
/// calendar after the handler — or the copy's arrival at the core would
/// run after the original's at the ToR, in the same nanosecond.
#[test]
fn a_copy_crossing_the_cut_keeps_its_place_beside_the_original() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let probe = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
    let server_in = |pod| {
        let mut servers = probe.topology().servers();
        servers
            .find(|n| n.kind.pod() == Some(pod))
            .expect("a server")
            .pip
    };
    let strategy = CopyingSpines(CopyUp {
        servers: [server_in(0), server_in(1)],
    });
    let run = |shards| {
        let mut sim = Engine::sharded(cfg_with_telemetry(), &ft, &strategy, 0, 4, shards);
        assert_eq!(sim.shards() > 1, shards > 1, "the fabric must really shard");
        sim.add_flows(tcp_udp_mix(sim.placement().len(), 30));
        sim.run();
        let events = sim.tracer().render_events_jsonl();
        (format!("{:?}", sim.summary()), events, sim.cut_events())
    };
    let one = run(1);
    for shards in [2, 4] {
        let sharded = run(shards);
        assert!(sharded.2 > 0, "no copy crossed the cut");
        assert_eq!(sharded.0, one.0, "shards {shards}: summary");
        assert!(sharded.1 == one.1, "shards {shards}: trace JSONL");
    }
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
    let uplink = probe.topology().out_links[tor.0 as usize][0];
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

#[test]
fn faulted_run_matches_oracle() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let probe = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
    let plan = reboot_linkdown_loss_plan(&probe);
    assert_equivalent(cfg_with_telemetry(), &strategy, 4096, 4, Some(plan));
}

/// Builds a migration for placement VM `vm` to server `srv` (shifted to the
/// next server when `srv` already hosts the VM, so every migration actually
/// moves) at `at_us`, against a probe simulation's topology.
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

/// Migrations are global events: the driver rewrites the mapping state once
/// and live flow transport state moves between owner shards. The
/// result must still be byte-identical to the oracle.
#[test]
fn migrated_run_matches_oracle() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let probe = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
    let n_servers = probe.topology().servers().count();
    // Cross-pod moves (far server indices) so flow state crosses shards.
    let migrations = vec![
        migration_for(&probe, 1, n_servers - 1, 150),
        migration_for(&probe, 9, n_servers / 2, 300),
        migration_for(&probe, 29, n_servers - 3, 450),
    ];
    for shards in [2, 4] {
        assert_equivalent_full(
            cfg_with_telemetry(),
            &strategy,
            4096,
            shards,
            None,
            migrations.clone(),
            None,
        );
    }
}

/// A full churn plan — tenant arrivals/departures, autoscaling, migration
/// waves, timeline marks — with the gateway overload model enabled must
/// stay byte-identical too.
#[test]
fn churned_run_matches_oracle() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut cfg = cfg_with_telemetry();
    cfg.gateway.queue_cap = 16;
    let probe = Engine::sharded(cfg, &ft, &strategy, 1024, 4, 1);
    let servers: Vec<_> = probe.topology().servers().map(|n| (n.id, n.pip)).collect();
    let spec = ChurnSpec::medium(7, 2_000);
    let plan = ChurnPlan::generate(&spec, probe.placement(), &servers);
    assert!(
        !plan.migrations.is_empty(),
        "medium churn must produce waves"
    );
    assert_equivalent_full(cfg, &strategy, 1024, 4, None, Vec::new(), Some(&plan));
}

/// `shards` is the only selector, and 0 means what 1 means: one shard, no
/// turns, no cut.
#[test]
fn zero_means_one_shard() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut zero = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 0);
    let mut one = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
    let flows = tcp_udp_mix(one.placement().len(), 10);
    for sim in [&mut zero, &mut one] {
        assert_eq!(sim.shards(), 1);
        sim.add_flows(flows.clone());
        sim.run();
        assert_eq!((sim.window_count(), sim.cut_events()), (0, 0));
    }
    assert_eq!(
        format!("{:?}", zero.summary()),
        format!("{:?}", one.summary())
    );
}

/// Mid-run control-plane interventions (cache installs, reboots) must stay
/// equivalent too: the failure-recovery experiments drive the engine this
/// way.
#[test]
fn midrun_interventions_match_oracle() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);

    let mut oracle = Engine::sharded(cfg_with_telemetry(), &ft, &strategy, 4096, 4, 1);
    let flows = tcp_udp_mix(oracle.placement().len(), 24);
    oracle.add_flows(flows.clone());
    oracle.run_until(SimTime::from_micros(150));
    oracle.fail_all_switches();
    oracle.run();

    let mut sharded = Engine::sharded(cfg_with_telemetry(), &ft, &strategy, 4096, 4, 4);
    sharded.add_flows(flows);
    sharded.run_until(SimTime::from_micros(150));
    sharded.fail_all_switches();
    sharded.run();

    assert_eq!(oracle.tracer().samples, sharded.tracer().samples);
    assert_eq!(
        format!("{:?}", oracle.summary()),
        format!("{:?}", sharded.summary())
    );
    assert_eq!(oracle.cache_occupancy(), sharded.cache_occupancy());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault plans: the sharded engine must track the oracle through
    /// arbitrary reboot/link/outage/loss schedules.
    #[test]
    fn random_fault_plans_stay_equivalent(
        events in proptest::collection::vec(
            (0u8..4, any::<u32>(), 0u64..400, 1u64..300, 0.0f64..0.2),
            0..5,
        ),
        shards in 2u16..6,
    ) {
        let ft = FatTreeConfig::scaled_ft8(2);
        let probe = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
        let switches: Vec<NodeId> = probe.topology().switches().map(|n| n.id).collect();
        let gateways: Vec<NodeId> = probe.topology().gateways().map(|n| n.id).collect();
        let n_links = probe.topology().links.len();
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
                _ => FaultEvent::LossRate { link: None, rate, from: at, until: end },
            };
            plan.push(ev).expect("generated events are well-formed");
        }
        assert_equivalent(SimConfig::default(), &NoCache, 0, shards, Some(plan));
    }

    /// Random migration plans: arbitrary (VM, target server, instant)
    /// triples — including repeat migrations of the same VM — must keep the
    /// sharded engine equivalent through ownership flips and flow transfer.
    #[test]
    fn random_migration_plans_stay_equivalent(
        moves in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 50u64..500),
            1..6,
        ),
        shards in 2u16..6,
    ) {
        let ft = FatTreeConfig::scaled_ft8(2);
        let probe = Engine::sharded(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
        let n_servers = probe.topology().servers().count();
        let migrations: Vec<Migration> = moves
            .iter()
            .map(|&(vm, srv, at_us)| {
                migration_for(&probe, vm as usize, srv as usize % n_servers, at_us)
            })
            .collect();
        assert_equivalent_full(
            SimConfig::default(),
            &NoCache,
            0,
            shards,
            None,
            migrations,
            None,
        );
    }
}
