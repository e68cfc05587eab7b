//! The engine's determinism contract across shard counts: every observable
//! — summary, telemetry samples, trace stream, per-switch counters — at
//! shards 2/4/8 is byte-identical to shards 1 of the same engine. (What
//! shards 1 itself computes is pinned across commits by
//! `crates/bench/tests/golden.rs`.)

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

    let mut oracle = Engine::new(cfg, &ft, strategy, cache_entries, 4, 1);
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

    let mut sharded = Engine::new(cfg, &ft, strategy, cache_entries, 4, shards);
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
    let probe = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
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
        let mut sim = Engine::new(cfg_with_telemetry(), &ft, &strategy, 0, 4, shards);
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
    let probe = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
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
    let probe = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
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
    let probe = Engine::new(cfg, &ft, &strategy, 1024, 4, 1);
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
    let mut zero = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 0);
    let mut one = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
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

    let mut oracle = Engine::new(cfg_with_telemetry(), &ft, &strategy, 4096, 4, 1);
    let flows = tcp_udp_mix(oracle.placement().len(), 24);
    oracle.add_flows(flows.clone());
    oracle.run_until(SimTime::from_micros(150));
    oracle.fail_all_switches();
    oracle.run();

    let mut sharded = Engine::new(cfg_with_telemetry(), &ft, &strategy, 4096, 4, 4);
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

/// What a pause reads: `(summary, events executed)`.
type Reads = (String, u64);

/// The telemetry-on SwitchV2P scenario with a fixed fault plan and a fixed
/// cross-pod migration, run to each of `pauses` in turn and then to the end,
/// reading at every stop; at pause `register_at`, four more flows (due
/// already or not yet, as the pause falls) and a second migration are
/// registered. Returns the reads at the pauses, and the final reads with the
/// telemetry JSONL (events, then samples).
fn run_with_pauses(
    shards: u16,
    pauses: &[SimTime],
    register_at: usize,
) -> (Vec<Reads>, Reads, String) {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(cfg_with_telemetry(), &ft, &strategy, 4096, 4, shards);
    assert_eq!(sim.shards() > 1, shards > 1, "the fabric must really shard");
    let (vms, n_servers) = (sim.placement().len(), sim.topology().servers().count());
    sim.apply_fault_plan(reboot_linkdown_loss_plan(&sim));
    sim.add_flows(tcp_udp_mix(vms, 30));
    sim.add_migration(migration_for(&sim, 1, n_servers - 1, 150));

    let reads = |sim: &Engine| (format!("{:?}", sim.summary()), sim.events_executed());
    let mut at_pauses = Vec::new();
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
        at_pauses.push(reads(&sim));
        assert_eq!(at_pauses[i], reads(&sim), "a read changed the next");
        assert!(sim.peak_arena() >= peak_arena, "a high-water mark fell");
        peak_arena = sim.peak_arena();
    }
    sim.run();
    let end = reads(&sim);
    let jsonl = sim.tracer().render_events_jsonl() + &sim.tracer().render_samples_jsonl();
    (at_pauses, end, jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A pause sees only the calendar: wherever `run_until` stops — at a
    /// global event's own instant (the plan's are listed; the sampler fires
    /// every 100 us), or at any other nanosecond of the busy first
    /// millisecond — nothing is left between the shards, so every read
    /// there, a registration there,
    /// and the rest of the run are the one-shard engine's. Pause-and-resume
    /// on 1, 2 and 4 shards == one shard straight through (but for the one
    /// stop a mid-run registration needs).
    #[test]
    fn pauses_see_what_one_shard_sees(
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
        let straight = run_with_pauses(1, &pauses[register_at..=register_at], 0);
        let one = run_with_pauses(1, &pauses, register_at);
        prop_assert_eq!(&one.1, &straight.1, "one shard, paused: final reads");
        prop_assert!(one.2 == straight.2, "one shard, paused: telemetry JSONL");
        for shards in [2, 4] {
            let sharded = run_with_pauses(shards, &pauses, register_at);
            prop_assert_eq!(&sharded.0, &one.0, "shards {}: reads at the pauses", shards);
            prop_assert_eq!(&sharded.1, &one.1, "shards {}: final reads", shards);
            prop_assert!(sharded.2 == one.2, "shards {}: telemetry JSONL", shards);
        }
    }

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
        let probe = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
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
        let probe = Engine::new(SimConfig::default(), &ft, &NoCache, 0, 4, 1);
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

/// Pins the ordering contract behind the sharded engine's positional
/// merges: `per_switch_bytes` and `cache_occupancy` rows follow
/// `topology().switches()` enumeration order (ascending `NodeId`) on both
/// engines, so figure output never depends on engine choice or shard count.
#[test]
fn switch_observables_follow_ascending_node_id_order() {
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());

    let mut oracle = Engine::new(cfg_with_telemetry(), &ft, &strategy, 1024, 4, 1);
    let flows = tcp_udp_mix(oracle.placement().len(), 12);
    oracle.add_flows(flows.clone());
    oracle.run();

    let mut sharded = Engine::new(cfg_with_telemetry(), &ft, &strategy, 1024, 4, 4);
    sharded.add_flows(flows);
    sharded.run();

    for sim_bytes in [oracle.per_switch_bytes(), sharded.per_switch_bytes()] {
        let ids: Vec<NodeId> = sim_bytes.iter().map(|&(id, _, _)| id).collect();
        assert!(
            ids.windows(2).all(|w| w[0].0 < w[1].0),
            "per_switch_bytes rows must be strictly ascending by NodeId"
        );
        let expected: Vec<NodeId> = oracle.topology().switches().map(|n| n.id).collect();
        assert_eq!(ids, expected, "rows must mirror topology().switches()");
    }
    assert_eq!(
        oracle.cache_occupancy(),
        sharded.cache_occupancy(),
        "cache occupancy must agree row-for-row across engines"
    );
    assert_eq!(
        oracle.cache_occupancy().len(),
        oracle.topology().switches().count(),
        "one occupancy row per switch, in switches() order"
    );
}
