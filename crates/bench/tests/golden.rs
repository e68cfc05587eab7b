//! Cross-commit golden digests: what the engine computes, pinned as
//! numbers recorded on a commit *before* the change under test.
//!
//! Every other equivalence test compares a run with another run of the
//! same build (`determinism.rs` with itself, `relations.rs` with a run that
//! differs in something that must not matter, `sharded_equiv.rs` shards N
//! with shards 1), so none of them can tell when a refactor changes what
//! both sides compute. This table can: each row is
//! `(events executed, FNV-1a of {summary:?}, FNV-1a of the telemetry
//! JSONL, FNV-1a of the profile report's deterministic projection)` for the
//! ten `sharded_equiv` scenarios (the two proptests pinned to one fixed
//! plan each), `determinism.rs`'s two and `profiling.rs`'s, on one shard.
//! Every column is independent of the shard count; `sharded_equiv.rs`
//! holds the other counts to it.
//!
//! Re-recorded three times since. PR 21 replaced the calendar and moved the
//! projection columns only, where timers reach past a millisecond (the
//! profile's `calendar_overflow` histogram reads the calendar's own heap,
//! so its horizon).
//!
//! PR 22 re-recorded every row, once: a link now answers at offer time
//! when its packet leaves, so a hop is one event — its arrival — instead
//! of a transmission-complete event and then an arrival.
//! * `events` roughly halves in every row (25 386 -> 13 444 on
//!   `switchv2p`): what is left is arrivals, flow starts, timers and
//!   gateway services.
//! * `telemetry` and both projection columns move in every row that has
//!   them: each sample and each profile report counts events executed and
//!   pending, and the calendar-occupancy histograms see arrivals filed a
//!   serialization (or a whole queue) earlier.
//! * `summary` is *unchanged* in nine rows — `switchv2p`, `faulted`,
//!   `migrated`, `one-shard-mix`, `midrun-storm`, `fixed-fault-plan`,
//!   `observables`, `determinism-steady`, `determinism-churned` — because
//!   departure instants and drop decisions are the event-driven link's
//!   exactly (`netsim::link`'s oracle proptest). It moves in
//!   `nocache-untraced`, `churned`, `fixed-migration-plan` and
//!   `profiling-hadoop`: an arrival takes its `seq` when the packet is
//!   offered rather than when its serialization ends, so two events due in
//!   the same nanosecond can swap, and in those four runs a swap reached
//!   something the summary prints.
//!
//! PR 24 re-recorded the `projection@4` column only, once: the shards take
//! turns on the caller's thread, nothing waits at a barrier, and the two
//! report rows that described the wait are gone — the `barrier_wait` phase
//! row (it counted one call per window) and the `window_ns` timing
//! histogram (likewise one count per window). Every other line of every
//! projection, and `events`, `summary`, `telemetry` and `projection@1` of
//! every row, are the parent's.
//!
//! Then once more, the projection column only, and the `projection@4`
//! column went: the shards interleave event by event on one calendar,
//! and the report lost what only lookahead windows had — the
//! `meta engine` line (it says nothing `shards` does not), the `summary`
//! counters of windows, global events and journal blocks and ops (all 0 on
//! one shard) — while `meta shards` left the projection, the one line that
//! would tell the shard counts apart. Each new hash is the parent's
//! `projection@1` with exactly those six lines removed (computed on the
//! parent). `events`, `summary` and `telemetry` are the parent's.
//!
//! To re-record after an intended semantic change, run with
//! `GOLDEN_PRINT=1 cargo test -p sv2p-bench --test golden -- --nocapture`
//! and paste the printed rows.

use sv2p_baselines::NoCache;
use sv2p_bench::harness::{to_flow_specs, StrategyKind};
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_telemetry::{deterministic_projection, ProfileMeta, TelemetryConfig};
use sv2p_topology::{FatTreeConfig, LinkId};
use sv2p_traces::{hadoop, FlowProfile, HadoopConfig, TraceFlow};
use sv2p_transport::UdpSchedule;
use sv2p_vnet::{Migration, Strategy};
use switchv2p::{SwitchV2P, SwitchV2PConfig};

/// `(scenario, events, summary, telemetry, projection)`.
type Row = (&'static str, u64, u64, u64, u64);

/// Recorded with the analytic link, the projection when the shards came to
/// interleave; see the module doc for what moved and why.
const GOLDEN: &[Row] = &[
    (
        "switchv2p",
        13444,
        0x6ba0fbb75c118cba,
        0xc3babea485f45122,
        0x2960995bf1207cbe,
    ),
    (
        "nocache-untraced",
        23416,
        0xe47d2ccc4b38f3c0,
        0xcbf29ce484222325,
        0xba59c087adc522a9,
    ),
    (
        "faulted",
        13322,
        0x2ea9926491e94bfc,
        0x88b351fb3b770ff1,
        0x6c61a48dc07c2bd0,
    ),
    (
        "migrated",
        13447,
        0x743db0ed51aaa4ed,
        0xdb1e6e6c581861e7,
        0x0490508beb1a2537,
    ),
    (
        "churned",
        67806,
        0x49574efd2f2740d7,
        0x47a01803c7a1e5f2,
        0xe0f937edc8b793c1,
    ),
    (
        "one-shard-mix",
        6890,
        0x5d56c2b57d218e05,
        0xcbf29ce484222325,
        0xe1ee6c5e4ab6ca6e,
    ),
    (
        "midrun-storm",
        10127,
        0x889c7e534c9b42eb,
        0x8d49f8f2296fe821,
        0xc11035328e46b98b,
    ),
    (
        "fixed-fault-plan",
        23238,
        0xd3834290bb716421,
        0xcbf29ce484222325,
        0x62c11725ad5b9d53,
    ),
    (
        "fixed-migration-plan",
        23581,
        0x7ffeb9a44bdbcea6,
        0xcbf29ce484222325,
        0x8dc853374ca6a2fb,
    ),
    (
        "observables",
        4346,
        0x532e5e9f7479d96a,
        0x45af469bff5ba192,
        0x3f7075a65e69bb95,
    ),
    (
        "determinism-steady",
        33828,
        0x32ee73b49a9fadc2,
        0x43391908197edd80,
        0x6abe9ff74279dc93,
    ),
    (
        "determinism-churned",
        106934,
        0x0ee1a014621ed1e4,
        0xc4815bb8770baeac,
        0x52ff3d898299d054,
    ),
    (
        "profiling-hadoop",
        199873,
        0x6c4ac54d9c76d130,
        0x6c91d59a98ee11c6,
        0xf3f13e4ab79c01b6,
    ),
];

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `sim` through `drive` and digests every observable surface.
fn digest(name: &str, mut sim: Engine, drive: impl FnOnce(&mut Engine)) -> (u64, u64, u64, u64) {
    drive(&mut sim);
    let mut jsonl = sim.tracer().render_events_jsonl();
    jsonl.push_str(&sim.tracer().render_samples_jsonl());
    let summary = format!("{:?}", sim.summary());
    let meta = ProfileMeta {
        bin: "golden".into(),
        label: name.into(),
        seed: 0,
        events_executed: sim.events_executed(),
        host_cores: 1,
        peak_rss_bytes: 0,
    };
    let report = sim.profiler().render_report(&meta);
    let projection = deterministic_projection(&report).expect("profile report projects");
    (
        sim.events_executed(),
        fnv1a(&summary),
        fnv1a(&jsonl),
        fnv1a(&projection),
    )
}

// ----------------------------------------------------------------------
// The `sharded_equiv.rs` scenarios (scaled FT8, 4 VMs per server).
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

fn telemetry_cfg() -> SimConfig {
    SimConfig {
        telemetry: TelemetryConfig::enabled(),
        ..SimConfig::default()
    }
}

/// What a netsim-level scenario registers besides its flow mix.
#[derive(Default)]
struct Extras {
    faults: Option<FaultPlan>,
    /// `(vm, server index, at µs)`, resolved like `sharded_equiv`'s
    /// `migration_for`.
    migrations: Vec<(usize, usize, u64)>,
    churn: Option<ChurnSpec>,
    /// Run to this instant, reboot every switch, then finish.
    storm_at_us: Option<u64>,
}

fn equiv_engine(
    mut cfg: SimConfig,
    strategy: &dyn Strategy,
    cache: usize,
    mix: usize,
    extras: &Extras,
) -> Engine {
    cfg.profile = true;
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(cfg, &ft, strategy, cache, 4);
    let servers: Vec<_> = sim.topology().servers().map(|n| (n.id, n.pip)).collect();
    let flows = tcp_udp_mix(sim.placement().len(), mix);
    if let Some(p) = &extras.faults {
        sim.apply_fault_plan(p.clone());
    }
    sim.add_flows(flows);
    for &(vm, srv, at_us) in &extras.migrations {
        let vm = vm % sim.placement().len();
        let mut pick = servers[srv % servers.len()];
        if pick.0 == sim.placement().node_of(vm) {
            pick = servers[(srv + 1) % servers.len()];
        }
        let vip = sim.placement().vip_of(vm);
        sim.add_migration(Migration::new(
            SimTime::from_micros(at_us),
            vip,
            pick.0,
            pick.1,
        ));
    }
    if let Some(spec) = &extras.churn {
        let plan = ChurnPlan::generate(spec, sim.placement(), &servers);
        assert!(
            !plan.migrations.is_empty(),
            "medium churn must produce waves"
        );
        sim.apply_churn_plan(&plan);
    }
    sim
}

fn fixed_fault_plan(ft: &FatTreeConfig, with_outage: bool) -> FaultPlan {
    let topo = ft.build();
    let tor = topo
        .switches()
        .next()
        .map(|n| n.id)
        .expect("switches exist");
    let uplink = topo.out_links[tor.0 as usize][0];
    let mut plan = FaultPlan::from_events([
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
    .expect("well-formed plan");
    if with_outage {
        // The proptest's other two shapes: a gateway outage and a second
        // link fault overlapping the loss window.
        let gw = topo
            .gateways()
            .next()
            .map(|n| n.id)
            .expect("gateways exist");
        plan.push(FaultEvent::GatewayOutage {
            node: gw,
            at: SimTime::from_micros(30),
            up_at: SimTime::from_micros(260),
        })
        .expect("well-formed");
        plan.push(FaultEvent::LinkDown {
            link: LinkId((topo.links.len() / 2) as u32),
            at: SimTime::from_micros(0),
            up_at: SimTime::from_micros(199),
        })
        .expect("well-formed");
    }
    plan
}

type Scenario = (&'static str, Box<dyn Fn() -> (u64, u64, u64, u64)>);

fn equiv_scenario(
    name: &'static str,
    cfg: SimConfig,
    switchv2p: bool,
    cache: usize,
    mix: usize,
    extras: Extras,
) -> Scenario {
    (
        name,
        Box::new(move || {
            let sv2p = SwitchV2P::new(SwitchV2PConfig::default());
            let strategy: &dyn Strategy = if switchv2p { &sv2p } else { &NoCache };
            let sim = equiv_engine(cfg, strategy, cache, mix, &extras);
            digest(name, sim, |sim| {
                if let Some(us) = extras.storm_at_us {
                    sim.run_until(SimTime::from_micros(us));
                    sim.fail_all_switches();
                }
                sim.run();
            })
        }),
    )
}

// ----------------------------------------------------------------------
// The `determinism.rs` and `profiling.rs` scenarios.
// ----------------------------------------------------------------------

fn steady_tcp() -> Vec<TraceFlow> {
    (0..120)
        .map(|i| TraceFlow {
            src_vm: i * 7 + 1,
            dst_vm: i * 13 + 29,
            start_ns: (i as u64) * 9_000,
            profile: FlowProfile::Tcp { bytes: 20_000 },
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn bench_scenario(
    name: &'static str,
    seed: u64,
    end_us: u64,
    queue_cap: u32,
    cache: usize,
    vms_per_server: u32,
    flows: fn() -> Vec<TraceFlow>,
    churn_horizon_us: Option<u64>,
) -> Scenario {
    (
        name,
        Box::new(move || {
            let mut cfg = SimConfig {
                seed,
                end_of_time: Some(SimTime::from_micros(end_us)),
                telemetry: TelemetryConfig::enabled(),
                profile: true,
                ..SimConfig::default()
            };
            cfg.gateway.queue_cap = queue_cap;
            let ft = FatTreeConfig::scaled_ft8(2);
            let strategy = StrategyKind::SwitchV2P.build();
            let mut sim = Engine::new(cfg, &ft, strategy.as_ref(), cache, vms_per_server);
            let n_vms = sim.placement().len();
            sim.add_flows(to_flow_specs(&flows(), n_vms));
            if let Some(h) = churn_horizon_us {
                let servers: Vec<_> = sim.topology().servers().map(|n| (n.id, n.pip)).collect();
                let plan =
                    ChurnPlan::generate(&ChurnSpec::medium(seed, h), sim.placement(), &servers);
                sim.apply_churn_plan(&plan);
            }
            digest(name, sim, |sim| sim.run())
        }),
    )
}

fn scenarios() -> Vec<Scenario> {
    let ft = FatTreeConfig::scaled_ft8(2);
    let n_servers = ft.build().servers().count();
    let mut churn_cfg = telemetry_cfg();
    churn_cfg.gateway.queue_cap = 16;
    vec![
        equiv_scenario(
            "switchv2p",
            telemetry_cfg(),
            true,
            4096,
            30,
            Extras::default(),
        ),
        equiv_scenario(
            "nocache-untraced",
            SimConfig::default(),
            false,
            0,
            30,
            Extras::default(),
        ),
        equiv_scenario(
            "faulted",
            telemetry_cfg(),
            true,
            4096,
            30,
            Extras {
                faults: Some(fixed_fault_plan(&ft, false)),
                ..Extras::default()
            },
        ),
        equiv_scenario(
            "migrated",
            telemetry_cfg(),
            true,
            4096,
            30,
            Extras {
                migrations: vec![
                    (1, n_servers - 1, 150),
                    (9, n_servers / 2, 300),
                    (29, n_servers - 3, 450),
                ],
                ..Extras::default()
            },
        ),
        equiv_scenario(
            "churned",
            churn_cfg,
            true,
            1024,
            30,
            Extras {
                churn: Some(ChurnSpec::medium(7, 2_000)),
                ..Extras::default()
            },
        ),
        equiv_scenario(
            "one-shard-mix",
            SimConfig::default(),
            false,
            0,
            10,
            Extras::default(),
        ),
        equiv_scenario(
            "midrun-storm",
            telemetry_cfg(),
            true,
            4096,
            24,
            Extras {
                storm_at_us: Some(150),
                ..Extras::default()
            },
        ),
        equiv_scenario(
            "fixed-fault-plan",
            SimConfig::default(),
            false,
            0,
            30,
            Extras {
                faults: Some(fixed_fault_plan(&ft, true)),
                ..Extras::default()
            },
        ),
        equiv_scenario(
            "fixed-migration-plan",
            SimConfig::default(),
            false,
            0,
            30,
            Extras {
                // Repeat migrations of one VM, a same-instant pair, and a
                // move back towards the first pod.
                migrations: vec![
                    (7, n_servers - 1, 60),
                    (7, 3, 210),
                    (36, n_servers / 2 + 1, 210),
                    (58, 0, 333),
                    (7, n_servers - 2, 480),
                ],
                ..Extras::default()
            },
        ),
        equiv_scenario(
            "observables",
            telemetry_cfg(),
            true,
            1024,
            12,
            Extras::default(),
        ),
        bench_scenario(
            "determinism-steady",
            7,
            50_000,
            0,
            128,
            16,
            steady_tcp,
            None,
        ),
        bench_scenario(
            "determinism-churned",
            7,
            40_000,
            32,
            128,
            8,
            steady_tcp,
            Some(8_000),
        ),
        bench_scenario(
            "profiling-hadoop",
            1,
            50_000,
            0,
            256,
            16,
            || {
                hadoop(&HadoopConfig {
                    flows: 200,
                    ..Default::default()
                })
            },
            None,
        ),
    ]
}

#[test]
fn golden_digests_hold() {
    let mut rows: Vec<Row> = Vec::new();
    for (name, run) in scenarios() {
        let (events, summary, telemetry, projection) = run();
        rows.push((name, events, summary, telemetry, projection));
    }
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, ev, s, t, p) in &rows {
            println!("    (\"{name}\", {ev}, {s:#018x}, {t:#018x}, {p:#018x}),");
        }
    }
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "scenario count changed; re-record"
    );
    for (got, want) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            got, want,
            "{}: digest differs from the recorded one",
            want.0
        );
    }
}
