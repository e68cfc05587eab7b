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
//! Then every row's `events`, `telemetry` and projection columns once more,
//! when a flow's retransmission timer came to be filed once per RTO instead
//! of once per ACK (`netsim::flows::LazyRto`).
//! * `events` falls in every row (13 444 -> 12 284 on `switchv2p`, 199 873
//!   -> 186 181 on `profiling-hadoop`): a re-arm for a deadline at or after
//!   the filed one files nothing, so the no-op pop each such re-arm left
//!   behind is gone. What still pops is a flow's first filing, superseded
//!   (an orphan) when the RTO falls from its initial 1 ms towards the
//!   500 us minimum; its last filing, after it completed; a re-filing
//!   wherever a filed deadline came due with a later one armed; and the
//!   timeouts themselves.
//! * `telemetry` moves in every traced row and the projection in every row:
//!   samples and profile reports count events executed and pending, and the
//!   calendar-occupancy histograms no longer see a dormant timer per ACK.
//! * `summary` is *unchanged* in all thirteen rows, by construction: each
//!   arm still takes one seq, and a timer is filed, or re-filed, under the
//!   seq its arm took, so a timer fires at the `(time, seq)` it had with
//!   one event per arm, and every other event keeps its key.
//!
//! Then `churned` and `determinism-churned` once more, the two rows with a
//! sender on a migrated VM's old host, when that host came to tag its own
//! misdelivery (DESIGN.md). `churned`: stale hits 2 637 -> 179, invalidation
//! packets 51 -> 81, events 63 976 -> 56 470, all 288 flows complete either
//! way; `determinism-churned`: invalidation packets 25 -> 37 (most addressed
//! to the tagging ToR itself) and one event more. With the tag disabled both
//! rows are the previous recording.
//!
//! Then the `summary` and `telemetry` columns of the same two rows, when a
//! ToR that tags a misdelivery stopped sending an invalidation packet to
//! itself (it served the stale entry, and has just invalidated it).
//! `Shard::send_on` freed such a packet at once, so only the count moves:
//! invalidation packets 81 -> 30 on `churned` and 37 -> 10 on
//! `determinism-churned`. The telemetry moves because the packets that
//! follow no longer skip the packet ids those took.
//! `events`, the projection and every other summary field are unchanged.
//!
//! To re-record after an intended semantic change, run with
//! `GOLDEN_PRINT=1 cargo test -p sv2p-bench --test golden -- --nocapture`
//! and paste the printed rows.

use sv2p_baselines::NoCache;
use sv2p_bench::harness::{to_flow_specs, StrategyKind};
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_telemetry::{deterministic_projection, ProfileMeta};
use sv2p_topology::{FatTreeConfig, LinkId};
use sv2p_traces::{hadoop, FlowProfile, HadoopConfig, TraceFlow};
use sv2p_transport::UdpSchedule;
use sv2p_vnet::{Migration, Strategy};
use switchv2p::{SwitchV2P, SwitchV2PConfig};

/// `(scenario, events, summary, telemetry, projection)`.
type Row = (&'static str, u64, u64, u64, u64);

/// Recorded when a ToR stopped addressing invalidation packets to itself;
/// see the module doc for what moved and why.
const GOLDEN: &[Row] = &[
    (
        "switchv2p",
        12284,
        0x6ba0fbb75c118cba,
        0xdf7af4935efa4a08,
        0x109500e2dbb255a1,
    ),
    (
        "nocache-untraced",
        22256,
        0xe47d2ccc4b38f3c0,
        0xcbf29ce484222325,
        0x55023881ecce79a3,
    ),
    (
        "faulted",
        12330,
        0x2ea9926491e94bfc,
        0xf9f3663e99ff7f2a,
        0xfdb6320e7a40d31b,
    ),
    (
        "migrated",
        12287,
        0x743db0ed51aaa4ed,
        0x04af42a7cf7e0d20,
        0x0fa7bf03a64d506e,
    ),
    (
        "churned",
        56470,
        0xb27038aebccf4564,
        0x4fb9a5f0cda0aa6b,
        0x2785f87179aec2c6,
    ),
    (
        "one-shard-mix",
        6542,
        0x5d56c2b57d218e05,
        0xcbf29ce484222325,
        0x85c931112b67ea03,
    ),
    (
        "midrun-storm",
        9199,
        0x889c7e534c9b42eb,
        0xb92f51c2aad58fd2,
        0x70086eee0194d7e3,
    ),
    (
        "fixed-fault-plan",
        22342,
        0xd3834290bb716421,
        0xcbf29ce484222325,
        0x0964e578644117e5,
    ),
    (
        "fixed-migration-plan",
        22421,
        0x7ffeb9a44bdbcea6,
        0xcbf29ce484222325,
        0xbb4dc9f664b24151,
    ),
    (
        "observables",
        3882,
        0x532e5e9f7479d96a,
        0x062bf2b033b242b8,
        0xddfd477bad1dd8d1,
    ),
    (
        "determinism-steady",
        31868,
        0x32ee73b49a9fadc2,
        0x1995c68aadc98002,
        0x90da86fa5973d51e,
    ),
    (
        "determinism-churned",
        103345,
        0xac73550e9c7201af,
        0x836764fb88fce5a6,
        0x0af24a6f2fabc501,
    ),
    (
        "profiling-hadoop",
        186181,
        0x6c4ac54d9c76d130,
        0x7b278a2144414d81,
        0xa029841b24f12f77,
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
        telemetry: true,
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
    let uplink = topo.out_links(tor).next().unwrap();
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
            link: LinkId((topo.link_count() / 2) as u32),
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
                telemetry: true,
                profile: true,
                ..SimConfig::default()
            };
            cfg.gateway_queue_cap = queue_cap;
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
    churn_cfg.gateway_queue_cap = 16;
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
