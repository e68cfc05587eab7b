//! Sharded-engine equivalence at the bench layer: `--shards 1` and
//! `--shards 4` must produce byte-identical summaries and telemetry JSONL
//! for the real experiment pipeline (trace workloads through
//! `ExperimentSpec`), and the guarantee must survive arbitrary fault
//! plans.
//!
//! The netsim-level contract lives in `crates/netsim/tests/sharded_equiv.rs`;
//! this test pins the harness plumbing on top of it — spec → engine
//! construction, flow conversion, and the JSONL surfaces the bins write.

use proptest::prelude::*;
use sv2p_bench::harness::{run_controller_spec, to_flow_specs, ExperimentSpec, StrategyKind};
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::{Engine, SimConfig};
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_telemetry::TelemetryConfig;
use sv2p_topology::{FatTreeConfig, LinkId, NodeId};
use sv2p_traces::{hadoop, FlowProfile, HadoopConfig, TraceFlow};

/// Builds the engine the way `ExperimentSpec::build` does — same config
/// fields, same flow conversion — but with telemetry forced on (the spec
/// path keys tracing off the process-wide `--telemetry` flag, which tests
/// cannot set) and the ft8-hadoop trace as the workload.
fn engine(shards: u16, plan: Option<&FaultPlan>) -> Engine {
    let cfg = SimConfig {
        seed: 1,
        end_of_time: Some(SimTime::from_micros(50_000)),
        telemetry: TelemetryConfig::enabled(),
        ..SimConfig::default()
    };
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = StrategyKind::SwitchV2P.build();
    let mut sim = Engine::new(cfg, &ft, strategy.as_ref(), 256, 16, shards);
    if let Some(p) = plan {
        sim.apply_fault_plan(p.clone());
    }
    let raw = hadoop(&HadoopConfig {
        flows: 200,
        ..Default::default()
    });
    let n_vms = sim.placement().len();
    sim.add_flows(to_flow_specs(&raw, n_vms));
    sim
}

/// Every byte-comparable surface of a finished run.
fn run_bundle(mut sim: Engine) -> (u64, String, String, String) {
    sim.run();
    let events_jsonl = sim.tracer().render_events_jsonl();
    let samples_jsonl = sim.tracer().render_samples_jsonl();
    let executed = sim.events_executed();
    let summary = format!("{:?}", sim.summary());
    (executed, summary, events_jsonl, samples_jsonl)
}

#[test]
fn ft8_hadoop_shards_1_and_4_are_byte_identical() {
    let single = run_bundle(engine(1, None));
    let sharded = run_bundle(engine(4, None));
    assert_eq!(single.0, sharded.0, "events executed");
    assert_eq!(single.1, sharded.1, "run summary");
    assert_eq!(single.2, sharded.2, "telemetry events JSONL");
    assert_eq!(single.3, sharded.3, "telemetry samples JSONL");
}

#[test]
fn spec_builder_threads_shards_into_the_engine() {
    let spec = ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), StrategyKind::NoCache)
        .vms_per_server(2)
        .shards(4)
        .build();
    assert_eq!(spec.shards, 4);
    let sim = spec.build();
    // scaled_ft8(2) has two pods, so the partitioner clamps the requested
    // four shards to pods + 1 (two pod shards plus the core/podless shard).
    assert_eq!(sim.shards(), 3, "spec.build must honor the shard count");
    let single = ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), StrategyKind::NoCache)
        .vms_per_server(2)
        .build()
        .build();
    assert_eq!(single.shards(), 1);
}

/// The Controller's epoch loop replans from the traffic matrix, a hash map
/// summed over the shards whose iteration order depends on the shard count
/// and on how large the map has ever been. A burst of short flows grows it;
/// the equal flows that follow tie for the one cache line per switch, so the
/// plan — and the run — shows any dependence on that order.
#[test]
fn controller_epochs_are_identical_at_shards_1_and_4() {
    let flow = |i: usize, start_ns: u64, bytes: u64| TraceFlow {
        src_vm: i * 7 + 1,
        dst_vm: i * 13 + 5,
        start_ns,
        profile: FlowProfile::Tcp { bytes },
    };
    let flows: Vec<TraceFlow> = (0..600)
        .map(|i| flow(i, 0, 3_000))
        .chain((0..100).map(|i| flow(i, 2_000_000, 30_000)))
        .collect();
    let run = |shards| {
        let spec = ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), StrategyKind::Controller)
            .vms_per_server(16)
            .flows(flows.clone())
            .cache_entries(40)
            .shards(shards)
            .build();
        format!("{:?}", run_controller_spec(&spec, SimDuration::from_micros(150)))
    };
    assert_eq!(run(1), run(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random fault plans on the hadoop workload: the sharded pipeline must
    /// match the single-threaded pipeline byte-for-byte through arbitrary
    /// reboot/link/outage/loss schedules.
    #[test]
    fn random_fault_plans_keep_shard_counts_equivalent(
        events in proptest::collection::vec(
            (0u8..4, any::<u32>(), 0u64..400, 1u64..300, 0.0f64..0.2),
            1..5,
        ),
    ) {
        let ft = FatTreeConfig::scaled_ft8(2);
        let probe = Engine::new(
            SimConfig::default(),
            &ft,
            StrategyKind::NoCache.build().as_ref(),
            0,
            2,
            1,
        );
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
        let single = run_bundle(engine(1, Some(&plan)));
        let sharded = run_bundle(engine(4, Some(&plan)));
        prop_assert_eq!(single, sharded);
    }
}
