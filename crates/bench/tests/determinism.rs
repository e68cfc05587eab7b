//! Determinism regression: two runs of the same experiment with the same
//! seed must agree byte-for-byte — event counts, the derived summary, and
//! the entire telemetry JSONL stream (events and samples).
//!
//! This pins the guarantee the hot-path overhaul must preserve: the
//! calendar-queue event queue, the packet arena, and the FxHash maps are
//! all allowed to change *how fast* a run executes, never *what* it
//! executes. A tie-break bug in the wheel, a recycled-handle aliasing bug
//! in the arena, or an iteration-order leak from a hash map would each
//! show up here as a diff in the serialized stream.

use sv2p_bench::harness::{to_flow_specs, StrategyKind};
use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_topology::FatTreeConfig;
use sv2p_traces::{FlowProfile, TraceFlow};

/// A fig9-style steady TCP workload: enough concurrency to exercise ECMP,
/// queueing, cache fills and retransmissions.
fn flows() -> Vec<TraceFlow> {
    (0..120)
        .map(|i| TraceFlow {
            src_vm: i * 7 + 1,
            dst_vm: i * 13 + 29,
            start_ns: (i as u64) * 9_000,
            profile: FlowProfile::Tcp { bytes: 20_000 },
        })
        .collect()
}

/// Runs once with telemetry on and returns every observable surface as a
/// byte-comparable bundle.
fn run_once(seed: u64) -> (u64, String, String) {
    let cfg = SimConfig {
        seed,
        end_of_time: Some(SimTime::from_micros(50_000)),
        telemetry: true,
        ..SimConfig::default()
    };
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = StrategyKind::SwitchV2P.build();
    let mut sim = Engine::new(cfg, &ft, strategy.as_ref(), 128, 16);
    let n_vms = sim.placement().len();
    sim.add_flows(to_flow_specs(&flows(), n_vms));
    sim.run();

    let mut jsonl = String::new();
    for ev in sim.tracer().events() {
        jsonl.push_str(&ev.to_json());
        jsonl.push('\n');
    }
    for s in &sim.tracer().samples {
        jsonl.push_str(&s.to_json());
        jsonl.push('\n');
    }
    let summary = format!("{:?}", sim.summary());
    (sim.events_executed(), summary, jsonl)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (events_a, summary_a, jsonl_a) = run_once(7);
    let (events_b, summary_b, jsonl_b) = run_once(7);
    assert!(
        events_a > 10_000,
        "workload too small to be a meaningful guard"
    );
    assert!(!jsonl_a.is_empty(), "telemetry stream is empty");
    assert_eq!(events_a, events_b, "event counts diverged");
    assert_eq!(summary_a, summary_b, "summaries diverged");
    assert_eq!(jsonl_a, jsonl_b, "telemetry JSONL diverged");
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards the guard: if seeding were ignored, the test above would pass
    // vacuously for the wrong reason.
    let (_, _, jsonl_a) = run_once(7);
    let (_, _, jsonl_b) = run_once(8);
    assert_ne!(
        jsonl_a, jsonl_b,
        "different seeds produced identical streams"
    );
}

/// A churn-bin-style run: background flows plus a full churn timeline
/// (tenant arrivals, departures, migration waves) with the gateway overload
/// model shedding. Every observable surface must reproduce byte-for-byte.
fn run_once_churned(seed: u64) -> (u64, String, String) {
    let mut cfg = SimConfig {
        seed,
        end_of_time: Some(SimTime::from_micros(40_000)),
        telemetry: true,
        ..SimConfig::default()
    };
    cfg.gateway_queue_cap = 32;
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = StrategyKind::SwitchV2P.build();
    let mut sim = Engine::new(cfg, &ft, strategy.as_ref(), 128, 8);
    let n_vms = sim.placement().len();
    sim.add_flows(to_flow_specs(&flows(), n_vms));
    let servers: Vec<_> = sim.topology().servers().map(|n| (n.id, n.pip)).collect();
    let plan = ChurnPlan::generate(&ChurnSpec::medium(seed, 8_000), sim.placement(), &servers);
    sim.apply_churn_plan(&plan);
    sim.run();

    let mut jsonl = String::new();
    for ev in sim.tracer().events() {
        jsonl.push_str(&ev.to_json());
        jsonl.push('\n');
    }
    for s in &sim.tracer().samples {
        jsonl.push_str(&s.to_json());
        jsonl.push('\n');
    }
    let summary = format!("{:?}", sim.summary());
    (sim.events_executed(), summary, jsonl)
}

#[test]
fn same_seed_churn_runs_are_byte_identical() {
    let (events_a, summary_a, jsonl_a) = run_once_churned(7);
    let (events_b, summary_b, jsonl_b) = run_once_churned(7);
    assert!(
        events_a > 10_000,
        "churn workload too small to be a meaningful guard"
    );
    assert!(
        !summary_a.contains("churn_arrivals: 0"),
        "churn timeline produced no arrivals"
    );
    assert_eq!(events_a, events_b, "event counts diverged");
    assert_eq!(summary_a, summary_b, "summaries diverged");
    assert_eq!(jsonl_a, jsonl_b, "telemetry JSONL diverged");
}

#[test]
fn different_seed_churn_runs_diverge() {
    // The churn timeline itself must respond to the seed (arrival times,
    // tenant sizes, wave victims), not just the traffic RNG.
    let (_, summary_a, jsonl_a) = run_once_churned(7);
    let (_, summary_b, jsonl_b) = run_once_churned(9);
    assert_ne!(
        summary_a, summary_b,
        "different seeds produced identical summaries"
    );
    assert_ne!(
        jsonl_a, jsonl_b,
        "different seeds produced identical streams"
    );
}
