//! Failure-recovery experiment: how each translation scheme rides out a ToR
//! reboot storm, a spine link failure and fabric-wide random loss.
//!
//! For every (scenario × scheme) pair, a steady TCP workload runs while the
//! fault window opens mid-experiment; the run reports per-window recovery
//! metrics (hit-rate before/during/after, FCT degradation, time to recover
//! to 95% of the pre-fault hit rate) plus the per-cause drop breakdown.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin failures
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{drop_breakdown, ExperimentSpec, StrategyKind};
use sv2p_netsim::faults::{FaultEvent, FaultPlan};
use sv2p_netsim::Engine;
use sv2p_simcore::{SimDuration, SimTime};
use sv2p_topology::{FatTreeConfig, SwitchRole};
use sv2p_traces::{FlowProfile, TraceFlow};

/// Fault window: opens at 1.5 ms, closes at 1.7 ms into the run.
const FAULT_AT_US: u64 = 1_500;
const FAULT_END_US: u64 = 1_700;

/// A steady stream of TCP flows so every recovery window carries traffic.
fn steady_flows(n: usize, horizon_us: u64, bytes: u64) -> Vec<TraceFlow> {
    (0..n)
        .map(|i| TraceFlow {
            src_vm: i * 7 + 1,
            dst_vm: i * 13 + 29,
            start_ns: (i as u64 * horizon_us * 1_000) / n as u64,
            profile: FlowProfile::Tcp { bytes },
        })
        .collect()
}

fn base_spec(strategy: StrategyKind, scenario: &str) -> ExperimentSpec {
    ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), strategy)
        .vms_per_server(16)
        .flows(steady_flows(300, 3_000, 30_000))
        .cache_entries(96)
        .seed(cli::args().seed())
        .label(scenario)
        .build()
}

/// Builds the scenario's fault plan against a concrete simulation instance
/// (node/link ids are topology-dependent).
fn plan_for(scenario: &str, sim: &Engine) -> FaultPlan {
    let at = SimTime::from_micros(FAULT_AT_US);
    let end = SimTime::from_micros(FAULT_END_US);
    match scenario {
        "tor-reboot-storm" => {
            // Every ToR reboots at once and blacks out for the window.
            FaultPlan::from_events(
                sim.topology()
                    .switches()
                    .filter(|n| {
                        matches!(
                            sim.roles().role(n.id),
                            Some(SwitchRole::Tor) | Some(SwitchRole::GatewayTor)
                        )
                    })
                    .map(|n| FaultEvent::SwitchReboot {
                        node: n.id,
                        at,
                        blackout: SimDuration::from_micros(FAULT_END_US - FAULT_AT_US),
                    })
                    .collect::<Vec<_>>(),
            )
            .expect("valid storm plan")
        }
        "spine-link-failure" => {
            // One ToR loses an uplink in both directions; ECMP must rehash.
            let tor = sim
                .topology()
                .switches()
                .find(|n| sim.roles().role(n.id) == Some(SwitchRole::Tor))
                .map(|n| n.id)
                .expect("a ToR exists");
            let topo = sim.topology();
            let up = topo
                .out_links(tor)
                .find(|&l| topo.kind(topo.link_to(l)).is_switch())
                .expect("ToR has an uplink");
            let down = up.twin();
            FaultPlan::from_events([
                FaultEvent::LinkDown {
                    link: up,
                    at,
                    up_at: end,
                },
                FaultEvent::LinkDown {
                    link: down,
                    at,
                    up_at: end,
                },
            ])
            .expect("valid link plan")
        }
        "random-loss-0.1pct" => FaultPlan::from_events([FaultEvent::LossRate {
            link: None,
            rate: 0.001,
            from: at,
            until: end,
        }])
        .expect("valid loss plan"),
        other => panic!("unknown scenario {other}"),
    }
}

fn run_scenario(scenario: &str, strategy: StrategyKind) {
    let spec = base_spec(strategy, scenario);
    let total = spec.flows.len();
    let mut sim = spec.build();
    let plan = plan_for(scenario, &sim);
    sim.apply_fault_plan(plan);
    let start = std::time::Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let s = sim.summary();
    cli::record_run(&spec, &sim, &s, wall);
    let r = sim.recovery_report(
        SimTime::from_micros(FAULT_AT_US),
        SimTime::from_micros(FAULT_END_US),
    );
    let ttr = match r.time_to_recover_us {
        Some(us) => format!("{us:.0} us"),
        None => "not recovered".to_string(),
    };
    println!(
        "  {:14} flows {}/{}  hit pre/during/post {:.3}/{:.3}/{:.3}  \
         fct-degradation {:.2}x  time-to-recover {}",
        strategy.name(),
        s.flows_completed,
        total,
        r.pre_fault_hit_rate,
        r.during_fault_hit_rate,
        r.post_fault_hit_rate,
        r.fct_degradation,
        ttr,
    );
    println!("  {:14} {}", "", drop_breakdown(&s));
}

fn main() {
    cli::init("failures");
    let strategies = [
        StrategyKind::SwitchV2P,
        StrategyKind::GwCache,
        StrategyKind::LocalLearning,
    ];
    for scenario in [
        "tor-reboot-storm",
        "spine-link-failure",
        "random-loss-0.1pct",
    ] {
        println!("\nFailure recovery — {scenario} (fault window {FAULT_AT_US}-{FAULT_END_US} us)");
        for &strategy in &strategies {
            run_scenario(scenario, strategy);
        }
    }
    cli::finish();
}
