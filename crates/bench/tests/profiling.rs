//! Engine self-profiler guarantees at the bench layer.
//!
//! Two contracts are pinned here. First, **zero observable cost**: a run
//! with `SimConfig::profile` on must produce byte-identical simulation
//! output (event counts, summary, telemetry JSONL) to the same run with
//! profiling off — wall-clock timers may change how long a run takes, never
//! what it computes. Second, **deterministic projection**: the profile
//! report mixes wall-clock nanoseconds (non-deterministic by nature) with
//! deterministic counters (phase call counts, occupancy histograms); the
//! deterministic projection of two same-seed reports must agree
//! byte-for-byte, which catches any accidental leak of timing into what
//! should be replay-stable state.

use sv2p_bench::harness::to_flow_specs;
use sv2p_bench::harness::StrategyKind;
use sv2p_netsim::{Engine, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_telemetry::{deterministic_projection, Phase, ProfileMeta};
use sv2p_topology::FatTreeConfig;
use sv2p_traces::{hadoop, HadoopConfig};

/// The ft8-hadoop trace on the scaled fabric, built the way
/// `ExperimentSpec::build` does, with telemetry forced on and the profile
/// knob.
fn engine(profile: bool) -> Engine {
    let cfg = SimConfig {
        seed: 1,
        end_of_time: Some(SimTime::from_micros(50_000)),
        telemetry: true,
        profile,
        ..SimConfig::default()
    };
    let ft = FatTreeConfig::scaled_ft8(2);
    let strategy = StrategyKind::SwitchV2P.build();
    let mut sim = Engine::new(cfg, &ft, strategy.as_ref(), 256, 16);
    let raw = hadoop(&HadoopConfig {
        flows: 200,
        ..Default::default()
    });
    let n_vms = sim.placement().len();
    sim.add_flows(to_flow_specs(&raw, n_vms));
    sim
}

/// The run's profile report, stamped the way `cli::write_profile` does.
fn render_report(sim: &Engine) -> String {
    let meta = ProfileMeta {
        bin: "profiling-test".into(),
        label: "ft8-hadoop".into(),
        seed: 1,
        events_executed: sim.events_executed(),
        host_cores: 1,
        peak_rss_bytes: 0,
    };
    sim.profiler().render_report(&meta)
}

/// Every byte-comparable simulation surface of a finished run, plus the
/// rendered profile report (empty string when profiling is off).
fn run_bundle(mut sim: Engine) -> (u64, String, String, String) {
    sim.run();
    let events_jsonl = sim.tracer().render_events_jsonl();
    let summary = format!("{:?}", sim.summary());
    let report = if sim.profiler().enabled() {
        render_report(&sim)
    } else {
        String::new()
    };
    (sim.events_executed(), summary, events_jsonl, report)
}

#[test]
fn profiling_does_not_change_simulation_output() {
    let off = run_bundle(engine(false));
    let on = run_bundle(engine(true));
    assert!(off.3.is_empty(), "profile-off run produced a report");
    assert!(!on.3.is_empty(), "profile-on run produced no report");
    assert_eq!(off.0, on.0, "event counts diverged");
    assert_eq!(off.1, on.1, "summaries diverged");
    assert_eq!(off.2, on.2, "telemetry JSONL diverged");
}

#[test]
fn deterministic_projection_is_replay_stable() {
    let a = run_bundle(engine(true));
    let b = run_bundle(engine(true));
    // The raw reports differ (wall-clock nanoseconds), but the
    // deterministic projection must agree byte-for-byte.
    let pa = deterministic_projection(&a.3).expect("report a projects");
    let pb = deterministic_projection(&b.3).expect("report b projects");
    assert_eq!(pa, pb, "deterministic projection diverged");
    assert!(pa.contains(" calls="), "projection lost phase call counts");
}

#[test]
fn single_loop_report_covers_dispatch_phases() {
    let mut sim = engine(true);
    sim.run();
    let prof = sim.profiler();
    assert!(prof.enabled());
    assert!(prof.phase_calls(Phase::Pop) > 0, "no pops timed");
    assert_eq!(
        prof.phase_calls(Phase::Pop),
        sim.events_executed(),
        "every executed event must be timed through Pop"
    );
    // Dispatch time is attributed per event class; the workload above
    // certainly sends UDP/TCP traffic over links.
    assert!(
        prof.phase_calls(Phase::LinkArrival) > 0,
        "no arrivals timed"
    );
    let mut total = prof.frac(Phase::Pop);
    for p in [
        Phase::FlowStart,
        Phase::UdpSend,
        Phase::LinkFree,
        Phase::LinkArrival,
        Phase::RtoTimer,
        Phase::Gateway,
        Phase::ReInject,
        Phase::HostForward,
        Phase::Migrate,
        Phase::Fault,
        Phase::ChurnMark,
        Phase::TelemetrySample,
    ] {
        let f = prof.frac(p);
        assert!((0.0..=1.0).contains(&f), "{p:?} frac {f} outside [0,1]");
        total += f;
    }
    assert!(
        total <= 1.05,
        "single-loop phase fractions sum to {total} > 1.05"
    );
}
