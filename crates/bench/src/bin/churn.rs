//! Continuous-churn experiment: tenant arrival/departure, autoscaling and
//! rolling migration waves interleaved with live traffic.
//!
//! Three churn intensities (light / medium / heavy) run against every §5.1
//! strategy. Each run layers a deterministic [`ChurnSpec`] timeline — tenant
//! flows, migration waves, timeline marks — on top of a steady background
//! workload, with the gateway overload model enabled (bounded queue that
//! sheds). Rows report misdelivery exposure (stale-cache hits and their age
//! distribution), gateway shed counts, and per-migration recovery time (time
//! from a migration to its last stale-cache correction).
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin churn
//! cargo run --release -p sv2p-bench --bin churn -- --churn-horizon-us 40000
//! ```
//!
//! Stdout carries no wall-clock times, so a rerun — at any `--shards` count —
//! is byte-identical for the same seed.

use sv2p_bench::cli;
use sv2p_bench::harness::{drop_breakdown, ExperimentSpec, StrategyKind};
use sv2p_bench::Scale;
use sv2p_netsim::ChurnSpec;
use sv2p_topology::FatTreeConfig;
use sv2p_traces::{FlowProfile, TraceFlow};

/// Gateway bounded-queue capacity: beyond it an overloaded gateway sheds.
const QUEUE_CAP: u32 = 32;

/// A steady background workload so caches carry state between churn events.
fn background_flows(n: usize, horizon_us: u64, bytes: u64) -> Vec<TraceFlow> {
    (0..n)
        .map(|i| TraceFlow {
            src_vm: i * 11 + 3,
            dst_vm: i * 17 + 41,
            start_ns: (i as u64 * horizon_us * 1_000) / n as u64,
            profile: FlowProfile::Tcp { bytes },
        })
        .collect()
}

fn churn_spec(intensity: &str, seed: u64, horizon_us: u64) -> ChurnSpec {
    match intensity {
        "light" => ChurnSpec::light(seed, horizon_us),
        "medium" => ChurnSpec::medium(seed, horizon_us),
        "heavy" => ChurnSpec::heavy(seed, horizon_us),
        other => panic!("unknown intensity {other}"),
    }
}

fn run_scenario(intensity: &str, strategy: StrategyKind, horizon_us: u64) {
    let seed = cli::args().seed();
    let spec = ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), strategy)
        .vms_per_server(8)
        .flows(background_flows(120, horizon_us, 20_000))
        .cache_entries(match cli::args().scale {
            Scale::Quick => 128,
            Scale::Full => 2_048,
        })
        .churn(churn_spec(intensity, seed, horizon_us))
        .gateway_queue_cap(QUEUE_CAP)
        .end_of_time_us(horizon_us * 5)
        .seed(seed)
        .label(intensity)
        .build();
    let mut sim = spec.build();
    let start = std::time::Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let s = sim.summary();
    cli::record_run(&spec, &sim, &s, wall);
    println!(
        "  {:14} flows {:>5}  hit {:.3}  misdeliv {:>6}  stale-hits {:>6}  \
         stale-age p50/p99 {:.1}/{:.1} us  shed {:>5}  recovery avg/max {:.1}/{:.1} us",
        strategy.name(),
        s.flows_completed,
        s.hit_rate,
        s.misdelivered_packets,
        s.stale_cache_hits,
        s.stale_age_p50_us,
        s.stale_age_p99_us,
        s.drops_shed,
        s.recovery_avg_us,
        s.recovery_max_us,
    );
    println!(
        "  {:14} arrivals {} departures {} waves {} migrations {}  {}",
        "",
        s.churn_arrivals,
        s.churn_departures,
        s.migration_waves,
        s.migrations,
        drop_breakdown(&s),
    );
}

fn main() {
    let a = cli::init("churn");
    let horizon_us = a.churn_horizon_us.unwrap_or(match a.scale {
        Scale::Quick => 20_000,
        Scale::Full => 80_000,
    });
    for intensity in ["light", "medium", "heavy"] {
        println!(
            "\nContinuous churn — {intensity} (horizon {horizon_us} us, \
             gateway queue cap {QUEUE_CAP}, seed {})",
            a.seed()
        );
        for &strategy in &StrategyKind::figure5_set() {
            run_scenario(intensity, strategy, horizon_us);
        }
    }
    cli::finish();
}
