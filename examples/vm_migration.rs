//! VM migration under incast (paper §5.2, Table 4).
//!
//! 64 UDP senders on distinct servers blast one destination VM; at t=500 µs
//! the VM migrates to another rack. Compares how NoCache (follow-me rules),
//! OnDemand (stale host rules + follow-me) and three SwitchV2P variants
//! (no invalidations / no timestamp vector / full) repair the network.
//!
//! ```sh
//! cargo run --release --example vm_migration
//! ```

use switchv2p_repro::baselines::{NoCache, OnDemand};
use switchv2p_repro::core::{SwitchV2P, SwitchV2PConfig};
use switchv2p_repro::netsim::{FlowKind, FlowSpec, SimConfig, Engine};
use switchv2p_repro::simcore::SimTime;
use switchv2p_repro::topology::FatTreeConfig;
use switchv2p_repro::traces::{incast, IncastConfig};
use switchv2p_repro::transport::UdpSchedule;
use switchv2p_repro::vnet::{Migration, Strategy};

fn run_variant(strategy: &dyn Strategy, cache: usize) -> switchv2p_repro::metrics::RunSummary {
    let ft = FatTreeConfig::ft8_10k();
    let mut sim = Engine::new(SimConfig::default(), &ft, strategy, cache, 80);

    // 64 senders on distinct servers (VM i*80 lives on server i), one victim.
    let dst_vm = 0usize;
    let senders: Vec<usize> = (1..=64).map(|i| i * 80).collect();
    let cfg = IncastConfig::default();
    let trace = incast(&cfg, &senders, dst_vm);
    let flows: Vec<FlowSpec> = trace
        .iter()
        .map(|f| {
            let (rate_bps, duration_ns, payload) = match f.profile {
                switchv2p_repro::traces::FlowProfile::UdpCbr {
                    rate_bps,
                    duration_ns,
                    payload,
                } => (rate_bps, duration_ns, payload),
                _ => unreachable!(),
            };
            FlowSpec {
                src_vm: f.src_vm,
                dst_vm: f.dst_vm,
                start: SimTime::from_nanos(f.start_ns),
                kind: FlowKind::Udp {
                    schedule: UdpSchedule::cbr(
                        SimTime::ZERO,
                        switchv2p_repro::simcore::SimDuration::from_nanos(duration_ns),
                        rate_bps,
                        payload,
                    ),
                },
            }
        })
        .collect();
    sim.add_flows(flows);

    // Migrate the victim to the last server at t = 500 µs.
    let vip = sim.placement().vip_of(dst_vm);
    let target = sim.topology().servers().last().map(|n| (n.id, n.pip)).unwrap();
    sim.add_migration(Migration::new(
        SimTime::from_micros(500),
        vip,
        target.0,
        target.1,
    ));
    sim.run();
    sim.summary()
}

fn main() {
    println!("VM migration under 64-sender incast (paper Table 4)\n");
    println!(
        "{:<32} {:>9} {:>12} {:>12} {:>12} {:>8}",
        "variant", "gw pkts", "avg latency", "last misdel", "misdelivered", "invals"
    );
    let variants: Vec<(&str, Box<dyn Strategy>, usize)> = vec![
        ("NoCache", Box::new(NoCache), 0),
        ("OnDemand", Box::new(OnDemand), 0),
        (
            "SwitchV2P w/o invalidations",
            Box::new(SwitchV2P::new(SwitchV2PConfig::without_invalidations())),
            5120,
        ),
        (
            "SwitchV2P w/o timestamp vector",
            Box::new(SwitchV2P::new(SwitchV2PConfig::without_timestamp_vector())),
            5120,
        ),
        (
            "SwitchV2P w/ timestamp vector",
            Box::new(SwitchV2P::default()),
            5120,
        ),
    ];
    let mut base_latency = None;
    for (name, strategy, cache) in &variants {
        let s = run_variant(strategy.as_ref(), *cache);
        let base = *base_latency.get_or_insert(s.avg_packet_latency_us);
        println!(
            "{:<32} {:>8.1}% {:>11.2}x {:>9.0} us {:>12} {:>8}",
            name,
            (1.0 - s.hit_rate) * 100.0,
            s.avg_packet_latency_us / base,
            s.last_misdelivery_us.unwrap_or(0.0),
            s.misdelivered_packets,
            s.invalidation_packets
        );
    }
    println!("\nThe timestamp vector keeps invalidation traffic tiny while");
    println!("matching the repair speed of per-misdelivery invalidation.");
}
