//! Table 4: the effect of VM migration on network performance, normalized
//! by NoCache (§5.2). 64 UDP senders incast one VM; it migrates at 500 µs.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin table4
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{run_spec, ExperimentSpec, StrategyKind};
use sv2p_traces::incast;
use switchv2p::SwitchV2PConfig;

fn main() {
    let args = cli::init("table4");
    let scale = args.scale;
    // VM 0 is the victim; senders live on 64 distinct servers (80 VMs per
    // server on FT8-10K).
    let dst_vm = 0usize;
    let senders: Vec<usize> = (1..=64).map(|i| i * 80).collect();
    let flows = incast(&senders, dst_vm);
    let cache = scale.analysis_cache_entries();

    let variants: Vec<(&str, StrategyKind, usize)> = vec![
        ("NoCache", StrategyKind::NoCache, 0),
        ("OnDemand", StrategyKind::OnDemand, 0),
        (
            "SwitchV2P w/o invalidations",
            StrategyKind::SwitchV2PWith(SwitchV2PConfig::without_invalidations()),
            cache,
        ),
        (
            "SwitchV2P w/o timestamp vector",
            StrategyKind::SwitchV2PWith(SwitchV2PConfig::without_timestamp_vector()),
            cache,
        ),
        (
            "SwitchV2P w/ timestamp vector",
            StrategyKind::SwitchV2P,
            cache,
        ),
    ];

    println!("Table 4: VM migration under incast, normalized by NoCache\n");
    println!(
        "{:<32} {:>9} {:>12} {:>14} {:>13} {:>8}",
        "variant", "gw pkts", "avg latency", "last misdel", "misdelivered", "invals"
    );
    let mut base: Option<(f64, u64)> = None;
    for (name, strategy, cache_entries) in variants {
        let spec = ExperimentSpec::builder(scale.ft8(), strategy)
            .flows(flows.clone())
            .cache_entries(cache_entries)
            .migrations(vec![(dst_vm, 500)])
            .seed(args.seed())
            .label(name)
            .build();
        let s = run_spec(&spec);
        let (base_lat, base_misdel) =
            *base.get_or_insert((s.avg_packet_latency_us, s.misdelivered_packets.max(1)));
        println!(
            "{:<32} {:>8.1}% {:>11.2}x {:>11.0} us {:>12.1}x {:>8}",
            name,
            (1.0 - s.hit_rate) * 100.0,
            s.avg_packet_latency_us / base_lat,
            s.last_misdelivery_us.unwrap_or(0.0),
            s.misdelivered_packets as f64 / base_misdel as f64,
            s.invalidation_packets
        );
    }
    cli::finish();
}
