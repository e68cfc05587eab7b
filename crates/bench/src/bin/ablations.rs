//! Ablation study: disable each SwitchV2P mechanism in turn (Hadoop and
//! Video, cache 50%) — the design-choice benches DESIGN.md §6 calls out.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin ablations [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{run_spec, ExperimentSpec, StrategyKind};
use sv2p_traces::{hadoop, video};
use switchv2p::SwitchV2PConfig;

fn main() {
    let args = cli::init("ablations");
    let scale = args.scale;
    let variants: Vec<(&str, SwitchV2PConfig)> = vec![
        ("full design", SwitchV2PConfig::default()),
        (
            "w/o learning packets",
            SwitchV2PConfig::without_learning_packets(),
        ),
        ("w/o spillover", SwitchV2PConfig::without_spillover()),
        ("w/o promotion", SwitchV2PConfig::without_promotion()),
        ("ToR-only caching", SwitchV2PConfig::tor_only()),
        (
            "spill active only",
            SwitchV2PConfig {
                spill_only_active: true,
                ..Default::default()
            },
        ),
        ("ToR-heavy memory (4:1:1)", SwitchV2PConfig::tor_heavy()),
        ("core-heavy memory (1:1:4)", SwitchV2PConfig::core_heavy()),
    ];

    for (dataset, flows) in [
        ("Hadoop", hadoop(&scale.hadoop())),
        ("Video", video(scale.video_ns())),
    ] {
        println!("Ablations on {dataset} (cache 50%)\n");
        println!(
            "{:<22} {:>10} {:>12} {:>14} {:>10} {:>10}",
            "variant", "hit rate", "avg FCT us", "first pkt us", "learn pkts", "retx"
        );
        for (name, cfg) in &variants {
            let spec = ExperimentSpec::builder(scale.ft8(), StrategyKind::SwitchV2PWith(*cfg))
                .flows(flows.clone())
                .cache_entries(scale.analysis_cache_entries())
                .seed(args.seed())
                .label(format!("{dataset}:{name}"))
                .build();
            let s = run_spec(&spec);
            println!(
                "{:<22} {:>9.1}% {:>12.1} {:>14.1} {:>10} {:>10}",
                name,
                s.hit_rate * 100.0,
                s.avg_fct_us,
                s.avg_first_packet_latency_us,
                s.learning_packets,
                s.retransmissions
            );
        }
        println!();
    }
    cli::finish();
}
