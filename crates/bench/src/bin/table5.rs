//! Table 5: the distribution of SwitchV2P cache hits within the network
//! topology for each dataset at a cache size of 50%.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin table5 [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{run_spec, ExperimentSpec, StrategyKind};
use sv2p_traces::{hadoop, microbursts, video, websearch};

fn main() {
    let args = cli::init("table5");
    let scale = args.scale;
    println!("Table 5: SwitchV2P cache-hit distribution by layer (cache 50%)\n");
    println!(
        "{:<12} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "dataset", "Core", "Spine", "ToR", "Core", "Spine", "ToR"
    );
    println!("{:<12} | {:^23} | {:^23}", "", "Total", "First packet");
    for (name, flows) in [
        ("Hadoop", hadoop(&scale.hadoop())),
        ("WebSearch", websearch(&scale.websearch())),
        ("Microbursts", microbursts(&scale.microbursts())),
        ("Video", video(scale.video_ns())),
    ] {
        let spec = ExperimentSpec::builder(scale.ft8(), StrategyKind::SwitchV2P)
            .flows(flows)
            .cache_entries(scale.analysis_cache_entries())
            .seed(args.seed())
            .label(name.to_lowercase())
            .build();
        let s = run_spec(&spec);
        println!(
            "{:<12} | {:>6.1}% {:>6.1}% {:>6.1}% | {:>6.1}% {:>6.1}% {:>6.1}%",
            name,
            s.hit_share_core * 100.0,
            s.hit_share_spine * 100.0,
            s.hit_share_tor * 100.0,
            s.first_hit_share_core * 100.0,
            s.first_hit_share_spine * 100.0,
            s.first_hit_share_tor * 100.0,
        );
    }
    println!("\n(Alibaba's row is produced by the fig6 binary's summary.)");
    cli::finish();
}
