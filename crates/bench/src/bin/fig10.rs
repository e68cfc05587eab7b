//! Figure 10: topology scaling — vary the pod count (1 to 32) while holding
//! 128 servers, Hadoop at a 50% cache.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin fig10 [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{run_spec, ExperimentSpec, StrategyKind};
use sv2p_topology::FatTreeConfig;
use sv2p_traces::hadoop;

fn main() {
    let args = cli::init("fig10");
    let scale = args.scale;
    let flows = hadoop(&scale.hadoop());
    let systems = [
        StrategyKind::LocalLearning,
        StrategyKind::GwCache,
        StrategyKind::SwitchV2P,
    ];
    let cache = scale.analysis_cache_entries();

    println!("Figure 10: topology scaling (128 servers, Hadoop, cache 50%)\n");
    println!(
        "{:<14} {:>5} {:>10} {:>12} {:>14} {:>10}",
        "system", "pods", "switches", "avg FCT us", "first pkt us", "hit rate"
    );
    for s in systems {
        for pods in [1u16, 2, 4, 8, 16, 32] {
            let topology = FatTreeConfig::scaled_ft8(pods);
            let switches = topology.characteristics().total_switches;
            let spec = ExperimentSpec::builder(topology, s)
                .flows(flows.clone())
                .cache_entries(cache)
                .seed(args.seed())
                .label(format!("pods{pods}"))
                .build();
            let r = run_spec(&spec);
            println!(
                "{:<14} {:>5} {:>10} {:>12.1} {:>14.1} {:>9.1}%",
                s.name(),
                pods,
                switches,
                r.avg_fct_us,
                r.avg_first_packet_latency_us,
                r.hit_rate * 100.0
            );
        }
        println!();
    }
    cli::finish();
}
