//! Figure 9: performance with fewer gateways (Hadoop, cache 50%).
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin fig9 [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{run_spec, ExperimentSpec, StrategyKind};
use sv2p_traces::hadoop;

fn main() {
    let args = cli::init("fig9");
    let scale = args.scale;
    let flows = hadoop(&scale.hadoop());
    let gateway_counts = [40u16, 20, 10, 8, 4];
    let systems = [
        StrategyKind::NoCache,
        StrategyKind::LocalLearning,
        StrategyKind::GwCache,
        StrategyKind::SwitchV2P,
    ];
    let cache = scale.analysis_cache_entries();

    println!("Figure 9: FCT and first-packet latency vs gateway count");
    println!("(Hadoop, cache 50%; 'drops' flags gateway-link packet loss)\n");
    println!(
        "{:<14} {:>5} {:>12} {:>14} {:>10} {:>8}",
        "system", "gws", "avg FCT us", "first pkt us", "hit rate", "drops"
    );
    for s in systems {
        for &gws in &gateway_counts {
            let spec = ExperimentSpec::builder(scale.ft8().with_total_gateways(gws), s)
                .flows(flows.clone())
                .cache_entries(if s.cache_sensitive() { cache } else { 0 })
                // Under-provisioned gateway fleets melt down; cap the run.
                .end_of_time_us(100_000)
                .seed(args.seed())
                .label(format!("gw{gws}"))
                .build();
            let r = run_spec(&spec);
            println!(
                "{:<14} {:>5} {:>12.1} {:>14.1} {:>9.1}% {:>8}",
                s.name(),
                gws,
                r.avg_fct_us,
                r.avg_first_packet_latency_us,
                r.hit_rate * 100.0,
                r.packets_dropped
            );
        }
        println!();
    }
    cli::finish();
}
