//! Appendix A.2: centralized cache allocation via the ILP controller on the
//! WebSearch trace, at 150 µs and 300 µs invocation periods, against the
//! data-plane schemes.
//!
//! The controller periodically collects the traffic matrix, solves the
//! placement problem (greedy marginal-gain, substituting the paper's Z3 ILP
//! — DESIGN.md §4) and installs the chosen entries in the switches.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin controller [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{run_controller_spec, run_spec, ExperimentSpec, StrategyKind};
use sv2p_simcore::SimDuration;
use sv2p_traces::websearch;

fn main() {
    let args = cli::init("controller");
    let scale = args.scale;
    let fracs = [0.1, 0.25, 0.5, 1.0];
    println!("Appendix A.2: Controller (greedy ILP) on WebSearch\n");
    println!(
        "{:<22} {:>7} {:>10} {:>12} {:>14}",
        "system", "cache", "hit rate", "avg FCT us", "first pkt us"
    );
    let flows = websearch(&scale.websearch());
    for &frac in &fracs {
        let cache_entries = ((frac * scale.active_addresses("websearch") as f64) as usize).max(1);
        for (label, period) in [
            ("Controller @150us", SimDuration::from_micros(150)),
            ("Controller @300us", SimDuration::from_micros(300)),
        ] {
            let run_label = format!(
                "p{}us-c{}",
                period.as_nanos() / 1_000,
                (frac * 100.0) as u32
            );
            let spec = ExperimentSpec::builder(scale.ft8(), StrategyKind::Controller)
                .flows(flows.clone())
                .cache_entries(cache_entries)
                .seed(args.seed())
                .label(run_label)
                .build();
            let s = run_controller_spec(&spec, period);
            println!(
                "{:<22} {:>6}% {:>9.1}% {:>12.1} {:>14.1}",
                label,
                (frac * 100.0) as u32,
                s.hit_rate * 100.0,
                s.avg_fct_us,
                s.avg_first_packet_latency_us
            );
        }
        // Data-plane comparison point.
        let spec = ExperimentSpec::builder(scale.ft8(), StrategyKind::SwitchV2P)
            .flows(flows.clone())
            .cache_entries(cache_entries)
            .seed(args.seed())
            .label(format!("c{}", (frac * 100.0) as u32))
            .build();
        let s = run_spec(&spec);
        println!(
            "{:<22} {:>6}% {:>9.1}% {:>12.1} {:>14.1}",
            "SwitchV2P",
            (frac * 100.0) as u32,
            s.hit_rate * 100.0,
            s.avg_fct_us,
            s.avg_first_packet_latency_us
        );
        println!();
    }
    println!("The controller wins at small caches (global placement, no");
    println!("duplication) and fades as its information staleness dominates —");
    println!("the Appendix A.2 observation.");
    cli::finish();
}
