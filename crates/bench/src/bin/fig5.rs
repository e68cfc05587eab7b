//! Figure 5: hit rate, average FCT improvement, and first-packet latency
//! improvement (normalized by NoCache) on FT8-10K, as a function of the
//! aggregate cache size — one panel triple per dataset.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin fig5 -- hadoop        # 5a
//! cargo run --release -p sv2p-bench --bin fig5 -- microbursts   # 5b
//! cargo run --release -p sv2p-bench --bin fig5 -- websearch    # 5c
//! cargo run --release -p sv2p-bench --bin fig5 -- video        # 5d
//! cargo run --release -p sv2p-bench --bin fig5 -- all [--full]
//! ```

use sv2p_bench::harness::{print_figure5_panels, sweep, ExperimentSpec, StrategyKind};
use sv2p_bench::{cli, Scale};
use sv2p_traces::{hadoop, microbursts, video, websearch};

fn run_dataset(name: &str, scale: Scale, seed: u64) {
    let flows = match name {
        "hadoop" => hadoop(&scale.hadoop()),
        "websearch" => websearch(&scale.websearch()),
        "microbursts" => microbursts(&scale.microbursts()),
        "video" => video(scale.video_ns()),
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };
    let figure = match name {
        "hadoop" => "Figure 5a (Hadoop)",
        "microbursts" => "Figure 5b (Microbursts)",
        "websearch" => "Figure 5c (WebSearch)",
        _ => "Figure 5d (Video)",
    };
    let base = ExperimentSpec::builder(scale.ft8(), StrategyKind::NoCache)
        .flows(flows)
        .seed(seed)
        .label(name)
        .build();
    let fracs = scale.cache_fracs();
    let table = sweep(
        &base,
        &StrategyKind::figure5_set(),
        &fracs,
        scale.active_addresses(name),
    );
    print_figure5_panels(figure, &table, &fracs);
}

fn main() {
    let args = cli::init("fig5");
    let (scale, seed) = (args.scale, args.seed());
    match args.dataset_or("all") {
        "all" => {
            for d in ["hadoop", "microbursts", "websearch", "video"] {
                run_dataset(d, scale, seed);
                println!();
            }
        }
        d => run_dataset(d, scale, seed),
    }
    cli::finish();
}
