//! Figures 7–8 and the §5.3 bandwidth/stretch analysis: per-pod and
//! per-switch byte counts for Hadoop at a 50% cache.
//!
//! Figure 7 is the per-pod heat map (gateways in pods 1, 3, 6, 8);
//! Figure 8 zooms into pod 8's switches. The binary also prints the §5.3
//! headline numbers: total-traffic reduction factors and average packet
//! stretch.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin fig7 [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{ExperimentSpec, StrategyKind};
use sv2p_topology::NodeKind;
use sv2p_traces::hadoop;

fn main() {
    let args = cli::init("fig7");
    let scale = args.scale;
    let flows = hadoop(&scale.hadoop());
    let systems = [
        StrategyKind::NoCache,
        StrategyKind::LocalLearning,
        StrategyKind::GwCache,
        StrategyKind::SwitchV2P,
        StrategyKind::Direct,
    ];
    let cache = scale.analysis_cache_entries();

    let mut per_pod: Vec<(&str, Vec<u64>, u64, f64)> = Vec::new();
    let mut pod8: Vec<(&str, Vec<(String, u64)>)> = Vec::new();

    for s in systems {
        let spec = ExperimentSpec::builder(scale.ft8(), s)
            .flows(flows.clone())
            .cache_entries(if s.cache_sensitive() { cache } else { 0 })
            .seed(args.seed())
            .label("hadoop")
            .build();
        let mut sim = spec.build();
        let start = std::time::Instant::now();
        sim.run();
        let wall = start.elapsed().as_secs_f64();
        let summary = sim.summary();
        let pods: Vec<u64> = (0..8).map(|p| sim.pod_bytes(p)).collect();
        // Pod 8 (index 7) per switch: spines then ToRs then the gateway ToR,
        // matching Figure 8's switch numbering.
        let mut spines = Vec::new();
        let mut tors = Vec::new();
        let mut gw_tor = Vec::new();
        for (_, kind, bytes) in sim.per_switch_bytes() {
            match kind {
                NodeKind::Spine { pod: 7, idx } => {
                    spines.push((format!("spine{}", idx + 1), bytes))
                }
                NodeKind::Tor { pod: 7, rack } => {
                    if rack == 3 {
                        gw_tor.push(("gw-ToR".to_string(), bytes));
                    } else {
                        tors.push((format!("ToR{}", rack + 1), bytes));
                    }
                }
                _ => {}
            }
        }
        spines.sort();
        tors.sort();
        cli::record_run(&spec, &sim, &summary, wall);
        per_pod.push((
            s.name(),
            pods,
            summary.total_switch_bytes,
            summary.avg_stretch,
        ));
        pod8.push((s.name(), [spines, tors, gw_tor].concat()));
    }

    println!("Figure 7: bytes processed by the switches of each pod (MB)");
    println!("(gateways are in pods 1, 3, 6, 8)\n");
    print!("{:<14}", "system");
    for p in 1..=8 {
        print!("{:>9}", format!("pod{p}"));
    }
    println!();
    for (name, pods, _, _) in &per_pod {
        print!("{name:<14}");
        for &b in pods {
            print!("{:>9.0}", b as f64 / 1e6);
        }
        println!();
    }

    println!("\nFigure 8: bytes processed across pod 8's switches (MB)\n");
    if let Some((_, cols)) = pod8.first() {
        print!("{:<14}", "system");
        for (label, _) in cols {
            print!("{label:>9}");
        }
        println!();
    }
    for (name, cols) in &pod8 {
        print!("{name:<14}");
        for &(_, b) in cols {
            print!("{:>9.0}", b as f64 / 1e6);
        }
        println!();
    }

    println!("\nSection 5.3 headline numbers:");
    let direct = per_pod.iter().find(|r| r.0 == "Direct").unwrap();
    let sv2p = per_pod.iter().find(|r| r.0 == "SwitchV2P").unwrap();
    for (name, _, total, stretch) in &per_pod {
        println!(
            "  {name:<14} total switch bytes {:>8.0} MB ({:>4.2}x of SwitchV2P, {:+.1}% vs Direct), avg stretch {stretch:.2}",
            *total as f64 / 1e6,
            *total as f64 / sv2p.2 as f64,
            (*total as f64 / direct.2 as f64 - 1.0) * 100.0,
        );
    }
    // Gateway-ToR load reduction (the paper: 6.1x vs NoCache, 3.7x vs GwCache).
    let gw_bytes = |name: &str| {
        pod8.iter()
            .find(|r| r.0 == name)
            .and_then(|(_, cols)| cols.iter().find(|(l, _)| l == "gw-ToR"))
            .map(|&(_, b)| b as f64)
            .unwrap_or(0.0)
    };
    println!(
        "  gateway-ToR byte reduction: {:.1}x vs NoCache, {:.1}x vs GwCache",
        gw_bytes("NoCache") / gw_bytes("SwitchV2P"),
        gw_bytes("GwCache") / gw_bytes("SwitchV2P"),
    );
    cli::finish();
}
