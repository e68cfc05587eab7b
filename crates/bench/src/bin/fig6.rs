//! Figure 6: the Alibaba microservice trace on FT16-400K — hit rate, FCT
//! improvement, and first-packet improvement vs cache size.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin fig6 [-- --full]
//! ```

use sv2p_bench::cli;
use sv2p_bench::harness::{print_figure5_panels, sweep, ExperimentSpec, StrategyKind};
use sv2p_traces::alibaba;

fn main() {
    let args = cli::init("fig6");
    let scale = args.scale;
    let (topology, ali_cfg, vms_per_server) = scale.alibaba();
    let flows = alibaba(&ali_cfg);
    let base = ExperimentSpec::builder(topology, StrategyKind::NoCache)
        .vms_per_server(vms_per_server)
        .flows(flows)
        .seed(args.seed())
        .label("alibaba")
        .build();
    let fracs = scale.cache_fracs();
    let table = sweep(
        &base,
        &StrategyKind::figure5_set(),
        &fracs,
        scale.active_addresses("alibaba"),
    );
    print_figure5_panels("Figure 6 (Alibaba, FT16-400K)", &table, &fracs);
    cli::finish();
}
