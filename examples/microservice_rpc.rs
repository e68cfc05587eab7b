//! Microservice RPC workload (Alibaba-style, paper §5.1 / Figure 6).
//!
//! Zipf-skewed RPC callees ("over 95% of requests are processed by 5% of the
//! microservices") give heavy cross-flow destination reuse — the regime
//! where in-network caching shines. Prints the per-layer hit distribution
//! (paper Table 5) alongside the headline metrics.
//!
//! ```sh
//! cargo run --release --example microservice_rpc
//! ```

use switchv2p_repro::baselines::{GwCache, NoCache};
use switchv2p_repro::core::SwitchV2P;
use switchv2p_repro::netsim::{FlowKind, FlowSpec, SimConfig, Engine};
use switchv2p_repro::simcore::SimTime;
use switchv2p_repro::topology::FatTreeConfig;
use switchv2p_repro::traces::{alibaba, AlibabaConfig};
use switchv2p_repro::vnet::Strategy;

fn main() {
    let ft = FatTreeConfig::scaled_ft8(4); // 4 pods, 128 servers
    let vms_per_server = 8;
    let vms = 128 * vms_per_server as usize;

    let trace = alibaba(&AlibabaConfig {
        vms,
        rpcs: 4_000,
        duration_ns: 1_000_000,
        ..AlibabaConfig::default()
    });
    let flows: Vec<FlowSpec> = trace
        .iter()
        .map(|f| FlowSpec {
            src_vm: f.src_vm,
            dst_vm: f.dst_vm,
            start: SimTime::from_nanos(f.start_ns),
            kind: FlowKind::Tcp { bytes: f.bytes() },
        })
        .collect();
    let cache = vms / 2; // 50% of the address space

    println!(
        "Microservice RPCs: {} calls over {} containers, cache 50%\n",
        flows.len(),
        vms
    );
    println!(
        "{:<12} {:>9} {:>12} {:>14}   {:<24}",
        "scheme", "hit rate", "avg FCT", "first packet", "hits by layer (C/S/T)"
    );
    for strategy in [&NoCache as &dyn Strategy, &GwCache, &SwitchV2P::default()] {
        let budget = if strategy.caches_at(switchv2p_repro::topology::SwitchRole::Tor)
            || strategy.caches_at(switchv2p_repro::topology::SwitchRole::GatewayTor)
        {
            cache
        } else {
            0
        };
        let mut sim = Engine::new(SimConfig::default(), &ft, strategy, budget, vms_per_server);
        sim.add_flows(flows.clone());
        sim.run();
        let s = sim.summary();
        println!(
            "{:<12} {:>8.1}% {:>9.1} us {:>11.1} us   {:>4.1}% / {:>4.1}% / {:>4.1}%",
            s.name,
            s.hit_rate * 100.0,
            s.avg_fct_us,
            s.avg_first_packet_latency_us,
            s.hit_share_core * 100.0,
            s.hit_share_spine * 100.0,
            s.hit_share_tor * 100.0
        );
    }
    println!("\nSource learning at ToRs lets callees answer without a gateway");
    println!("detour, and popular services get promoted toward the core.");
}
