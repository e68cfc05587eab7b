//! Quickstart: run SwitchV2P against the plain gateway design on a small
//! FatTree and print the headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use switchv2p_repro::baselines::NoCache;
use switchv2p_repro::core::SwitchV2P;
use switchv2p_repro::netsim::{FlowKind, FlowSpec, SimConfig, Engine};
use switchv2p_repro::simcore::SimTime;
use switchv2p_repro::topology::FatTreeConfig;
use switchv2p_repro::traces::{hadoop, HadoopConfig};
use switchv2p_repro::vnet::Strategy;

fn main() {
    // A 2-pod FatTree: 128 servers, 512 VMs, one gateway pod.
    let ft = FatTreeConfig::scaled_ft8(2);
    let vms_per_server = 4;

    // A Hadoop-like workload: short TCP flows with destination reuse.
    let trace = hadoop(&HadoopConfig {
        vms: 512,
        flows: 2_000,
        hosts: 128,
        ..HadoopConfig::default()
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

    // Aggregate cache budget: 50% of the address space, split over all
    // switches.
    let cache_entries = 256;

    println!("SwitchV2P quickstart — {} flows over {} VMs\n", flows.len(), 512);
    println!(
        "{:<12} {:>9} {:>12} {:>14} {:>12} {:>10}",
        "scheme", "hit rate", "avg FCT", "first packet", "gw packets", "stretch"
    );
    for strategy in [&NoCache as &dyn Strategy, &SwitchV2P::default()] {
        let mut sim = Engine::new(
            SimConfig::default(),
            &ft,
            strategy,
            if strategy.caches_at(switchv2p_repro::topology::SwitchRole::Tor) {
                cache_entries
            } else {
                0
            },
            vms_per_server,
        );
        sim.add_flows(flows.clone());
        sim.run();
        let s = sim.summary();
        println!(
            "{:<12} {:>8.1}% {:>9.1} us {:>11.1} us {:>12} {:>10.2}",
            s.name,
            s.hit_rate * 100.0,
            s.avg_fct_us,
            s.avg_first_packet_latency_us,
            s.gateway_packets,
            s.avg_stretch
        );
    }
    println!("\nSwitchV2P resolves most packets inside the network: fewer");
    println!("gateway detours, shorter paths, faster flows (paper §5.1).");
}
