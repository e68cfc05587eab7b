//! Table 3: the network topologies' characteristics.

use sv2p_bench::cli;
use sv2p_topology::FatTreeConfig;

fn main() {
    cli::init("table3");
    let start = std::time::Instant::now();
    let ft8 = FatTreeConfig::ft8_10k();
    let ft16 = FatTreeConfig::ft16_400k();
    let (c8, c16) = (ft8.characteristics(), ft16.characteristics());
    println!("Table 3: the network topologies' characteristics\n");
    println!("{:<22} {:>10} {:>12}", "", "FT8-10K", "FT16-400K");
    let row = |name: &str, a: u32, b: u32| println!("{name:<22} {a:>10} {b:>12}");
    row("#Pods", c8.pods as u32, c16.pods as u32);
    row(
        "#Racks per pod",
        c8.racks_per_pod as u32,
        c16.racks_per_pod as u32,
    );
    row("#ToR switches", c8.tor_switches, c16.tor_switches);
    row("#Core switches", c8.core_switches, c16.core_switches);
    row("#Gateways", c8.gateways, c16.gateways);
    row("#VMs", c8.physical_servers * 80, c16.physical_servers * 32);
    row(
        "#Physical servers",
        c8.physical_servers,
        c16.physical_servers,
    );
    println!(
        "\n(total switches: FT8-10K = {}, FT16-400K = {})",
        c8.total_switches, c16.total_switches
    );
    cli::record_manifest(cli::analytic_manifest(
        "topology-characteristics",
        start.elapsed().as_secs_f64(),
    ));
    cli::finish();
}
