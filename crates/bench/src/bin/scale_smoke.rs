//! CI guard for the million-VM tier: a trimmed FT32-1M slice whose RSS may
//! grow from just before set-up to its peak by no more than a hard ceiling
//! per placed VM.
//!
//! The full 32-pod fat-tree and the full 1 048 576-VM placement are built
//! — memory scaling is exactly what this smoke test guards — but the
//! workload is cut to a few thousand flows so the run finishes in CI
//! time. A regression that reintroduces O(VMs) HashMap state or a second
//! per-VM table blows through the bound and fails the job.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin sv2p-scale-smoke
//! ```

use std::time::Instant;

use sv2p_bench::cli;
use sv2p_bench::harness::{ExperimentSpec, StrategyKind};
use sv2p_bench::Scale;
use sv2p_traces::{hadoop, HadoopConfig};

/// Hard ceiling on peak RSS less the RSS just before set-up, per placed
/// VM. Subtracting what the process held before the engine existed
/// (binary, libc, the flow list) leaves what set-up and the run added, so
/// the gate does not depend on the host's fixed overhead. No engine state
/// grows with the VM count — the placement is one entry per server plus
/// the VMs that moved — so a run grows about 9.3 B/VM, all of it fabric,
/// calendar, packets and flows (10.8 while a link's state was 16 bytes and
/// every server held a host-agent slot). 11.6 (25 % headroom) fails any
/// per-VM column of 2.4 bytes or more (11.7 B/VM), and the table-built
/// topology this fabric had before it became arithmetic (+2.7 MB,
/// 11.9 B/VM).
const PEAK_BYTES_PER_VM_CEILING: f64 = 11.6;

/// Trimmed flow count (`Scale::huge_hadoop` asks for the full 20 000).
const SMOKE_FLOWS: usize = 2_000;

fn main() {
    let args = cli::init("scale_smoke");
    let scale = Scale::Quick;
    let cfg = HadoopConfig {
        flows: SMOKE_FLOWS,
        ..scale.huge_hadoop()
    };
    let spec = ExperimentSpec::builder(scale.ft32(), StrategyKind::SwitchV2P)
        .vms_per_server(32)
        .flows(hadoop(&cfg))
        .cache_entries(scale.analysis_cache_entries())
        .seed(args.seed())
        .label("scale-smoke")
        .build();
    let base_rss = cli::rss_bytes();
    let start = Instant::now();
    let mut sim = spec.build();
    let setup_s = start.elapsed().as_secs_f64();
    let setup_rss = cli::rss_bytes();
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let summary = sim.summary();
    let peak_rss = cli::peak_rss_bytes();
    let placed_vms = sim.placement().len();
    let per_vm = peak_rss.saturating_sub(base_rss) as f64 / placed_vms as f64;
    println!(
        "FT32-1M scale smoke: {placed_vms} VMs placed, {SMOKE_FLOWS} flows, seed {}",
        args.seed(),
    );
    println!(
        "  set-up s  RSS before set-up   RSS after set-up       peak RSS   growth B/VM   ceiling"
    );
    println!(
        "  {setup_s:>8.3} {base_rss:>18} {setup_rss:>18} {peak_rss:>14} {per_vm:>13.1} \
         {PEAK_BYTES_PER_VM_CEILING:>9.1}"
    );
    // Where the bytes go, against what the process grew by.
    let growth = peak_rss.saturating_sub(base_rss) as usize;
    let parts = sim.resident_bytes();
    let named: usize = parts.iter().map(|&(_, b)| b).sum();
    let mb = |b: usize| b as f64 / 1e6;
    println!(
        "  engine parts, MB: {}",
        parts.map(|(n, b)| format!("{n} {:.2}", mb(b))).join(", ")
    );
    println!(
        "  named {:.2} MB of {:.2} MB RSS growth; residual {:.2} MB",
        mb(named),
        mb(growth),
        mb(growth) - mb(named)
    );
    cli::record_run(&spec, &sim, &summary, wall);
    cli::finish();
    if per_vm > PEAK_BYTES_PER_VM_CEILING {
        eprintln!(
            "FAIL: RSS grew {per_vm:.1} B per placed VM from set-up to peak, above \
             {PEAK_BYTES_PER_VM_CEILING}"
        );
        std::process::exit(1);
    }
    println!("scale smoke OK");
}
