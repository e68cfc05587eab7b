//! CI guard for the million-VM tier: a trimmed FT32-1M slice that must
//! (a) grow its RSS from just before set-up to its peak by no more than a
//! hard ceiling per placed VM, (b) produce byte-identical results on 1, 2
//! and 4 shards, and (c) cost about the same to set up and hold in memory
//! on 4 shards as on 1 — the world and the placement (the simulator's one
//! V2P table) exist once per engine, not once per shard.
//!
//! The full 32-pod fat-tree and the full 1 048 576-VM placement are built
//! — memory scaling is exactly what this smoke test guards — but the
//! workload is cut to a few thousand flows so the run finishes in CI
//! time. A regression that reintroduces O(VMs) HashMap state or copies
//! per-VM state per shard blows through a bound and fails the job.
//!
//! Each shard count runs in a fresh process (the binary re-executes
//! itself), so no count inherits heap the allocator kept from another and
//! `VmHWM` is that run's alone.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin sv2p-scale-smoke
//! ```

use std::process::Command;
use std::time::Instant;

use sv2p_bench::cli;
use sv2p_bench::harness::{ExperimentSpec, StrategyKind};
use sv2p_bench::Scale;
use sv2p_traces::{hadoop, HadoopConfig};

/// Hard ceiling, at every shard count, on peak RSS less the RSS just
/// before set-up, per placed VM. Subtracting what the process held before
/// the engine existed (binary, libc, the flow list) leaves what set-up and
/// the run added, so the gate does not depend on the host's fixed overhead.
/// Runs grow 38.5 / 41.6 / 47.5 B/VM on 1 / 2 / 4 shards, 8 of them the
/// placement; 55 leaves 15 % over the 4-shard run and fails a second per-VM
/// V2P table, which the engine kept until it read the placement instead
/// (60.6 / 64.0 / 69.0 B/VM).
const PEAK_BYTES_PER_VM_CEILING: f64 = 55.0;

/// What 4 shards may cost relative to 1 shard: RSS after set-up, peak RSS,
/// set-up seconds. Shards add their own links, agents and calendars, not
/// copies of the shared state (which would be ~5x, ~2x and ~5x).
const MAX_RATIO: [(&str, f64); 3] = [
    ("RSS after set-up", 2.5),
    ("peak RSS", 1.5),
    ("set-up s", 2.0),
];

/// Trimmed flow count (`Scale::huge_hadoop` asks for the full 20 000).
const SMOKE_FLOWS: usize = 2_000;

/// The sub-command that turns the process into the run of one shard count,
/// the one given by `--shards`.
const CHILD: &str = "cell";

/// What the run of one shard count reports, as one tab-separated line.
struct Cell {
    setup_s: f64,
    base_rss: u64,
    setup_rss: u64,
    peak_rss: u64,
    placed_vms: u64,
    manifest: String,
    summary: String,
}

/// Runs one shard count in this process and prints its [`Cell`].
fn run_child(seed: u64, shards: u16) {
    let scale = Scale::Quick;
    let cfg = HadoopConfig {
        flows: SMOKE_FLOWS,
        ..scale.huge_hadoop()
    };
    let spec = ExperimentSpec::builder(scale.ft32(), StrategyKind::SwitchV2P)
        .vms_per_server(32)
        .flows(hadoop(&cfg))
        .cache_entries(scale.analysis_cache_entries())
        .seed(seed)
        .shards(shards)
        .label(format!("scale-smoke-x{shards}"))
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
    let manifest = cli::manifest_for_sim(
        spec.strategy.name(),
        &spec.topology,
        &spec.label,
        seed,
        spec.cache_entries as u64,
        &sim,
        &summary,
        wall,
    );
    println!(
        "{setup_s}\t{base_rss}\t{setup_rss}\t{}\t{}\t{}\t{summary:?}",
        manifest.peak_rss_bytes,
        sim.placement().len(),
        manifest.to_json()
    );
}

/// Re-executes this binary for one shard count and parses what it printed.
fn run_cell(shards: u16) -> Cell {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--shards", &shards.to_string(), CHILD])
        .output()
        .expect("re-exec");
    assert!(
        out.status.success(),
        "shards {shards} run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("utf-8 report");
    let mut f = line.trim_end().splitn(7, '\t');
    let mut next = || f.next().expect("seven fields").to_string();
    Cell {
        setup_s: next().parse().expect("set-up seconds"),
        base_rss: next().parse().expect("RSS before set-up"),
        setup_rss: next().parse().expect("set-up RSS"),
        peak_rss: next().parse().expect("peak RSS"),
        placed_vms: next().parse().expect("placed VMs"),
        manifest: next(),
        summary: next(),
    }
}

fn main() {
    let args = cli::init("scale_smoke");
    if args.dataset.as_deref() == Some(CHILD) {
        return run_child(args.seed(), args.shards());
    }
    let mut failed = false;
    let cells: Vec<(u16, Cell)> = [1, 2, 4].into_iter().map(|s| (s, run_cell(s))).collect();
    println!(
        "FT32-1M scale smoke: {} VMs placed, {} flows, seed {}, one process per shard count",
        cells[0].1.placed_vms,
        SMOKE_FLOWS,
        args.seed(),
    );
    println!(
        "  shards   set-up s  RSS before set-up   RSS after set-up       peak RSS   \
         growth B/VM   ceiling"
    );
    for (shards, c) in &cells {
        let per_vm = c.peak_rss.saturating_sub(c.base_rss) as f64 / c.placed_vms as f64;
        println!(
            "  {shards:>6} {:>10.3} {:>18} {:>18} {:>14} {per_vm:>13.1} {PEAK_BYTES_PER_VM_CEILING:>9.1}",
            c.setup_s, c.base_rss, c.setup_rss, c.peak_rss,
        );
        if per_vm > PEAK_BYTES_PER_VM_CEILING {
            eprintln!(
                "FAIL: shards {shards} RSS grew {per_vm:.1} B per placed VM from set-up to \
                 peak, above {PEAK_BYTES_PER_VM_CEILING}"
            );
            failed = true;
        }
    }
    let (one, four) = (&cells[0].1, &cells[2].1);
    let ratios = [
        four.setup_rss as f64 / one.setup_rss as f64,
        four.peak_rss as f64 / one.peak_rss as f64,
        four.setup_s / one.setup_s,
    ];
    for ((what, max), ratio) in MAX_RATIO.into_iter().zip(ratios) {
        println!("  shards 4 / shards 1, {what}: {ratio:.2}x (at most {max}x)");
        if ratio > max {
            eprintln!("FAIL: {what} on 4 shards is {ratio:.2}x that on 1 shard, above {max}x");
            failed = true;
        }
    }
    for (shards, c) in &cells[1..] {
        if c.summary == one.summary {
            println!("  shards 1 vs {shards}: summaries byte-identical");
        } else {
            eprintln!("FAIL: the {shards}-shard run diverged from the 1-shard run");
            eprintln!("  shards 1: {}", one.summary);
            eprintln!("  shards {shards}: {}", c.summary);
            failed = true;
        }
    }

    let path = "results/scale_smoke.manifest.jsonl";
    let rows: String = cells
        .iter()
        .map(|(_, c)| format!("{}\n", c.manifest))
        .collect();
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, rows)) {
        Ok(()) => eprintln!("[manifest] {} run(s) -> {path}", cells.len()),
        Err(e) => eprintln!("[manifest] write failed for {path}: {e}"),
    }
    if failed {
        std::process::exit(1);
    }
    println!("scale smoke OK");
}
